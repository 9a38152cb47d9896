"""The benchmark's schema check, run at its tiny size as part of the suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck_passes():
    # every workload, untraced and traced: result keys, metric names and units,
    # span parents and metrics.json coverage; a broken per-op metric fails here
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selfcheck.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
