"""Schema self-check of the benchmark, at tiny sizes; it checks no timings.

    python3 perfbench/selfcheck.py

For every workload, untraced and traced, it runs run.py at schema-check size
and checks that the result line has exactly the keys correct, attempted,
failed and metrics, that every metric BENCHMARK.json names is there with its
unit and a finite value, and that every span in the trace file has a parent
that exists. It also checks
that metrics.json documents every metric, and that run.py fails, printing no
result, in a directory holding only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
TIMEOUT_S = 170

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--tiny")
    label = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{label}: exit code {proc.returncode} {proc.stderr[-400:]}")
    if proc.returncode != 0:
        return
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(line)}")
    expect(line["correct"] is True and line["failed"] == 0, f"{label}: correct, nothing failed")
    expect(isinstance(line["attempted"], int) and line["attempted"] >= 1, f"{label}: attempted >= 1")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    expect(set(line["metrics"]) == {m["name"] for m in listed}, f"{label}: exactly the listed metrics")
    for m in listed:
        got = line["metrics"].get(m["name"], {})
        value = got.get("value")
        expect(got.get("unit") == m["unit"] and isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {m['name']} has unit {m['unit']} and a finite value")
    for m in spec["end_to_end"]:
        expect(f"{m['name']} = " in proc.stdout and m["unit"] in proc.stdout,
               f"{label}: {m['name']} printed by name")
    expect("failed_ops_frac = " in proc.stdout, f"{label}: failed_ops_frac printed by name")
    expect("host nproc = " in proc.stdout, f"{label}: host block printed")
    expect("host-speed probe: " in proc.stdout, f"{label}: host-speed probe printed")
    if trace:
        with open(os.path.join(ROOT, ".perfbench", "traces", f"{workload}-seed{SEED}.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        spans = doc["spans"]
        bad = [i for i, s in enumerate(spans) if not (s[3] == -1 or 0 <= s[3] < i)]
        expect(bool(spans) and not bad, f"{label}: {len(spans)} spans, every parent exists ({len(bad)} bad)")
        expect(all(0 <= s[0] < len(doc["names"]) for s in spans), f"{label}: every span name resolves")
        expect("host" in doc and "self_ms" in doc, f"{label}: trace file has host block and self times")


def check_docs(spec: dict) -> None:
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as fh:
        docs = json.load(fh)
    for w in spec["workloads"]:
        expect(w["name"] in docs["workloads"], f"metrics.json describes workload {w['name']}")
    for m in spec["end_to_end"]:
        expect(m["name"] in docs["end_to_end"], f"metrics.json describes {m['name']}")
    for m in spec["per_layer"]:
        expect(any(fnmatch.fnmatchcase(m["name"], pattern) for pattern in docs["per_layer"]),
               f"metrics.json maps {m['name']} to an end-to-end metric")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, ".perfbench", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "train-desk", "--seed", "1", "--seconds", "1", "--trace", "0")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and not last[0].startswith("{"),
               f"bare directory: exit {proc.returncode}, no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_docs(spec)
    check_bare_directory()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    print(f"selfcheck: {'PASS' if not failures else f'FAIL ({len(failures)} checks)'}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
