"""The host block printed with every benchmark result.

Everything here is read-only: versions, the BLAS library numpy was built
against and the thread count it runs with, the source revision, and the
cgroup memory limit.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys

_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads", "MKL_Get_Max_Threads")


def _blas() -> dict:
    import numpy as np

    info = {"name": "unknown", "version": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name", "unknown"), "version": deps.get("version", "unknown")}
    except (TypeError, KeyError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads():
    """Ask the loaded BLAS library for its pool size; None if it cannot be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.lower() and ".so" in line.split()[-1]}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _revision(root: str) -> dict:
    """Git commit when the checkout is a repository, and a digest of src/ always."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _cgroup_memory_limit():
    for path in _CGROUP_LIMITS:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            continue
    return "unknown"


def collect(root: str) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "SECAP_THREADS": os.environ.get("SECAP_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        **_revision(root),
        "cgroup_memory_limit": _cgroup_memory_limit(),
    }
