"""Environment record written into every benchmark output."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

#: Set to 1 by ``run.py`` before NumPy loads: one BLAS thread per process.
#: This module must not import NumPy at module level.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    """Commit checked out at ``root``, read from ``.git`` (None outside a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas_runtime() -> dict:
    """Core type OpenBLAS selected at run time, from the loaded library."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.split()[-1]})
    except OSError:
        return {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_corename{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    return {"library": Path(path).name, "core": fn().decode()}
    return {}


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "runtime": _openblas_runtime(),
        },
        "simd_found": config.get("SIMD Extensions", {}).get("found"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
