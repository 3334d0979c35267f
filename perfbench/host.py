"""Host fingerprint written into every benchmark result.

Everything that decides how fast the same code runs on this host: CPU
count and cgroup quota, interpreter and numpy versions, the BLAS build
and the BLAS thread count the loaded library reports at runtime, the
resolved K-FAC thread count, the ``REPRO_*`` knobs, and the
multiprocessing start method the pool uses.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np


def _read(path: str) -> Optional[str]:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cgroup_cpu_quota() -> Optional[float]:
    """CPUs allowed by the cgroup (quota / period), None when unlimited."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        quota, _, period = v2.partition(" ")
        return None if quota == "max" else int(quota) / int(period)
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None or period is None or int(quota) < 0:
        return None
    return int(quota) / int(period)


def _openblas_call(suffix: str, restype: Any) -> Any:
    """Call ``<prefix>openblas_<suffix>`` in numpy's bundled OpenBLAS
    (None when numpy ships another BLAS)."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in (f"scipy_openblas_{suffix}64_", f"openblas_{suffix}64_",
                     f"openblas_{suffix}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, read at runtime."""
    return _openblas_call("get_num_threads", ctypes.c_int)


def fingerprint() -> Dict[str, Any]:
    from repro.parallel.pool import _start_method
    from repro.rl.acktr import resolve_kfac_threads

    config = _openblas_call("get_config", ctypes.c_char_p)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime_config": config.decode() if config else None,
        "blas_threads": blas_threads(),
        "kfac_threads": resolve_kfac_threads(None),
        "start_method": _start_method(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }
