"""Machine facts as a pipeline child process sees them.

    python3 bench/machine.py

Prints one JSON object: CPU count, Python, numpy and scipy versions, and for
each OpenBLAS build loaded by numpy and scipy.linalg its configuration string
and the thread count it chose. numpy and scipy wheels each bundle their own
OpenBLAS, and each picks its thread count when it loads.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _loaded_openblas() -> list[str]:
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path not in paths:
                paths.append(path)
    return paths


def _call(lib, stems, restype):
    for stem in stems:
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{stem}{suffix}", None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def blas_builds() -> list[dict]:
    builds = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        config = _call(lib, ("scipy_openblas_get_config", "openblas_get_config"),
                       ctypes.c_char_p)
        threads = _call(lib, ("scipy_openblas_get_num_threads", "openblas_get_num_threads"),
                        ctypes.c_int)
        builds.append({"library": os.path.basename(path),
                       "config": config.decode() if config else None,
                       "threads": threads})
    return builds


def facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_builds(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


if __name__ == "__main__":
    print(json.dumps(facts()))
