"""Host fingerprint stamped into every benchmark result.

Numbers from a host with another core count, BLAS build or thread setting
do not carry over, so each result names the host it was measured on.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict

#: Environment variables that set BLAS / OpenMP thread pools.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def blas_info(numpy_module) -> Dict[str, str]:
    """BLAS vendor and version from numpy's build configuration."""
    try:
        config = numpy_module.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy too old for mode="dicts"
        return {"name": "unknown", "version": "unknown"}
    return {"name": str(blas.get("name", "unknown")), "version": str(blas.get("version", "unknown"))}


def fingerprint() -> Dict[str, Any]:
    import numpy

    blas = blas_info(numpy)
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }
