"""The environment block written into every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# OpenBLAS builds export the thread query under one of these names.
_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _live_blas_threads(module) -> int | None:
    """Thread count the BLAS bundled with ``module`` reports, None if unknown."""
    libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        library = ctypes.CDLL(str(path))
        for symbol in _THREAD_QUERIES:
            query = getattr(library, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return None


def _blas(module) -> dict:
    try:
        config = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        config = {}
    return {
        "name": config.get("name", "unknown"),
        "version": config.get("version", "unknown"),
        "threads": _live_blas_threads(module),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def collect(pinned_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "blas_threads_pinned": pinned_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def describe(env: dict) -> str:
    blas = ", ".join(
        f"{owner}: {info['name']} {info['version']} at {info['threads']} thread(s)"
        for owner, info in env["blas"].items()
    )
    return (
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}; "
        f"BLAS pinned to {env['blas_threads_pinned']} ({blas}); "
        f"nproc {env['nproc']}; cpu {env['cpu_model']}"
    )
