"""Record of the machine and library stack a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _blas() -> dict:
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    # the thread count OpenBLAS actually runs with, from the loaded library
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = os.path.basename(path)
                return info
    return info


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def record(mc_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "POLYKIN_THREADS": os.environ.get("POLYKIN_THREADS"),
        "mc_threads": mc_threads,
    }
