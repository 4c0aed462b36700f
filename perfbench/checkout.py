"""Locating the checkout's package and describing the runtime it runs on."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Printed by a child process once its set-up is done, followed by a JSON object.
READY = "READY"


class CheckoutError(RuntimeError):
    """The checkout does not hold the package sources the benchmark builds on."""


def require_sources() -> None:
    if not (SRC / "kitaev_chain" / "__init__.py").is_file():
        raise CheckoutError(f"no package sources under {SRC}; run from a full checkout")


def import_package():
    """Import ``kitaev_chain`` from this checkout's ``src``, never from elsewhere."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import kitaev_chain

    if Path(kitaev_chain.__file__).resolve().parent != SRC / "kitaev_chain":
        raise CheckoutError(f"kitaev_chain imported from {kitaev_chain.__file__}, not {SRC}")
    return kitaev_chain


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds loaded in this process and the thread count each reports."""
    paths = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in path.lower() and path.startswith("/") and path not in paths:
                    paths.append(path)
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name, "threads": None, "config": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and entry["threads"] is None:
                    threads.restype = ctypes.c_int
                    entry["threads"] = int(threads())
                if config is not None and entry["config"] is None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode(errors="replace")
        found.append(entry)
    return found


def runtime_info() -> dict:
    """Interpreter, numpy/scipy and BLAS of this process; call after importing them."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": _blas_libraries(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
