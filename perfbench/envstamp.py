"""Environment stamp recorded with every benchmark result.

Everything here is read-only: the benchmark never sets a thread-count
variable and never calls a BLAS ``*_set_num_threads`` symbol, because
pinning BLAS would hide the oversubscription cost that forked study
workers pay with the default threading.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

#: Candidate ``get_num_threads`` / ``get_config`` symbol names of the
#: OpenBLAS builds bundled with numpy and scipy wheels (64-bit-integer
#: builds carry a ``64_`` suffix).
_NUM_THREADS_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _symbol(lib: ctypes.CDLL, names: tuple[str, ...]):
    for name in names:
        try:
            return name, getattr(lib, name)
        except AttributeError:
            continue
    return None, None


def _blas_libraries() -> list[dict[str, object]]:
    """OpenBLAS builds shipped in the numpy / scipy wheel ``.libs`` dirs."""
    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            entry: dict[str, object] = {"package": package.__name__, "library": path.name}
            try:
                lib = ctypes.CDLL(str(path))
            except OSError as error:
                entry["error"] = str(error)
                found.append(entry)
                continue
            name, get_threads = _symbol(lib, _NUM_THREADS_SYMBOLS)
            if get_threads is not None:
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                entry["num_threads"] = int(get_threads())
                entry["num_threads_symbol"] = name
            _name, get_config = _symbol(lib, _CONFIG_SYMBOLS)
            if get_config is not None:
                get_config.argtypes = []
                get_config.restype = ctypes.c_char_p
                entry["config"] = get_config().decode("ascii", "replace").strip()
            found.append(entry)
    return found


def environment_stamp() -> dict[str, object]:
    """Cores, CPU, interpreter/library versions, BLAS threading, env vars."""
    import numpy
    import scipy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "thread_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.endswith("_NUM_THREADS")
        },
    }
