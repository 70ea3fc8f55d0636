"""Process environment of a benchmark run: BLAS pinning, sources, machine record.

Nothing here imports numpy at module level, because the BLAS thread count
has to be pinned before numpy loads its BLAS.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"

# Every workload runs with one BLAS thread, so that timings measure the
# program's own parallelism and not the BLAS pool's.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Thread-count getters of the BLAS builds numpy ships with or links to.
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


class SourcesMissing(RuntimeError):
    """The checkout holds no raysep sources to benchmark."""


def pin_blas_threads() -> None:
    """Pin BLAS to one thread in this process and the processes it starts.

    Call before numpy is imported.
    """
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})


def have_sources() -> bool:
    return (SOURCES / "raysep" / "__init__.py").is_file()


def import_checkout_raysep():
    """Import raysep from this checkout's ``src/``, never from site-packages.

    Raises:
        SourcesMissing: If the checkout has no ``src/raysep`` or another copy
            of the package was imported.
    """
    if not have_sources():
        raise SourcesMissing(f"no raysep package under {SOURCES}")
    sys.path.insert(0, str(SOURCES))
    import raysep

    if Path(raysep.__file__).resolve().parent != (SOURCES / "raysep").resolve():
        raise SourcesMissing(f"imported raysep from {raysep.__file__}, not {SOURCES}")
    return raysep


def usable_cpus() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_threads():
    """Threads the loaded BLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "blas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment_record(workers: int) -> dict:
    """Machine and library versions to print next to every result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workers": workers,
    }
