"""numpy's bundled OpenBLAS: its thread count and its LAPACKE ``dsyevr``.

This is the one module that finds the OpenBLAS numpy bundles, loads it,
resolves its symbols or sets its thread count; without such a library
``threads`` is a no-op, ``SYEVR`` is None and numpy solves everything.

Thread policy. The bundled OpenBLAS starts one worker thread per core when it
loads, and that worker busy-waits for about 0.14 s of CPU time before it
sleeps, with no BLAS call waiting for it. OpenBLAS reads its count from the
environment once, at load. So when annealgap is the first to import numpy,
numpy has a bundled OpenBLAS and none of ``THREAD_VARIABLES`` is set, numpy
is loaded here with ``OPENBLAS_NUM_THREADS=1`` (``LOADED_SERIAL``), and the
variable is removed again, so child processes do not inherit it. Every
solve then runs inside ``threads(dim)``, which grants it its count: one
thread up to ``SERIAL_BLAS_MAX_DIM``, where a second thread only spins; above
it one per usable core when the library was loaded here on one thread, and
otherwise the count the library has, as OpenBLAS or the user chose it.
Importing numpy before annealgap, or setting one of the variables, keeps
that count, and a count the user set is never raised. The count is
process-global, so concurrent solves share it: the first to enter saves the
library's count, each sets its own, and the last to leave restores it.
"""

import ctypes
import importlib.util
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

#: Environment variables from which OpenBLAS takes its thread count at load.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: Largest matrix dimension solved on one OpenBLAS thread. Measured on two
#: cores: one thread is faster up to 256, two threads from 512 upward.
SERIAL_BLAS_MAX_DIM = 256


def _bundled_openblas() -> list[Path]:
    """The OpenBLAS libraries numpy bundles, found without importing numpy."""
    try:
        spec = importlib.util.find_spec("numpy")
    except ValueError:  # a numpy module without a spec
        return []
    if spec is None or spec.origin is None:
        return []
    return sorted((Path(spec.origin).resolve().parent.parent / "numpy.libs").glob("*openblas*"))


_LIBRARIES = _bundled_openblas()

#: True when numpy's OpenBLAS was loaded here on one thread.
LOADED_SERIAL = bool(
    _LIBRARIES
    and "numpy" not in sys.modules
    and not any(name in os.environ for name in THREAD_VARIABLES)
)

if LOADED_SERIAL:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

# (get threads, set threads, LAPACKE dsyevr, LAPACK integer) per OpenBLAS build:
# the suffixed scipy-openblas build numpy bundles is ILP64, a plain one LP64.
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_LAPACKE_dsyevr64_", ctypes.c_int64),
    ("openblas_get_num_threads", "openblas_set_num_threads", "LAPACKE_dsyevr", ctypes.c_int),
)


def _openblas():
    """Handles into numpy's bundled OpenBLAS: ((get, set) thread count, dsyevr).

    Either part is None when no bundled library exports it. Called after numpy
    has loaded the library, so the count it started with stands.
    """
    try:
        found = [ctypes.CDLL(str(path)) for path in _LIBRARIES]
    except OSError:  # an unloadable library
        return None, None
    for lib in found:
        for get_name, set_name, syevr_name, lapack_int in _BLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                syevr = getattr(lib, syevr_name, None)
                if syevr is not None:
                    ptr, real = ctypes.c_void_p, ctypes.c_double
                    syevr.restype = lapack_int
                    syevr.argtypes = [
                        ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,
                        lapack_int, ptr, lapack_int, real, real, lapack_int, lapack_int,
                        real, ctypes.POINTER(lapack_int), ptr, ptr, lapack_int, ptr,
                    ]
                return (get, set_), syevr
    return None, None


#: (get, set) of the thread count, and LAPACKE dsyevr; None where not exported.
_BLAS, SYEVR = _openblas()
_lock = threading.Lock()
_users = 0
_saved = 0


def usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def threads(dim: int):
    """The OpenBLAS thread count of one solve of dimension ``dim``, by the policy above."""
    global _users, _saved
    if _BLAS is None or (dim > SERIAL_BLAS_MAX_DIM and not LOADED_SERIAL):
        yield  # no handle, or the library's own count
        return
    count = 1 if dim <= SERIAL_BLAS_MAX_DIM else usable_cores()
    get, set_ = _BLAS
    with _lock:
        if _users == 0:
            _saved = get()
        _users += 1
        if get() != count:
            set_(count)
    try:
        yield
    finally:
        with _lock:
            _users -= 1
            if _users == 0 and get() != _saved:
                set_(_saved)
