"""OpenBLAS's thread count at load: one thread, unless someone else chose.

The OpenBLAS that numpy bundles starts one worker thread per core when it
loads, and that worker busy-waits for about 0.14 s of CPU time before it
sleeps, with no BLAS call waiting for it. OpenBLAS reads its count from the
environment once, at load. So when annealgap is the first to import numpy,
numpy has a bundled OpenBLAS and none of ``THREAD_VARIABLES`` is set, numpy
is loaded here with ``OPENBLAS_NUM_THREADS=1``, and the variable is removed
again, so child processes do not inherit it. ``spectral._blas_threads`` then
grants each solve its count. Importing numpy before annealgap, or setting one
of the variables, keeps the library's own count.
"""

import importlib.util
import os
import sys
from pathlib import Path

#: Environment variables from which OpenBLAS takes its thread count at load.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _bundled_openblas() -> list[Path]:
    """The OpenBLAS libraries numpy bundles, found without importing numpy."""
    try:
        spec = importlib.util.find_spec("numpy")
    except ValueError:  # a numpy module without a spec
        return []
    if spec is None or spec.origin is None:
        return []
    return sorted((Path(spec.origin).resolve().parent.parent / "numpy.libs").glob("*openblas*"))


#: numpy's bundled OpenBLAS libraries, for ``spectral._openblas``.
LIBRARIES = _bundled_openblas()

#: True when numpy's OpenBLAS was loaded here on one thread.
LOADED_SERIAL = bool(
    LIBRARIES
    and "numpy" not in sys.modules
    and not any(name in os.environ for name in THREAD_VARIABLES)
)

if LOADED_SERIAL:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
