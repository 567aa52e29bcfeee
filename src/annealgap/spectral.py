"""Instantaneous-spectrum analysis along an annealing schedule.

One grid scan, ``gap_trace``, diagonalizes H(s) once per point and records the
lowest levels, the E1-E0 gap, the transition element |<E1| dH/ds |E0>|, the
Hellmann-Feynman gap slope and the squared ground-state amplitudes.
``min_gap``, ``detect_anticrossing``, ``epsilon``, ``fit_hyperbola`` and
``overlap_trace`` take that trace as their input; a root search on the gap
slope refines gap minima below the grid step.
Also here: the eigendecomposition contract, the reciprocal-square time
estimate and the two-level hyperbola fit near an anti-crossing.

An interior dip in the gap only counts as an anti-crossing when it is
significant: its floor must undercut the smaller endpoint gap of the trace
by a relative margin of 1% (``DEFAULT_UNDERCUT``). Schedules whose gap
slides down to the final value can carry real but sub-0.1% wiggles on the
way (the two lowest levels never approach closer than their final
separation); the margin keeps those out of reports while leaving genuine
anti-crossings, which undercut the final gap by factors of 10 to 10^4,
untouched.

Every eigensolve goes through ``_solve``. Up to ``SERIAL_BLAS_MAX_DIM`` it
solves with numpy's ``eigh`` on one OpenBLAS thread, where a second thread
only spins, and retries a failed stack one matrix at a time. A scan solves
blocks of grid points of such matrices as stacks, which a pool of one thread
per usable core takes one at a time, and its results equal those of one
solve per point bit for bit. Larger matrices are scanned point by point on
the calling thread, with the library's count and LAPACK's ``dsyevr`` from the
OpenBLAS numpy bundles, which computes only the levels kept, several times
faster; without that library numpy solves them too.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .operators import ScheduleSpec, schedule_matrix
from .problems import _finite, _integer

#: Two ascending levels closer than this, relative to max(1, max |level|) at
#: their point, are treated as degenerate: solver errors scale with ||H||.
DEGENERACY_TOL = 1e-12

#: Relative margin by which a dip must undercut the endpoint gap to count
#: as an anti-crossing.
DEFAULT_UNDERCUT = 0.01

#: Largest matrix dimension solved on one OpenBLAS thread. Measured on two
#: cores: one thread is faster up to 256, two threads from 512 upward.
SERIAL_BLAS_MAX_DIM = 256

#: Bytes of stacked H(s) per block of a scan up to SERIAL_BLAS_MAX_DIM:
#: 32 points at dimension 32, 2 at 128, 1 at 256. Measured on the 5-spin
#: chain sweep on two cores: 128 KiB took 10% more CPU time, 512 KiB 1 MB
#: more peak RSS.
SCAN_BLOCK_BYTES = 256 << 10

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(float).eps)

# (get threads, set threads, LAPACKE dsyevr, LAPACK integer) per OpenBLAS build:
# the suffixed scipy-openblas build numpy bundles is ILP64, a plain one LP64.
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_LAPACKE_dsyevr64_", ctypes.c_int64),
    ("openblas_get_num_threads", "openblas_set_num_threads", "LAPACKE_dsyevr", ctypes.c_int),
)


def _openblas():
    """Handles into numpy's bundled OpenBLAS: ((get, set) thread count, dsyevr).

    Either part is None when no bundled library exports it.
    """
    try:
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        found = [ctypes.CDLL(str(path)) for path in sorted(libs.glob("*openblas*"))]
    except (OSError, TypeError):  # unloadable library, or numpy without a __file__
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


_BLAS, _SYEVR = _openblas()
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 0


@contextmanager
def _serial_blas(dim: int):
    """One OpenBLAS thread for a solve when ``dim <= SERIAL_BLAS_MAX_DIM``.

    The count is process-global, so concurrent solves share it: the first to
    enter saves the library's count and the last to leave restores it. A
    no-op without a bundled OpenBLAS or for larger matrices.
    """
    global _blas_users, _blas_saved
    if _BLAS is None or dim > SERIAL_BLAS_MAX_DIM:
        yield
        return
    get, set_ = _BLAS
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            set_(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                set_(_blas_saved)


class EigensolverError(RuntimeError):
    """Diagonalization did not converge."""


class DegenerateLevelsError(RuntimeError):
    """The two lowest levels coincide where a nondegenerate pair is required."""


class FitWindowError(ValueError):
    """Too few trace points around the requested center for a fit."""


def _failure(s: Optional[float], detail: str) -> EigensolverError:
    """The error of a failed solve, naming s when known.

    Built only on failure, for one matrix and its own s.
    """
    where = "" if s is None else f" at s={s}"
    return EigensolverError(f"eigendecomposition failed{where}: {detail}")


def _solve(matrix: np.ndarray, s: Optional[float] = None, *, keep: int):
    """The ``keep`` lowest levels, with eigenvectors as columns.

    Above ``SERIAL_BLAS_MAX_DIM`` LAPACK's dsyevr computes only the requested
    levels of one matrix, overwriting ``matrix``; otherwise ``eigh`` solves
    the whole spectrum of a matrix or of a (B, dim, dim) stack on one OpenBLAS
    thread, one result per matrix. A failed stack is solved again matrix by
    matrix, each with its entry of ``s``, so the first failing one raises
    EigensolverError naming its s, as any LAPACK failure does.
    """
    dim = matrix.shape[-1]
    one_large = matrix.ndim == 2 and dim > SERIAL_BLAS_MAX_DIM
    if _SYEVR is not None and one_large:
        matrix = np.require(matrix, np.float64, ["C", "W"])  # copies only a read-only input
        lapack_int = _SYEVR.restype
        found = lapack_int()
        w = np.empty(dim)
        v = np.empty((keep, dim))
        support = np.empty(2 * keep, dtype=np.dtype(lapack_int))
        # Column-major (102) reads the C-ordered symmetric array unchanged and
        # writes each eigenvector contiguously, as one row of ``v``.
        info = _SYEVR(
            102, b"V", b"I", b"L", dim, matrix.ctypes.data, dim, 0.0, 0.0, 1, keep,
            0.0, ctypes.byref(found), w.ctypes.data, v.ctypes.data, dim, support.ctypes.data,
        )
        if info or found.value != keep:
            raise _failure(s, f"dsyevr returned info={info} with {found.value} of {keep} levels")
        return w[:keep], v.T
    try:
        with _serial_blas(dim):
            w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        if matrix.ndim == 2:
            raise _failure(s, str(exc)) from exc
        solved = [_solve(one, point, keep=keep) for one, point in zip(matrix, s)]
        return tuple(np.stack(part) for part in zip(*solved))
    return w[..., :keep], v[..., :keep]


@dataclass(frozen=True)
class SpectralTrace:
    """What ``gap_trace`` scanned: the lowest levels of H(s) on an ascending grid.

    Per grid point it holds the ascending ``levels``, |<E1| dH/ds |E0>|
    (``element``), the squared ground-state amplitudes (``ground_weights``,
    2^n per row) and the Hellmann-Feynman gap slope
    dGap/ds = <E1| dH/ds |E1> - <E0| dH/ds |E0> (``slope``).
    """

    grid: np.ndarray
    levels: np.ndarray
    schedule: ScheduleSpec
    element: np.ndarray
    ground_weights: np.ndarray
    slope: np.ndarray

    @property
    def gap(self) -> np.ndarray:
        """E1 - E0 per grid point."""
        return self.levels[:, 1] - self.levels[:, 0]


class MinGapResult(NamedTuple):
    s_star: float
    delta_min: float
    interior: bool


class AntiCrossing(NamedTuple):
    s: float
    gap: float


@dataclass(frozen=True)
class HyperbolaFit:
    """Two-level hyperbola parameters near an anti-crossing.

    ``a`` is the difference and ``b`` the mean of the asymptote slopes;
    ``e_center`` the level mean at the crossing point. ``residual`` is the
    RMS misfit of both branches over the fitted window.
    """

    a: float
    b: float
    e_center: float
    residual: float
    points: int


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solve_points(sched: ScheduleSpec, s: float | np.ndarray, keep: int):
    """Levels, |<E1| dH/ds |E0>|, ground weights and gap slope at one s or a 1-D block of s.

    A block is assembled and solved as one stack, and dH/ds is applied to the
    kept eigenvectors of all its points at once. Nothing 2^n x 2^n outlives
    the call: at n = 10, keeping a full eigenvector matrix or a dH/ds alive
    raises the peak RSS by 8%.
    """
    w, v = _solve(schedule_matrix(sched, s), s, keep=keep)
    v0, v1 = v[..., 0], v[..., 1]
    dh = schedule_matrix(sched, s, derivative=True)
    row = v1[..., None, :] @ dh
    element = np.abs(row @ v0[..., None])[..., 0, 0]
    slope = (row @ v1[..., None] - v0[..., None, :] @ dh @ v0[..., None])[..., 0, 0]
    return w, element, v0 ** 2, slope


def _scan(sched: ScheduleSpec, grid: np.ndarray, keep: int) -> SpectralTrace:
    """One eigendecomposition of H(s) per grid point, keeping ``keep`` levels.

    The grid is cut into blocks whose stacked H(s) fill ``SCAN_BLOCK_BYTES``,
    one point each above ``SERIAL_BLAS_MAX_DIM``. Up to that dimension a pool
    of one thread per usable core takes the blocks one at a time; numpy
    releases the GIL inside a stacked solve, so the blocks overlap. With one
    worker (one block, one core, or a larger matrix, where dsyevr and the
    library's own BLAS threads do the work) the calling thread solves the
    blocks itself. Results are drained in grid order, so a
    failure reports the first failing s, and do not depend on the thread count.
    """
    dim = 1 << sched.n
    size = max(1, SCAN_BLOCK_BYTES // (8 * dim * dim))
    starts = range(0, len(grid), size)
    workers = min(_usable_cores(), len(starts)) if dim <= SERIAL_BLAS_MAX_DIM else 1
    table = np.empty((len(grid), keep))
    element = np.empty(len(grid))
    weights = np.empty((len(grid), dim))
    slope = np.empty(len(grid))

    def solve_block(start: int) -> None:
        points = slice(start, start + size)
        s = grid[points] if size > 1 else grid[start]
        table[points], element[points], weights[points], slope[points] = (
            _solve_points(sched, s, keep)
        )

    # One worker solves on the calling thread: a pool thread's own malloc
    # arena would keep its freed 2^n x 2^n arrays (+21% peak RSS at n = 10).
    with ThreadPoolExecutor(workers) as pool:
        for _ in (pool.map if workers > 1 else map)(solve_block, starts):
            pass
    return SpectralTrace(grid, table, sched, element, weights, slope)


def gap_trace(
    sched: ScheduleSpec, grid_points: int = 2001, levels: int = 6
) -> SpectralTrace:
    """Diagonalize H(s) on a uniform grid over [0, 1] including both endpoints."""
    if _integer(grid_points, "grid_points") < 2:
        raise ValueError(f"grid must hold at least 2 points, got {grid_points}")
    if _integer(levels, "levels") < 2:
        raise ValueError(f"levels must be at least 2, got {levels}")
    return _scan(sched, np.linspace(0.0, 1.0, grid_points), min(int(levels), 1 << sched.n))


def _check_nondegenerate(trace: SpectralTrace, message: str) -> None:
    """Raise DegenerateLevelsError at the first grid point where E0 and E1 coincide."""
    scale = np.maximum(1.0, np.abs(trace.levels).max(axis=1))
    hits = np.flatnonzero(trace.gap < DEGENERACY_TOL * scale)
    if hits.size:
        raise DegenerateLevelsError(message.format(s=trace.grid[hits[0]]))


def _zeroin(f, a: float, b: float, fa: float, fb: float, xtol: float) -> None:
    """Narrow a sign change of ``f`` between ``a`` and ``b`` to a bracket of width ``xtol``.

    Brent's zeroin (Algorithms for Minimization without Derivatives, 1973,
    ch. 4): an inverse quadratic or secant step when it stays well inside the
    bracket and shrinks it fast enough, a bisection otherwise, and never a
    step shorter than about ``xtol / 2``. ``fa`` and ``fb`` are f(a) and f(b),
    of opposite signs; the caller keeps what ``f`` saw.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return
        interpolate = abs(e) >= tol and abs(fa) > abs(fb)
        if interpolate:
            r3 = fb / fa
            if a == c:
                p, q = 2.0 * half * r3, 1.0 - r3
            else:
                q, r = fa / fc, fb / fc
                p = r3 * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (r3 - 1.0)
            q = -q if p > 0.0 else q
            p = abs(p)
            interpolate = 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q))
        e, d = (d, p / q) if interpolate else (half, half)
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(b)


def _golden(f, lo: float, hi: float, xtol: float) -> None:
    """Golden-section search for a minimum of ``f`` on [lo, hi], down to width ``xtol``.

    Never below 4 ulps of 1, where a bracket in [0, 1] stops shrinking. The
    caller keeps what ``f`` saw.
    """
    xtol = max(xtol, 4.0 * _EPS)
    c = hi - _INV_GOLD * (hi - lo)
    d = lo + _INV_GOLD * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xtol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLD * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLD * (hi - lo)
            fd = f(d)


def _refine(trace: SpectralTrace, k: int, s_tol: float) -> tuple[float, float]:
    """Minimum of the gap between the grid neighbours of index k, to ``s_tol`` in s.

    When the scanned gap slopes at the two bracket ends are negative and then
    positive, the minimum is the root of the slope there, and Brent's root
    search finds it in a few evaluations. Otherwise a golden-section search
    of the gap shrinks the bracket. Each evaluation solves H(s) once through
    the scan's ``_solve_points`` and ``_solve``. Returns the best point
    evaluated, or grid point k itself when no evaluation undercuts its gap.
    """
    if not _finite(s_tol, "s_tol") > 0:
        raise ValueError(f"s_tol must be positive and finite, got {s_tol}")
    grid, sched, slopes = trace.grid, trace.schedule, trace.slope
    best = float(grid[k]), float(trace.gap[k])
    lo, hi = max(k - 1, 0), min(k + 1, len(grid) - 1)

    def ev(x: float) -> tuple[float, float]:
        """Gap and gap slope at x, keeping the smallest gap seen."""
        nonlocal best
        w, _, _, slope = _solve_points(sched, x, 2)
        gap = float(w[1] - w[0])
        if gap < best[1]:
            best = float(x), gap
        return gap, float(slope)

    if slopes[lo] < 0.0 < slopes[hi]:
        _zeroin(lambda x: ev(x)[1], grid[lo], grid[hi], slopes[lo], slopes[hi], s_tol)
    else:
        _golden(lambda x: ev(x)[0], grid[lo], grid[hi], s_tol)
    return best


def min_gap(trace: SpectralTrace, s_tol: float = 1e-6) -> MinGapResult:
    """Locate the minimum of E1(s) - E0(s).

    The smallest traced gap is refined between its grid neighbours down to an
    s-error of at most ``s_tol``: by Brent's root search on the scanned gap
    slope where that slope changes sign across the bracket, by golden-section
    search otherwise. The refined value never exceeds any scanned gap.
    ``interior`` is True only when the minimum sits away from the schedule
    ends and undercuts the endpoint gap by more than ``DEFAULT_UNDERCUT`` (a
    significant anti-crossing); shallow end-of-schedule minima are reported
    with interior=False.
    """
    gaps = trace.gap
    s_star, delta = _refine(trace, int(np.argmin(gaps)), s_tol)
    significant = delta < (1.0 - DEFAULT_UNDERCUT) * min(gaps[0], gaps[-1])
    interior = significant and s_tol < s_star < 1.0 - s_tol
    return MinGapResult(s_star, delta, bool(interior))


def detect_anticrossing(trace: SpectralTrace, s_tol: float = 1e-6) -> list[AntiCrossing]:
    """All significant interior local minima of the gap, refined like min_gap.

    A strict interior local minimum of the traced gap qualifies only when its
    refined floor undercuts the smaller endpoint gap by more than
    ``DEFAULT_UNDERCUT``; an empty list means the gap is monotone, minimized
    only at an endpoint, or dips by less than the margin.
    """
    gaps = trace.gap
    threshold = (1.0 - DEFAULT_UNDERCUT) * min(gaps[0], gaps[-1])
    minima = [k for k in range(1, len(gaps) - 1) if gaps[k - 1] > gaps[k] < gaps[k + 1]]
    refined = [_refine(trace, k, s_tol) for k in minima]
    return [AntiCrossing(s, g) for s, g in refined if g < threshold]


def epsilon(trace: SpectralTrace) -> float:
    """Largest transition element max_s |<E1(s)| dH/ds |E0(s)>| over the grid.

    The element is taken as it stands, not divided by the gap: it is the
    numerator epsilon of the adiabatic condition T >> epsilon / Delta^2. The
    gap-normalised element |<E1| dH/ds |E0>| / (E1 - E0) is a different
    quantity and is not what this returns.

    The grid around the arg-max is refined once at ten times the resolution.
    Raises DegenerateLevelsError when E0 and E1 coincide at an evaluation
    point, where the matrix element is not basis-independent.
    """
    degenerate = "E0 and E1 are degenerate at s={s}; transition element undefined"
    _check_nondegenerate(trace, degenerate)
    grid = trace.grid
    i = int(np.argmax(trace.element))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    fine = _scan(trace.schedule, np.linspace(lo, hi, 21), 2)
    _check_nondegenerate(fine, degenerate)
    return float(max(trace.element[i], fine.element.max()))


def t_approx(delta_min: float) -> float:
    """Order-of-magnitude annealing-time proxy: the reciprocal squared gap."""
    if not delta_min > 0:  # NaN too
        raise ValueError(f"delta_min must be positive, got {delta_min}")
    try:
        return _finite(delta_min, "delta_min") ** -2
    except OverflowError:  # 1 / delta_min^2 beyond the float range
        raise ValueError(f"delta_min is too small for 1/delta_min^2, got {delta_min}") from None


def fit_hyperbola(
    trace: SpectralTrace,
    s_star: float,
    delta_min: float,
    window: float = 0.05,
) -> HyperbolaFit:
    """Least-squares hyperbola through the two lowest levels around s_star.

    Model: E+-(s) = E(s*) + B (s - s*) +- (1/2) sqrt(Dmin^2 + A^2 (s - s*)^2)
    with Dmin held fixed at the supplied minimum gap. The mean of the two
    branches determines (E(s*), B) by linear least squares; the squared
    branch difference determines A^2 by least squares through the origin.
    A residual above 10% of ``delta_min`` triggers a warning rather than an
    exception. ``s_star`` must be finite and ``delta_min`` finite and >= 0.
    """
    _finite(s_star, "s_star")
    if not _finite(delta_min, "delta_min") >= 0:
        raise ValueError(f"delta_min must be >= 0, got {delta_min}")
    grid = trace.grid
    sel = np.abs(grid - s_star) <= window
    points = int(np.count_nonzero(sel))
    if points < 5:
        raise FitWindowError(
            f"window +-{window} around s={s_star} holds {points} trace points; "
            "at least 5 are required"
        )
    x = grid[sel] - s_star
    e0 = trace.levels[sel, 0]
    e1 = trace.levels[sel, 1]

    mean = (e0 + e1) / 2.0
    design = np.column_stack([np.ones_like(x), x])
    (e_center, slope_mean), *_ = np.linalg.lstsq(design, mean, rcond=None)

    squared_excess = (e1 - e0) ** 2 - delta_min ** 2
    x2 = x * x
    quartic = float(np.dot(x2, x2))
    a_sq = float(np.dot(x2, squared_excess) / quartic) if quartic > 0 else 0.0
    a_sq = max(a_sq, 0.0)

    half = 0.5 * np.sqrt(delta_min ** 2 + a_sq * x2)
    center_line = e_center + slope_mean * x
    res = np.concatenate([center_line - half - e0, center_line + half - e1])
    residual = float(np.sqrt(np.mean(res ** 2)))
    if residual > 0.1 * delta_min:
        warnings.warn(
            f"hyperbola fit residual {residual:.3e} exceeds "
            f"10% of the minimum gap {delta_min:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return HyperbolaFit(
        a=float(math.sqrt(a_sq)),
        b=float(slope_mean),
        e_center=float(e_center),
        residual=residual,
        points=points,
    )
