"""Instantaneous-spectrum analysis along an annealing schedule.

One grid scan, ``gap_trace``, diagonalizes H(s) once per point and records the
lowest levels, the E1-E0 gap, the transition element |<E1| dH/ds |E0>| and the
squared ground-state amplitudes. ``min_gap``, ``detect_anticrossing``,
``epsilon``, ``overlap_trace`` and ``anticrossing_report`` take that trace as
their input; a golden-section search refines gap minima below the grid step.
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

Scans and refinements of matrices up to ``SERIAL_BLAS_MAX_DIM`` run on one
OpenBLAS thread, where a second thread only spins, and then restore the
library's thread count; they solve the whole spectrum with numpy's ``eigh``
or ``eigvalsh``. Such a scan solves blocks of grid points as stacks, one
contiguous run of blocks per usable core, and its results equal those of one
solve per point bit for bit. Larger matrices are scanned point by point with
the library's count and LAPACK's ``dsyevr`` from the OpenBLAS numpy bundles,
which computes only the levels kept, several times faster; without that
library numpy solves them too.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .operators import ScheduleSpec, schedule_matrix

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
    """One OpenBLAS thread for the block when ``dim <= SERIAL_BLAS_MAX_DIM``.

    The count is process-global, so concurrent blocks share it: the first to
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

    Built only on failure: formatting a block of s costs about 0.3 ms.
    """
    where = "" if s is None else f" at s={s}"
    return EigensolverError(f"eigendecomposition failed{where}: {detail}")


def _solve(
    matrix: np.ndarray, s: Optional[float] = None, vectors: bool = True, *, keep: int
):
    """The ``keep`` lowest levels, with eigenvectors as columns.

    Above ``SERIAL_BLAS_MAX_DIM`` LAPACK's dsyevr computes only the requested
    levels of one matrix, overwriting ``matrix``; otherwise ``eigh`` or
    ``eigvalsh`` solves the whole spectrum of a matrix or of a (B, dim, dim)
    stack, one result per matrix. Any LAPACK failure raises EigensolverError
    naming s.
    """
    dim = matrix.shape[-1]
    one_large = matrix.ndim == 2 and dim > SERIAL_BLAS_MAX_DIM
    if _SYEVR is not None and one_large:
        matrix = np.require(matrix, np.float64, ["C", "W"])  # copies only a read-only input
        lapack_int = _SYEVR.restype
        found = lapack_int()
        w = np.empty(dim)
        v = np.empty((keep, dim)) if vectors else None
        support = np.empty(2 * keep, dtype=np.dtype(lapack_int))
        # Column-major (102) reads the C-ordered symmetric array unchanged and
        # writes each eigenvector contiguously, as one row of ``v``.
        info = _SYEVR(
            102, b"V" if vectors else b"N", b"I", b"L", dim, matrix.ctypes.data, dim,
            0.0, 0.0, 1, keep, 0.0, ctypes.byref(found), w.ctypes.data,
            None if v is None else v.ctypes.data, dim, support.ctypes.data,
        )
        if info or found.value != keep:
            raise _failure(s, f"dsyevr returned info={info} with {found.value} of {keep} levels")
        return (w[:keep], v.T) if vectors else w[:keep]
    try:
        if not vectors:
            return np.linalg.eigvalsh(matrix)[..., :keep]
        w, v = np.linalg.eigh(matrix)
        return w[..., :keep], v[..., :keep]
    except np.linalg.LinAlgError as exc:
        raise _failure(s, str(exc)) from exc


@dataclass(frozen=True)
class SpectralTrace:
    """Lowest levels on an ascending grid of s values.

    ``gap`` is E1 - E0 per point, ``levels[:, 1] - levels[:, 0]``, computed
    once at construction. A scanned trace also holds, per point,
    |<E1| dH/ds |E0>| (``element``) and the squared ground-state amplitudes
    (``ground_weights``, 2^n per row).
    """

    grid: np.ndarray
    levels: np.ndarray
    gap: np.ndarray = field(init=False)
    schedule: Optional[ScheduleSpec] = None
    element: Optional[np.ndarray] = None
    ground_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        levels = np.asarray(self.levels, dtype=float)
        if grid.ndim != 1 or len(grid) < 2:
            raise ValueError("trace grid must hold at least two points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("trace grid must be strictly ascending")
        if levels.ndim != 2 or levels.shape[0] != len(grid) or levels.shape[1] < 2:
            raise ValueError("levels must have one row per grid point and >= 2 columns")
        if np.any(np.diff(levels, axis=1) < 0):
            raise ValueError("levels must be ascending at every grid point")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "gap", levels[:, 1] - levels[:, 0])


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


@dataclass(frozen=True)
class AntiCrossingReport:
    """Minimum-gap summary of one schedule."""

    s_star: float
    delta_min: float
    interior: bool
    epsilon: float
    t_approx: float
    hyperbola: Optional[HyperbolaFit] = None


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solve_points(sched: ScheduleSpec, s: float | np.ndarray, keep: int):
    """Levels, |<E1| dH/ds |E0>| and ground weights at one s or a 1-D block of s.

    A block is assembled and solved as one stack. When its solve fails, the
    block is solved again point by point and built from those results, so
    the first point that fails raises an EigensolverError naming its s; a
    single point is not solved twice. Nothing 2^n x 2^n outlives the call:
    at n = 10, keeping a full eigenvector matrix or a dH/ds alive raises the
    peak RSS by 8%.
    """
    try:
        w, v = _solve(schedule_matrix(sched, s), s, keep=keep)
    except EigensolverError:
        if np.ndim(s) == 0:
            raise
        points = [_solve_points(sched, point, keep) for point in s]
        return tuple(np.stack(part) for part in zip(*points))
    v0, v1 = v[..., 0], v[..., 1]
    dh = schedule_matrix(sched, s, derivative=True)
    element = np.abs(v1[..., None, :] @ dh @ v0[..., None])[..., 0, 0]
    return w, element, v0 ** 2


def _scan(sched: ScheduleSpec, grid: np.ndarray, keep: int) -> SpectralTrace:
    """One eigendecomposition of H(s) per grid point, keeping ``keep`` levels.

    Up to ``SERIAL_BLAS_MAX_DIM`` the grid is cut into blocks whose stacked
    H(s) fill ``SCAN_BLOCK_BYTES``, and the blocks into one contiguous run per
    usable core: the calling thread takes the first run and pool threads the
    rest, all on one OpenBLAS thread. numpy releases the GIL inside a stacked
    solve, so the runs overlap. Larger matrices are solved one point at a
    time on the calling thread, where dsyevr and the library's own BLAS
    threads do the work. The results do not depend on the number of threads.
    """
    dim = 1 << sched.n
    blocked = dim <= SERIAL_BLAS_MAX_DIM
    size = max(1, SCAN_BLOCK_BYTES // (8 * dim * dim)) if blocked else 1
    starts = range(0, len(grid), size)
    workers = min(_usable_cores(), len(starts)) if blocked else 1
    runs = [starts[i * len(starts) // workers:(i + 1) * len(starts) // workers]
            for i in range(workers)]
    table = np.empty((len(grid), keep))
    element = np.empty(len(grid))
    weights = np.empty((len(grid), dim))

    def run(part: range) -> None:
        for start in part:
            points = slice(start, start + size)
            s = grid[points] if size > 1 else grid[start]
            table[points], element[points], weights[points] = _solve_points(sched, s, keep)

    # With one run the pool stays empty: an executor starts threads on submit.
    with _serial_blas(dim), ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        later = [pool.submit(run, part) for part in runs[1:]]
        run(runs[0])
        # Read in grid order, so a failure reports the first failing s.
        for future in later:
            future.result()
    return SpectralTrace(grid, table, sched, element, weights)


def gap_trace(
    sched: ScheduleSpec, grid_points: int = 2001, levels: int = 6
) -> SpectralTrace:
    """Diagonalize H(s) on a uniform grid over [0, 1] including both endpoints."""
    if grid_points < 2:
        raise ValueError(f"grid must hold at least 2 points, got {grid_points}")
    keep = max(2, min(levels, 1 << sched.n))
    return _scan(sched, np.linspace(0.0, 1.0, grid_points), keep)


def _scanned(trace: SpectralTrace, caller: str) -> ScheduleSpec:
    """The schedule of a trace scanned by gap_trace; ValueError for a hand-built one."""
    if trace.schedule is None or trace.element is None or trace.ground_weights is None:
        raise ValueError(f"{caller} needs a trace scanned by gap_trace")
    return trace.schedule


def _check_nondegenerate(trace: SpectralTrace, message: str) -> None:
    """Raise DegenerateLevelsError at the first grid point where E0 and E1 coincide."""
    scale = np.maximum(1.0, np.abs(trace.levels).max(axis=1))
    hits = np.flatnonzero(trace.gap < DEGENERACY_TOL * scale)
    if hits.size:
        raise DegenerateLevelsError(message.format(s=trace.grid[hits[0]]))


def _refine(
    sched: Optional[ScheduleSpec], grid: np.ndarray, gaps: np.ndarray, k: int, s_tol: float
) -> tuple[float, float]:
    """Golden-section minimum of the gap between the grid neighbours of index k.

    Returns the best point evaluated, or grid point k itself when no
    evaluation undercuts its gap or there is no schedule to evaluate.
    """
    if not (math.isfinite(s_tol) and s_tol > 0):
        raise ValueError(f"s_tol must be positive and finite, got {s_tol}")
    best_s, best_g = float(grid[k]), float(gaps[k])
    if sched is None:
        return best_s, best_g
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]

    def ev(x: float) -> float:
        nonlocal best_s, best_g
        w = _solve(schedule_matrix(sched, x), x, vectors=False, keep=2)
        g = float(w[1] - w[0])
        if g < best_g:
            best_s, best_g = float(x), g
        return g

    with _serial_blas(1 << sched.n):
        c = hi - _INV_GOLD * (hi - lo)
        d = lo + _INV_GOLD * (hi - lo)
        fc, fd = ev(c), ev(d)
        while hi - lo > s_tol:
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - _INV_GOLD * (hi - lo)
                fc = ev(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + _INV_GOLD * (hi - lo)
                fd = ev(d)
    return best_s, best_g


def min_gap(trace: SpectralTrace, s_tol: float = 1e-6) -> MinGapResult:
    """Locate the minimum of E1(s) - E0(s).

    The smallest traced gap is refined by golden-section search of the
    bracketing interval down to an s-error of at most ``s_tol``; the refined
    value never exceeds any scanned gap. ``interior`` is True only when the
    minimum sits away from the schedule ends and undercuts the endpoint gap
    by more than ``DEFAULT_UNDERCUT`` (a significant anti-crossing); shallow
    end-of-schedule minima are reported with interior=False. Refinement
    falls back to grid values when the trace carries no schedule.
    """
    gaps = trace.gap
    s_star, delta = _refine(trace.schedule, trace.grid, gaps, int(np.argmin(gaps)), s_tol)
    significant = delta < (1.0 - DEFAULT_UNDERCUT) * min(gaps[0], gaps[-1])
    interior = significant and s_tol < s_star < 1.0 - s_tol
    return MinGapResult(s_star, delta, bool(interior))


def detect_anticrossing(trace: SpectralTrace, s_tol: float = 1e-6) -> list[AntiCrossing]:
    """All significant interior local minima of the gap, refined like min_gap.

    A strict interior local minimum of the traced gap qualifies only when its
    refined floor undercuts the smaller endpoint gap by more than
    ``DEFAULT_UNDERCUT``; an empty list means the gap is monotone, minimized
    only at an endpoint, or dips by less than the margin. Refinement
    re-evaluates the schedule when the trace carries one, and falls back to
    grid values otherwise.
    """
    gaps = trace.gap
    threshold = (1.0 - DEFAULT_UNDERCUT) * min(gaps[0], gaps[-1])
    minima = [k for k in range(1, len(gaps) - 1) if gaps[k - 1] > gaps[k] < gaps[k + 1]]
    refined = [_refine(trace.schedule, trace.grid, gaps, k, s_tol) for k in minima]
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
    sched = _scanned(trace, "epsilon")
    degenerate = "E0 and E1 are degenerate at s={s}; transition element undefined"
    _check_nondegenerate(trace, degenerate)
    grid = trace.grid
    i = int(np.argmax(trace.element))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    fine = _scan(sched, np.linspace(lo, hi, 21), 2)
    _check_nondegenerate(fine, degenerate)
    return float(max(trace.element[i], fine.element.max()))


def t_approx(delta_min: float) -> float:
    """Order-of-magnitude annealing-time proxy: the reciprocal squared gap."""
    if delta_min <= 0:
        raise ValueError(f"delta_min must be positive, got {delta_min}")
    return delta_min ** -2


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
    exception.
    """
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


def anticrossing_report(trace: SpectralTrace, s_tol: float = 1e-6) -> AntiCrossingReport:
    """Minimum gap, adiabatic numerator, time estimate, and hyperbola of one trace."""
    located = min_gap(trace, s_tol)
    eps = epsilon(trace)
    hyperbola = None
    if located.interior:
        hyperbola = fit_hyperbola(trace, located.s_star, located.delta_min)
    return AntiCrossingReport(
        s_star=located.s_star,
        delta_min=located.delta_min,
        interior=located.interior,
        epsilon=eps,
        t_approx=t_approx(located.delta_min),
        hyperbola=hyperbola,
    )
