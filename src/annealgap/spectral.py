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

Every eigensolve goes through ``_solve``, one matrix at a time on the OpenBLAS
threads ``_blas`` grants it: LAPACK's ``dsyevr`` for the kept levels, numpy's
``eigh`` at s = 0 and s = 1 up to ``SERIAL_BLAS_MAX_DIM`` and wherever numpy
bundles no ``dsyevr``. A scan assembles blocks of grid points as stacks, which
a pool of one thread per usable core takes one at a time; its results equal
those of one solve per point bit for bit.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _blas
from ._blas import SERIAL_BLAS_MAX_DIM
from .operators import ScheduleSpec, schedule_matrix
from .problems import _finite, _integer

#: Two ascending levels closer than this, relative to max(1, max |level|) at
#: their point, are treated as degenerate: solver errors scale with ||H||.
DEGENERACY_TOL = 1e-12

#: Relative margin by which a dip must undercut the endpoint gap to count
#: as an anti-crossing.
DEFAULT_UNDERCUT = 0.01

#: Bytes of stacked H(s) per block of a scan up to SERIAL_BLAS_MAX_DIM:
#: 32 points at dimension 32, 2 at 128, 1 at 256. Measured on the 5-spin
#: chain sweep on two cores: 128 KiB took 10% more CPU time, 512 KiB 1 MB
#: more peak RSS.
SCAN_BLOCK_BYTES = 256 << 10

_EPS = float(np.finfo(float).eps)


class EigensolverError(RuntimeError):
    """Diagonalization did not converge."""


class DegenerateLevelsError(RuntimeError):
    """The two lowest levels coincide where a nondegenerate pair is required."""


class FitWindowError(ValueError):
    """Too few trace points around the requested center for a fit."""


def _failure(s: float, detail: str) -> EigensolverError:
    """The error of a failed solve of one matrix, naming its s."""
    return EigensolverError(f"eigendecomposition failed at s={s}: {detail}")


def _degenerate(spacing: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Where ``spacing`` is below DEGENERACY_TOL x max(1, max |level|) of its row of ``levels``."""
    return spacing < DEGENERACY_TOL * np.maximum(1.0, np.abs(levels).max(axis=-1))


def _solve(matrix: np.ndarray, s: float | np.ndarray, *, keep: int):
    """The ``keep`` lowest levels, with eigenvectors as columns, of a matrix or a stack at ``s``.

    Each matrix is solved once, on the OpenBLAS threads ``_blas`` grants its
    dimension, by LAPACK's dsyevr, which computes only the levels asked for
    and overwrites the matrix. numpy's ``eigh`` solves it instead where no
    bundled dsyevr exists, and up to ``SERIAL_BLAS_MAX_DIM`` at s = 0 or
    s = 1, so those ends keep the vectors a full solve gives: there H is the
    driver, whose E1 is n-fold degenerate, or the diagonal problem, whose
    energies may tie. Anywhere in between a degeneracy takes a symmetry (von
    Neumann and Wigner, 1929), and dsyevr's pick within it stands. The first
    failing matrix raises EigensolverError naming its own entry of ``s``.
    """
    dim = matrix.shape[-1]
    # Copies only a read-only input.
    stack = np.require(matrix.reshape(-1, dim, dim), np.float64, ["C", "W"])
    syevr = _blas.SYEVR
    w = np.empty((len(stack), dim))  # dsyevr may use all dim entries of each row
    v = np.empty((len(stack), keep, dim))
    a_ptr, w_ptr, v_ptr = (x.ctypes.data for x in (stack, w, v))
    if syevr is not None:
        found = syevr.restype()
        found_ref = ctypes.byref(found)
        support = np.empty(2 * keep, dtype=np.dtype(syevr.restype))
        support_ptr = support.ctypes.data
    with _blas.threads(dim):
        for i, point in enumerate(np.ravel(s).tolist()):
            if syevr is None or (dim <= SERIAL_BLAS_MAX_DIM and point in (0.0, 1.0)):
                try:
                    levels, vectors = np.linalg.eigh(stack[i])
                except np.linalg.LinAlgError as exc:
                    raise _failure(point, str(exc)) from exc
                w[i, :keep], v[i] = levels[:keep], vectors[:, :keep].T
                continue
            found.value = 0
            # Column-major (102) reads the C-ordered symmetric matrix unchanged and
            # writes each eigenvector contiguously, as one row of ``v[i]``.
            info = syevr(
                102, b"V", b"I", b"L", dim, a_ptr + i * stack.strides[0], dim, 0.0, 0.0, 1,
                keep, 0.0, found_ref, w_ptr + i * w.strides[0], v_ptr + i * v.strides[0],
                dim, support_ptr,
            )
            if info or found.value != keep:
                detail = f"dsyevr returned info={info} with {found.value} of {keep} levels"
                raise _failure(point, detail)
    # Columns of a C-ordered array, as eigh gives them: numpy's matmul then
    # sums the dH/ds products in the same order, so an end point's element
    # and slope equal eigh's bit for bit.
    vectors = np.ascontiguousarray(v.swapaxes(1, 2))
    shape = matrix.shape[:-2]
    return w[:, :keep].reshape(shape + (keep,)), vectors.reshape(shape + (dim, keep))


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


def _solve_points(sched: ScheduleSpec, s: float | np.ndarray, keep: int):
    """Levels, |<E1| dH/ds |E0>|, ground weights and gap slope at one s or a 1-D block of s.

    A block is assembled as one stack, and dH/ds is applied to the kept
    eigenvectors of all its points at once. Nothing 2^n x 2^n outlives the
    call: at n = 10, keeping a full eigenvector matrix or a dH/ds alive
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
    of one thread per usable core takes the blocks one at a time; ctypes
    releases the GIL inside each dsyevr call, so the blocks overlap. With one
    worker (one block, one core, or a larger matrix, whose solve gets the
    BLAS threads) the calling thread solves the blocks itself. Results are
    drained in grid order, so a failure reports the first failing s, and do
    not depend on the thread count.
    """
    dim = 1 << sched.n
    size = max(1, SCAN_BLOCK_BYTES // (8 * dim * dim))
    starts = range(0, len(grid), size)
    workers = min(_blas.usable_cores(), len(starts)) if dim <= SERIAL_BLAS_MAX_DIM else 1
    table = np.empty((len(grid), keep))
    element = np.empty(len(grid))
    weights = np.empty((len(grid), dim))
    slope = np.empty(len(grid))

    def solve_block(start: int) -> None:
        points = slice(start, start + size)
        table[points], element[points], weights[points], slope[points] = (
            _solve_points(sched, grid[points], keep)
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
    hits = np.flatnonzero(_degenerate(trace.gap, trace.levels))
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


def _fibonacci(f, count: int) -> float:
    """The largest value of ``f`` that a Fibonacci search over ``range(count)`` sees.

    The discrete golden section (Kiefer, Proc. AMS 4, 502, 1953), for a
    maximum: the open bracket (lo, lo + small + large) has a Fibonacci width,
    and of its probes at lo + small and lo + large the better one is a probe
    of the next, narrower bracket. Indices from ``count`` on count as -inf
    and are never evaluated. Where f is unimodal over the indices, the result
    is its maximum. Callers map index j to the sample a + (j + 1) h of a bracket.
    """
    small, large = 1, 1
    while small + large <= count:
        small, large = large, small + large
    seen = {}

    def probe(j: int) -> float:
        if j not in seen:
            seen[j] = f(j) if j < count else -math.inf
        return seen[j]

    lo = -1
    while small < large:
        if probe(lo + small) < probe(lo + large):
            lo += small
        small, large = large - small, small
    return max(probe(lo + 1), *seen.values())


def _refine(trace: SpectralTrace, k: int, s_tol: float) -> tuple[float, float, np.ndarray]:
    """Minimum of the gap between the grid neighbours of index k, to ``s_tol`` in s.

    When the scanned gap slopes at the two bracket ends are negative and then
    positive, the minimum is the root of the slope there, and Brent's root
    search finds it in a few evaluations. Otherwise ``_fibonacci`` searches
    the gap at samples ``s_tol`` apart inside the bracket, as ``epsilon``
    searches its bracket's 19 samples. Each evaluation solves H(s) once
    through the scan's ``_solve_points`` and ``_solve``. Returns s, the gap
    and the levels of the best point evaluated, or of grid point k itself
    when no evaluation undercuts its gap.
    """
    grid, sched, slopes = trace.grid, trace.schedule, trace.slope
    best = float(grid[k]), float(trace.gap[k]), trace.levels[k]
    lo, hi = max(k - 1, 0), min(k + 1, len(grid) - 1)

    def ev(x: float) -> tuple[float, float]:
        """Gap and gap slope at x, keeping the smallest gap seen."""
        nonlocal best
        w, _, _, slope = _solve_points(sched, x, 2)
        gap = float(w[1] - w[0])
        if gap < best[1]:
            best = float(x), gap, w
        return gap, float(slope)

    if slopes[lo] < 0.0 < slopes[hi]:
        _zeroin(lambda x: ev(x)[1], grid[lo], grid[hi], slopes[lo], slopes[hi], s_tol)
    else:  # h never below 4 ulps of 1: closer samples in [0, 1] would round together
        h = max(s_tol, 4.0 * _EPS)
        count = math.ceil((grid[hi] - grid[lo]) / h) - 1
        _fibonacci(lambda j: -ev(grid[lo] + (j + 1) * h)[0], count)
    return best


def _refined_minima(trace: SpectralTrace, indices, s_tol: float) -> list[tuple[float, float, bool]]:
    """(s, gap, significant) of the gap minimum ``_refine`` finds at each grid index.

    A minimum is significant when it undercuts the smaller endpoint gap of
    the trace by more than ``DEFAULT_UNDERCUT``. Raises DegenerateLevelsError
    where a refined gap is below the degeneracy tolerance of its levels: a gap
    that small is rounding noise, not an anti-crossing.
    """
    if not _finite(s_tol, "s_tol") > 0:
        raise ValueError(f"s_tol must be positive and finite, got {s_tol}")
    gaps = trace.gap
    threshold = (1.0 - DEFAULT_UNDERCUT) * min(gaps[0], gaps[-1])
    found = []
    for k in indices:
        s, gap, levels = _refine(trace, k, s_tol)
        if _degenerate(gap, levels):
            raise DegenerateLevelsError(f"E0 and E1 are degenerate at s={s}; minimum gap undefined")
        found.append((s, gap, gap < threshold))
    return found


def min_gap(trace: SpectralTrace, s_tol: float = 1e-6) -> MinGapResult:
    """Locate the minimum of E1(s) - E0(s).

    The smallest traced gap is refined between its grid neighbours down to an
    s-error of at most ``s_tol``: by Brent's root search on the scanned gap
    slope where that slope changes sign across the bracket, by a Fibonacci
    search of samples ``s_tol`` apart otherwise. The refined value never
    exceeds any scanned gap.
    ``interior`` is True only when the minimum sits away from the schedule
    ends and undercuts the endpoint gap by more than ``DEFAULT_UNDERCUT`` (a
    significant anti-crossing); shallow end-of-schedule minima are reported
    with interior=False. Raises DegenerateLevelsError where the refined gap
    is below the degeneracy tolerance of its levels.
    """
    [(s_star, delta, significant)] = _refined_minima(trace, [int(np.argmin(trace.gap))], s_tol)
    interior = significant and s_tol < s_star < 1.0 - s_tol
    return MinGapResult(s_star, delta, bool(interior))


def detect_anticrossing(trace: SpectralTrace, s_tol: float = 1e-6) -> list[AntiCrossing]:
    """All significant interior local minima of the gap, refined like min_gap.

    A strict interior local minimum of the traced gap qualifies only when its
    refined floor undercuts the smaller endpoint gap by more than
    ``DEFAULT_UNDERCUT``; an empty list means the gap is monotone, minimized
    only at an endpoint, or dips by less than the margin. Raises
    DegenerateLevelsError where a refined gap is below the degeneracy
    tolerance of its levels.
    """
    gaps = trace.gap
    minima = [k for k in range(1, len(gaps) - 1) if gaps[k - 1] > gaps[k] < gaps[k + 1]]
    return [AntiCrossing(s, g) for s, g, significant in _refined_minima(trace, minima, s_tol)
            if significant]


def epsilon(trace: SpectralTrace) -> float:
    """Largest transition element max_s |<E1(s)| dH/ds |E0(s)>| over the grid.

    The element is taken as it stands, not divided by the gap: it is the
    numerator epsilon of the adiabatic condition T >> epsilon / Delta^2. The
    gap-normalised element |<E1| dH/ds |E0>| / (E1 - E0) is a different
    quantity and is not what this returns.

    The grid arg-max is refined at ten times the resolution: a Fibonacci
    search of the 19 samples between its grid neighbours solves at most 6 of
    them, and where the element is unimodal across that bracket (as
    ``_refine`` assumes of the gap) it finds the largest of the 19. Raises
    DegenerateLevelsError when E0 and E1 coincide at a grid point or a
    visited sample, where the matrix element is not basis-independent.
    """
    degenerate = "E0 and E1 are degenerate at s={s}; transition element undefined"
    _check_nondegenerate(trace, degenerate)
    grid = trace.grid
    i = int(np.argmax(trace.element))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    h = (hi - lo) / 20

    def ev(j: int) -> float:
        """The element at sample j."""
        s = lo + (j + 1) * h
        w, element, _, _ = _solve_points(trace.schedule, s, 2)
        if _degenerate(w[1] - w[0], w):
            raise DegenerateLevelsError(degenerate.format(s=s))
        return element

    return float(max(trace.element[i], _fibonacci(ev, 19)))


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
    exception. ``s_star`` must be finite, ``delta_min`` finite and >= 0, and
    ``window`` finite and > 0.
    """
    _finite(s_star, "s_star")
    if not _finite(delta_min, "delta_min") >= 0:
        raise ValueError(f"delta_min must be >= 0, got {delta_min}")
    if not _finite(window, "window") > 0:
        raise ValueError(f"window must be positive, got {window}")
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
