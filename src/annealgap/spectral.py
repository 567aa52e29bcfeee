"""Instantaneous-spectrum analysis along an annealing schedule.

One grid scan, ``gap_trace``, diagonalizes H(s) once per point and records the
lowest levels, the E1-E0 gap, the transition element |<E1| dH/ds |E0>|, the
Hellmann-Feynman gap slope and the squared ground-state amplitudes.
``min_gap``, ``detect_anticrossing``, ``epsilon``, ``fit_hyperbola`` and
``overlap_trace`` take that trace as their input; a root search on the gap
slope refines gap minima below the grid step. ``_extrema_trace`` keeps only
the grid points that ``min_gap`` and ``epsilon`` read, found by a
coarse-to-fine search of the grid, each equal to its row of a full scan.
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

``_end`` writes s = 1 and, above ``SERIAL_BLAS_MAX_DIM``, s = 0 in closed form.
Every dense eigensolve goes through ``_solve``, one matrix at a time on the
OpenBLAS threads ``_blas`` grants it: LAPACK's ``dsyevr`` for the kept levels,
numpy's ``eigh`` at s = 0 up to ``SERIAL_BLAS_MAX_DIM`` and wherever numpy
bundles no ``dsyevr``. Below dimension 1024 a scan assembles blocks of grid
points as stacks, which up to ``SERIAL_BLAS_MAX_DIM`` a pool of one thread per
usable core takes one at a time, bit for bit as one solve per point. From
1024 up no matrix is built unless it must be: ``_krylov``, a block Lanczos on
the matrix-free product of ``operators``, finds E0's and E1's vectors and every
kept level to _KRYLOV_TOL on one thread, and solves its small Ritz problems
through ``_solve``. Only where it finds a
degenerate pair, or does not converge, is the dense H(s) solved by ``_solve``.
At every dimension the element and the slope come from the same matrix-free
dH/ds applied to E0's and E1's vectors; dH/ds is never a matrix.
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _blas
from ._blas import SERIAL_BLAS_MAX_DIM
from .operators import ScheduleSpec, _schedule_product, _sigma_table, schedule_matrix
from .problems import _finite, _integer

#: Two ascending levels closer than this, relative to max(1, max |level|) at
#: their point, are treated as degenerate: solver errors scale with ||H||.
DEGENERACY_TOL = 1e-12

#: Relative margin by which a dip must undercut the endpoint gap to count
#: as an anti-crossing.
DEFAULT_UNDERCUT = 0.01

#: Bytes of stacked H(s) per block of a scan up to SERIAL_BLAS_MAX_DIM:
#: 32 points at dimension 32, 2 at 128, 1 at 256. Measured on two cores on
#: the 5-spin chain sweep before its cells searched the grid, when each
#: scanned all 2001 points: 128 KiB took 10% more CPU time, 512 KiB 1 MB
#: more peak RSS. ``analyze`` is the remaining full-grid scan.
SCAN_BLOCK_BYTES = 256 << 10

#: Points of the coarse pass of ``_extrema_trace``'s grid search, ends included.
_COARSE_POINTS = 51

_EPS = float(np.finfo(float).eps)

#: Smallest dimension whose points ``_solve_points`` first hands to ``_krylov``.
#: Per point of a random problem, 6 levels, on a 2-vCPU VM: dsyevr on two
#: threads against ``_krylov`` on one, 11.3 against 11.7 ms at 512, 64
#: against 19 ms at 1024 and 456 against 38 ms at 2048.
_KRYLOV_MIN_DIM = 1024

#: Most basis vectors ``_krylov`` builds, so that each Ritz problem stays on
#: one OpenBLAS thread.
_KRYLOV_BASIS = SERIAL_BLAS_MAX_DIM

#: Relative to max(1, max |level|): the residual norm below which E0's and E1's
#: Ritz pairs have converged, and the error within which every kept level is.
_KRYLOV_TOL = 16 * _EPS

#: Norm of a new residual row, relative to max(1, max |Q_j^T H Q_j|) of the
#: block it continues, below which the residual block has lost rank. On
#: random 10- and 11-spin problems under both drivers the smallest was 0.09.
_RANK_TOL = 1e-8


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

    The one call into LAPACK: a dense H(s), the Ritz problem of ``_krylov``
    at its s, or the coupling matrix of ``_end`` at s = 0. Each matrix is
    solved once, on the OpenBLAS threads ``_blas`` grants its dimension, by
    LAPACK's dsyevr, which computes only the levels asked for and overwrites
    the matrix. numpy's ``eigh`` solves it instead where no bundled dsyevr
    exists, and up to ``SERIAL_BLAS_MAX_DIM`` at s = 0, so that end keeps
    the vectors a full solve gives within the driver's n-fold E1: the
    chain's stoquastic ``epsilon`` is that pick's. Anywhere in between a
    degeneracy takes a symmetry (von Neumann and Wigner, 1929), and
    dsyevr's pick within it stands. The first failing matrix raises
    EigensolverError naming its own entry of ``s``.
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
            if syevr is None or (dim <= SERIAL_BLAS_MAX_DIM and point == 0.0):
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
    shape = matrix.shape[:-2]
    return w[:, :keep].reshape(shape + (keep,)), v.swapaxes(1, 2).reshape(shape + (dim, keep))


def _start_block(dim: int) -> np.ndarray:
    """Two fixed rows of pseudo-random entries in [-1, 1), the splitmix64 hash of 0 .. 2 dim - 1.

    Exact integer arithmetic, so every platform starts from the same block.
    """
    x = np.arange(2 * dim, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(float).reshape(2, dim) * 2.0 ** -52 - 1.0


def _orthonormal(block: np.ndarray, floor: float) -> np.ndarray | None:
    """Orthonormalize the two rows of ``block`` in place by Gram-Schmidt run twice.

    Returns the upper-triangular r with the old block = r.T @ the new one, or
    None where a row keeps a norm of at most ``floor`` after the projection.
    """
    first, second = block
    r00 = math.sqrt(first @ first)
    if r00 <= floor:
        return None
    first /= r00
    r01 = first @ second
    second -= r01 * first
    again = first @ second
    second -= again * first
    r11 = math.sqrt(second @ second)
    if r11 <= floor:
        return None
    second /= r11
    return np.array([[r00, r01 + again], [0.0, r11]])


def _krylov(sched: ScheduleSpec, s: float, keep: int):
    """The ``keep`` lowest levels of H(s) and their vectors as ``_solve`` gives them, or None.

    Block Lanczos (Golub & Underwood, 1977) with blocks of 2 rows, from the
    fixed ``_start_block``: H(s) is applied without a matrix
    (``operators._schedule_product``). Each new block loses its projections on
    the last two blocks, then is orthogonalized once against the whole basis,
    and once more only where that pass cut a row's norm below 1 / sqrt(2) of
    its value before it (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30,
    772, 1976). The Ritz problem, the block-tridiagonal T = Q^T H Q, goes
    through ``_solve`` for keep + 1 levels: first at 8 (keep + 1) basis
    vectors, then where the residual decay seen so far predicts convergence.
    With tol = _KRYLOV_TOL x max(1, max |level|), the pairs have converged
    when the residual norms of E0 and E1, whose vectors are read, are at most
    tol, and each level i >= 2 is within tol of an eigenvalue: |r_i| <= tol,
    or |r_i|^2 <= tol (level_i - level_i-1) (Parlett, The Symmetric
    Eigenvalue Problem, 1998, ch. 11). Everything runs on one OpenBLAS
    thread, so the result does not depend on the core count.

    None, for a dense solve, where two of the keep + 1 converged levels are
    ``_degenerate`` (a block of 2 shows every level of multiplicity 2 or more
    at least twice: the driver's E1 at s = 0, where ``_end`` declines it),
    where the residual block loses rank and where the basis reaches _KRYLOV_BASIS vectors.
    """
    dim = 1 << sched.n
    if keep + 1 > _KRYLOV_BASIS:
        return None
    basis = np.empty((_KRYLOV_BASIS, dim))
    t = np.zeros((_KRYLOV_BASIS, _KRYLOV_BASIS))
    basis[:2] = _start_block(dim)
    _orthonormal(basis[:2], 0.0)
    m, check, last = 2, 8 * (keep + 1), None
    with _blas.threads(_KRYLOV_BASIS):
        while True:
            w = _schedule_product(sched, s, basis[m - 2:m])
            recent = basis[max(m - 4, 0):m]
            projection = recent @ w.T
            diagonal = projection[-2:]
            w -= projection.T @ recent
            before = np.einsum("ij,ij->i", w, w)
            w -= (basis[:m] @ w.T).T @ basis[:m]
            if (np.einsum("ij,ij->i", w, w) < before / 2).any():
                w -= (basis[:m] @ w.T).T @ basis[:m]
            t[m - 2:m, m - 2:m] = (diagonal + diagonal.T) / 2
            r = _orthonormal(w, _RANK_TOL * max(1.0, np.abs(diagonal).max()))
            if r is None:
                return None
            if m >= check or m == _KRYLOV_BASIS:
                levels, y = _solve(t[:m, :m], s, keep=keep + 1)
                tol = _KRYLOV_TOL * max(1.0, np.abs(levels).max())
                squared = ((r @ y[m - 2:]) ** 2).sum(axis=0)
                bound = tol * np.maximum(tol, np.r_[0.0, 0.0, np.diff(levels)[1:]])
                if (squared <= bound).all():
                    if _degenerate(np.diff(levels), levels).any():
                        return None
                    return levels[:keep], basis[:m].T @ y[:, :keep]
                # The log residual falls about linearly in m: check again where
                # the last two checks put the tolerance, at most m / 2 later.
                excess, step = math.log(float((squared / bound).max())), m // 2
                if last is not None and last[1] > excess:
                    step = min(step, max(8, math.ceil(excess * (m - last[0]) / (last[1] - excess))))
                last, check = (m, excess), m + step
            if m == _KRYLOV_BASIS:
                return None
            basis[m:m + 2] = w
            t[m:m + 2, m - 2:m] = r
            t[m - 2:m, m:m + 2] = r.T
            m += 2


@dataclass(frozen=True)
class SpectralTrace:
    """The lowest levels of H(s) on an ascending grid: all of ``gap_trace``'s, or the points
    ``_extrema_trace`` kept.

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


def _end(sched: ScheduleSpec, s: float, keep: int):
    """The ``keep`` lowest levels of H(s) and the rows E0, E1 at a schedule end, or None.

    s = 1: the problem diagonal, with unit vectors in ``overlap_trace``'s order.
    s = 0 above SERIAL_BLAS_MAX_DIM: S = sum_i X_i, levels -n + 2j C(n, j)-fold,
    E0 (-1)^popcount(m) / sqrt(2^n). E1, spanned by the Z_i |E0>, splits as H_P
    acts within it, as offset I + J (Amin & Choi, PRA 80, 062326, 2009): its
    branch is sum_i u_i Z_i |E0>, u the lowest eigenvector there, if not ``_degenerate``.
    """
    dim = 1 << sched.n
    if s == 1.0:
        order = np.argsort(sched.problem_diagonal, kind="stable")[:keep]
        return sched.problem_diagonal[order], (order[:2, None] == np.arange(dim)).astype(float)
    if s != 0.0 or dim <= SERIAL_BLAS_MAX_DIM:
        return None
    sigma = _sigma_table(sched.n)  # <E0| Z_i H_P Z_j |E0> = sum_m sigma_i sigma_j E_m / 2^n
    w, u = _solve(sigma.T @ (sched.problem_diagonal[:, None] / dim * sigma), s, keep=2)
    if _degenerate(w[1] - w[0], w):
        return None
    ground = sigma.prod(axis=1) / math.sqrt(dim)  # S is sum_i sigma_i in the X basis
    return np.sort(sigma.sum(axis=1))[:keep], np.stack([ground, ground * (sigma @ u[:, 0])])


def _solve_points(sched: ScheduleSpec, s: float | np.ndarray, keep: int):
    """Levels, |<E1| dH/ds |E0>|, ground weights and gap slope at one s or a 1-D block of s.

    ``_end`` gives the ends it can. Below ``_KRYLOV_MIN_DIM`` the other points
    are solved by ``_solve`` as one stack; from there up by ``_krylov``, or by
    ``_solve`` where that returns None. Then dH/ds is applied to E0's and E1's
    vectors without a matrix. Nothing 2^n x 2^n outlives the call, and from 1024
    up none is built but the H(s) of a dense solve: at n = 10, keeping a full
    eigenvector matrix or a dH/ds alive raised the peak RSS by 8%.
    """
    points = np.ravel(s).tolist()
    ends = [_end(sched, point, keep) for point in points]
    w, pair = np.empty((len(points), keep)), np.empty((len(points), 2, 1 << sched.n))
    for i, end in enumerate(ends):
        if end is not None:
            w[i], pair[i] = end
    rest = [i for i, end in enumerate(ends) if end is None]
    inner = [points[i] for i in rest]
    if 1 << sched.n >= _KRYLOV_MIN_DIM:
        for i, x in zip(rest, inner):
            w[i], v = _krylov(sched, x, keep) or _solve(schedule_matrix(sched, x), x, keep=keep)
            pair[i] = v[:, :2].T
    elif rest:
        w[rest], v = _solve(schedule_matrix(sched, inner), inner, keep=keep)
        pair[rest] = v[..., :2].swapaxes(-1, -2)
    w, pair = (w, pair) if np.ndim(s) else (w[0], pair[0])
    products = pair @ _schedule_product(sched, s, pair, derivative=True).swapaxes(-1, -2)
    slope = products[..., 1, 1] - products[..., 0, 0]
    return w, np.abs(products[..., 1, 0]), pair[..., 0, :] ** 2, slope


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


def _grid(sched: ScheduleSpec, grid_points: int, levels: int) -> tuple[np.ndarray, int]:
    """The uniform grid over [0, 1] with both endpoints, and the levels a solve keeps."""
    if _integer(grid_points, "grid_points") < 2:
        raise ValueError(f"grid must hold at least 2 points, got {grid_points}")
    if _integer(levels, "levels") < 2:
        raise ValueError(f"levels must be at least 2, got {levels}")
    return np.linspace(0.0, 1.0, grid_points), min(int(levels), 1 << sched.n)


def gap_trace(
    sched: ScheduleSpec, grid_points: int = 2001, levels: int = 6
) -> SpectralTrace:
    """Diagonalize H(s) on a uniform grid over [0, 1] including both endpoints."""
    return _scan(sched, *_grid(sched, grid_points, levels))


def _extrema_trace(sched: ScheduleSpec, grid_points: int, levels: int) -> SpectralTrace:
    """The points of ``gap_trace``'s grid that ``min_gap`` and ``epsilon`` read.

    A coarse-to-fine search of the N-point grid. ``_scan`` solves every m-th
    index and the last, m = max(1, (N - 1) // 50). Wherever a coarse gap is
    no larger, or a coarse element no smaller, than at its coarse neighbours,
    ``_fibonacci`` searches the indices strictly between those neighbours.
    Then the grid neighbours of the kept gap arg-min and element arg-max
    (first on ties) are solved until none is new. The trace holds the kept
    points in grid order, each equal bit for bit to its row of ``gap_trace``,
    so ``min_gap`` and ``epsilon`` see the brackets of a full scan and return
    its floats. That holds where each fine extremum lies between the coarse
    neighbours of a coarse local extremum and the sequence is unimodal there,
    over 2m grid steps; ``_refine`` and ``epsilon`` already assume as much
    within one step. ``epsilon``'s E0/E1 degeneracy check sees only the kept
    points.
    """
    grid, keep = _grid(sched, grid_points, levels)
    last = len(grid) - 1
    coarse = [*range(0, last, max(1, last // (_COARSE_POINTS - 1))), last]
    scanned = _scan(sched, grid[coarse], keep)
    rows = dict(zip(coarse, zip(scanned.levels, scanned.element, scanned.ground_weights,
                                scanned.slope)))

    def row(i: int) -> tuple:
        """The solved point at grid index i, solving it once."""
        if i not in rows:
            rows[i] = _solve_points(sched, grid[i], keep)
        return rows[i]

    # E0 - E1 and the element, both searched as maxima; argmax of E0 - E1 is argmin of the gap.
    targets = (lambda i: row(i)[0][0] - row(i)[0][1], lambda i: row(i)[1])
    for value in targets:
        values = [value(i) for i in coarse]
        for c in range(len(coarse)):
            lo, hi = max(c - 1, 0), min(c + 1, len(coarse) - 1)
            if values[c] >= max(values[lo], values[hi]):
                start = coarse[lo]
                _fibonacci(lambda j: value(start + 1 + j), coarse[hi] - start - 1)
    while True:
        kept = sorted(rows)
        tops = [kept[int(np.argmax([value(i) for i in kept]))] for value in targets]
        new = sorted({j for k in tops for j in (k - 1, k + 1) if 0 <= j <= last} - rows.keys())
        if not new:
            break
        for j in new:
            row(j)
    levels, elements, weights, slopes = map(np.array, zip(*(rows[i] for i in kept)))
    return SpectralTrace(grid[kept], levels, sched, elements, weights, slopes)


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

    The trace's arg-max is refined at ten times the grid resolution: a
    Fibonacci search of the 19 samples between its neighbours in the trace
    solves at most 6 of them, and where the element is unimodal across that
    bracket (as ``_refine`` assumes of the gap) it finds the largest of the
    19. The neighbours are grid neighbours in a trace from ``gap_trace`` or
    ``_extrema_trace``. Raises DegenerateLevelsError when E0 and E1 coincide
    at a point of the trace or a visited sample, where the matrix element is
    not basis-independent.
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
    ``residual`` is returned, not judged: the caller decides whether the
    misfit matters. ``s_star`` must be finite, ``delta_min`` finite and >= 0,
    and ``window`` finite and > 0.
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
    return HyperbolaFit(
        a=float(math.sqrt(a_sq)),
        b=float(slope_mean),
        e_center=float(e_center),
        residual=residual,
        points=points,
    )
