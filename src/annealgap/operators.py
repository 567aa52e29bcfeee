"""Dense real-symmetric operators for annealing schedules.

A schedule is H(s) = c_E(s) E + c_S(s) S + c_SS(s) S^2 / n, where E is the
problem diagonal and S = sum_i X_i; ``_terms`` holds each driver's
coefficients, and those of dH/ds, in one place. S holds 1 at every pair of
basis indices one spin flip apart, and S^2 / n = H_AFF holds 2/n at every
pair two flips apart and 1 on the diagonal. Basis convention: bit i of index
m is 0 for sigma_i = +1. A ``ScheduleSpec`` caches E as a vector; the
flip-pair indices are built once per spin count. ``schedule_matrix`` writes
the terms at those indices into one zeroed array, exactly symmetric by
construction, or into a stack of arrays for a block of s; it is the one
place H(s) is built as a matrix, and dH/ds is never one.
``_schedule_product`` applies H(s) or dH/ds to a block of vectors.
``hamiltonian_at`` wraps one H(s) as a read-only, symmetry-checked
``DenseOperator`` for callers outside the spectral scan.
Dense storage is capped at 14 spins (16384 x 16384), checked before
allocating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

import numpy as np

from .problems import IsingProblem, ProblemFormatError, _energy, _ising

DEFAULT_SPIN_CAP = 14

STOQUASTIC = "stoquastic"
NONSTOQUASTIC = "nonstoquastic"


def _check_cap(n: int) -> None:
    if n > DEFAULT_SPIN_CAP:
        raise ValueError(f"dense operators support at most {DEFAULT_SPIN_CAP} spins, got n={n}")


@dataclass(frozen=True)
class DenseOperator:
    """A real symmetric 2^n x 2^n matrix in energy units."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (1 << self.n, 1 << self.n):
            raise ValueError(
                f"matrix shape {m.shape} does not match n={self.n}"
            )
        if not np.array_equal(m, m.T):
            raise ValueError("operator matrix must be exactly symmetric")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return 1 << self.n


def _sigma_table(n: int) -> np.ndarray:
    """(2^n, n) array of sigma values per basis index: bit 0 -> +1, bit 1 -> -1."""
    m = np.arange(1 << n)
    return 1.0 - 2.0 * ((m[:, None] >> np.arange(n)[None, :]) & 1)


def problem_diagonal(p: IsingProblem) -> np.ndarray:
    """Classical energies of all 2^n assignments, indexed by basis index.

    Summed by the function behind ``IsingProblem.energy``, so the two agree
    bit for bit. Raises ProblemFormatError when finite coefficients sum
    beyond the float range.
    """
    _ising(p, "problem_diagonal")
    _check_cap(p.n)
    return _energy(p.n, p.J, p.h, p.offset, _sigma_table(p.n).T)


@cache
def _flip_indices(n: int, flips: int) -> np.ndarray:
    """Flat indices into a 2^n x 2^n array of every basis pair ``flips`` spin flips apart.

    Grouped by row, so writes through them walk the array in memory order.
    Built once per (n, flips) and read-only, so every schedule shares them.
    """
    rows = np.arange(1 << n)[:, None]
    masks = np.array(
        [sum(1 << i for i in spins) for spins in combinations(range(n), flips)],
        dtype=np.intp,
    )
    idx = ((rows << n) + (rows ^ masks)).reshape(-1)
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True)
class ScheduleSpec:
    """A driver choice bound to a problem; defines H(s) on s in [0, 1].

    stoquastic:      H(s) = (1-s) H_B + s H_P
    nonstoquastic:   H(s) = s [s H_P + (1-s) H_AFF] + (1-s) H_B

    H_B is the transverse driver and H_AFF = (1/n) (sum_i X_i)^2 the
    antiferromagnetic fluctuation term. The non-stoquastic form is the one of
    Seki & Nishimori (PRE 85, 051112, 2012) on the path lambda(s) = s with the
    normalizer N fixed to the spin count n.
    """

    problem: IsingProblem
    driver: str = STOQUASTIC

    def __post_init__(self):
        _ising(self.problem, "ScheduleSpec")
        if self.driver not in (STOQUASTIC, NONSTOQUASTIC):
            raise ValueError(f"unknown driver {self.driver!r}")
        _check_cap(self.problem.n)
        # dH/ds holds H_P times 1, or 2s for the non-stoquastic driver: largest at
        # s = 1. The gap slope's products <v| dH/ds |v> may round some ulps above
        # the largest |entry|.
        nonstoq = self.driver == NONSTOQUASTIC
        factor = _terms(self, 1.0, derivative=True)[0]
        top = np.abs(self.problem_diagonal).max()
        if top > np.finfo(float).max * (1.0 - 2.0 ** -20) / factor:
            raise ProblemFormatError(f"energies up to |E| = {top:.6g} overflow the "
                                     f"{'non-' * nonstoq}stoquastic dH/ds, whose diagonal "
                                     f"holds {'2s ' * nonstoq}E, in the gap slope")
        # E1 - E0 of H_P is the gap at s = 1, and the gap slope there is that
        # spread times the factor; inside the schedule it may round as far above.
        low, next_low = sorted(self.problem_diagonal.tolist())[:2]
        if factor * (next_low - low) > np.finfo(float).max * (1.0 - 2.0 ** -20):
            raise ProblemFormatError(f"the spread E1 - E0 of the two lowest energies, {low:.6g} "
                                     f"and {next_low:.6g}, overflows the gap slope "
                                     f"{factor:g} (E1 - E0) at s = 1")

    @property
    def n(self) -> int:
        return self.problem.n

    @cached_property
    def problem_diagonal(self) -> np.ndarray:
        diag = problem_diagonal(self.problem)
        diag.flags.writeable = False
        return diag


def _terms(sched: ScheduleSpec, s: float | np.ndarray, derivative: bool = False) -> tuple:
    """H(s), or dH/ds, as the coefficients (c_E, c_S, c_SS) of c_E E + c_S S + c_SS S^2 / n.

    E is the problem diagonal, S = sum_i X_i and S^2 / n = H_AFF; c_SS is
    None for the stoquastic driver. With lambda(s) = s the non-stoquastic
    H(s) is s^2 E + (1-s) S + s(1-s) S^2 / n. Keep 1 - s - s in its dH/ds,
    since 1 - (s + s) rounds differently. Element-wise in s, so an array of
    s gives each point's coefficients bit for bit.
    """
    if sched.driver == STOQUASTIC:
        return (1.0, -1.0, None) if derivative else (s, 1.0 - s, None)
    if derivative:
        return 2.0 * s, -1.0, 1.0 - s - s
    return s * s, 1.0 - s, s * (1.0 - s)


def schedule_matrix(sched: ScheduleSpec, s: float | np.ndarray) -> np.ndarray:
    """H(s) as a new array; a stack of them for a 1-D array of s.

    Each of its ``_terms`` is written once into a zeroed array: c_S at the
    one-flip pairs, 2 c_SS / n at the two-flip pairs, and c_E E + c_SS, where
    S^2 / n holds the identity, added on the diagonal. Adding keeps +0.0
    where s*E_m is -0.0; LAPACK's reflectors follow the sign of zero, so the
    eigenvectors of a degenerate level (E1 at s = 0) depend on it.
    """
    s = np.asarray(s, dtype=float)
    outside = s[~((0.0 <= s) & (s <= 1.0))]
    if outside.size:
        raise ValueError(f"schedule parameter s={outside[0]} outside [0, 1]")
    # Each s broadcasts along its matrix's entries.
    c_e, c_s, c_ss = _terms(sched, s[..., None])
    dim = 1 << sched.n
    m = np.zeros(s.shape + (dim, dim))
    flat = m.reshape(s.shape + (-1,))
    flat[..., _flip_indices(sched.n, 1)] = c_s
    diagonal = c_e * sched.problem_diagonal
    if c_ss is not None:
        flat[..., _flip_indices(sched.n, 2)] = 2.0 * c_ss / sched.n
        diagonal += c_ss
    flat[..., :: dim + 1] += diagonal
    return m


#: Spins whose flips ``_flip_sum`` applies as one matrix product: the strided
#: views of the lowest spins' flips are short runs, 2.3x slower in all at n = 10.
_LOW_SPINS = 5


@cache
def _low_flips(n: int) -> np.ndarray:
    """sum_i X_i over n spins as a dense 2^n x 2^n matrix, read-only."""
    flips = np.zeros(1 << 2 * n)
    flips[_flip_indices(n, 1)] = 1.0
    flips = flips.reshape(1 << n, 1 << n)
    flips.flags.writeable = False
    return flips


def _flip_sum(block: np.ndarray) -> np.ndarray:
    """S = sum_i X_i applied to each row of a (b, 2^n) block, or of each block of a stack.

    The lowest spins' flips are one product with ``_low_flips`` per block,
    so a block of a stack meets the same BLAS call as on its own; every
    other X_i is a strided view of the block.
    """
    dim = block.shape[-1]
    half = 1 << min(_LOW_SPINS, dim.bit_length() - 1)
    low = _low_flips(half.bit_length() - 1)
    total = (block.reshape(block.shape[:-2] + (-1, half)) @ low).reshape(block.shape)
    while half < dim:  # X_i swaps the two halves of every run of 2^(i+1) indices
        view = total.reshape(-1, 2, half)
        view += block.reshape(-1, 2, half)[:, ::-1]
        half <<= 1
    return total


def _schedule_product(
    sched: ScheduleSpec, s: float | np.ndarray, block: np.ndarray, derivative: bool = False
) -> np.ndarray:
    """H(s), or dH/ds, applied to each row of a (b, 2^n) block without building a matrix.

    The ``_terms`` of s, with S applied by ``_flip_sum``: equal to
    ``block @ schedule_matrix(sched, s)`` up to rounding. A 1-D array of s
    takes a (len(s), b, 2^n) block, and each point's product equals the
    call at its s bit for bit.
    """
    if isinstance(s, np.ndarray):
        s = s[:, None, None]
    c_e, c_s, c_ss = _terms(sched, s, derivative)
    once = _flip_sum(block)
    product = (c_e * sched.problem_diagonal) * block + c_s * once
    if c_ss is not None:
        product += (c_ss / sched.n) * _flip_sum(once)
    return product


def hamiltonian_at(sched: ScheduleSpec, s: float) -> DenseOperator:
    """Schedule Hamiltonian H(s)."""
    return DenseOperator(sched.n, schedule_matrix(sched, s))

