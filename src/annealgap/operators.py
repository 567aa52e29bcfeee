"""Dense real-symmetric operators for annealing schedules.

Both drivers are fixed bit-flip patterns: H_B holds 1 at every pair of basis
indices one spin flip apart, H_AFF 2/n at every pair two flips apart. They
are written at flat index arrays of those pairs rather than built from
Kronecker products, so every operator is exactly symmetric by construction.
Basis convention: bit i of index m is 0 for sigma_i = +1. A ``ScheduleSpec``
caches H_P as its diagonal vector next to the flip-pair indices;
``schedule_matrix`` fills one zeroed array with H(s) or dH/ds from them.
Dense storage is capped at 14 spins (16384 x 16384), checked before
allocating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .problems import IsingProblem

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

    Terms accumulate in the same order as IsingProblem.energy so the two
    agree bit for bit.
    """
    _check_cap(p.n)
    sigma = _sigma_table(p.n)
    diag = np.full(1 << p.n, p.offset)
    for (i, j), value in p.J.items():
        diag += value * sigma[:, i] * sigma[:, j]
    for i, hi in enumerate(p.h):
        diag += hi * sigma[:, i]
    return diag


def problem_operator(p: IsingProblem) -> DenseOperator:
    """Diagonal operator whose entry at basis index m is the energy of assignment m."""
    return DenseOperator(p.n, np.diag(problem_diagonal(p)))


def _flip_indices(n: int, flips: int) -> np.ndarray:
    """Flat indices into a 2^n x 2^n array of every basis pair ``flips`` spin flips apart.

    Grouped by row, so writes through them walk the array in memory order.
    """
    rows = np.arange(1 << n)[:, None]
    masks = np.array(
        [sum(1 << i for i in spins) for spins in combinations(range(n), flips)],
        dtype=np.intp,
    )
    return ((rows << n) + (rows ^ masks)).reshape(-1)


def transverse_driver(n: int) -> DenseOperator:
    """Sum of single-spin-flip operators: 1 at every Hamming-distance-1 pair."""
    _check_cap(n)
    m = np.zeros((1 << n, 1 << n))
    m.reshape(-1)[_flip_indices(n, 1)] = 1.0
    return DenseOperator(n, m)


def antiferromagnetic_driver(n: int) -> DenseOperator:
    """Squared mean transverse field with positive sign: (1/n) (sum_i X_i)^2.

    Expands to the identity plus 2/n at every Hamming-distance-2 pair, which
    is the two-spin-flip fluctuation term.
    """
    _check_cap(n)
    dim = 1 << n
    m = np.zeros((dim, dim))
    m.reshape(-1)[_flip_indices(n, 2)] = 2.0 / n
    m.reshape(-1)[:: dim + 1] = 1.0
    return DenseOperator(n, m)


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
        if self.driver not in (STOQUASTIC, NONSTOQUASTIC):
            raise ValueError(f"unknown driver {self.driver!r}")
        _check_cap(self.problem.n)

    @property
    def n(self) -> int:
        return self.problem.n

    @cached_property
    def problem_diagonal(self) -> np.ndarray:
        diag = problem_diagonal(self.problem)
        diag.flags.writeable = False
        return diag

    @cached_property
    def one_flip_indices(self) -> np.ndarray:
        """Flat indices of H_B's entries."""
        idx = _flip_indices(self.n, 1)
        idx.flags.writeable = False
        return idx

    @cached_property
    def two_flip_indices(self) -> np.ndarray:
        """Flat indices of H_AFF's off-diagonal entries."""
        idx = _flip_indices(self.n, 2)
        idx.flags.writeable = False
        return idx


def schedule_matrix(sched: ScheduleSpec, s: float, derivative: bool = False) -> np.ndarray:
    """H(s), or its exact dH/ds, as a new array.

    Each coefficient is written once into a zeroed array: the driver term at the
    one-flip pairs, the H_AFF term at the two-flip pairs and the rest added on
    the diagonal, where H_AFF contributes the identity. With lambda(s) = s the
    non-stoquastic dH/ds carries lambda + s lambda' = 2s on H_P and 1 - 2s on
    H_AFF. Entries equal the whole-matrix form's bit for bit: keep 1 - s - s,
    since 1 - (s + s) rounds differently. Adding keeps +0.0 where s*E_m is
    -0.0; LAPACK's reflectors follow the sign of zero, so the eigenvectors of
    a degenerate level (E1 at s = 0) depend on it.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"schedule parameter s={s} outside [0, 1]")
    outer, driver = (1.0, -1.0) if derivative else (s, 1.0 - s)
    dim = 1 << sched.n
    m = np.zeros((dim, dim))
    flat = m.reshape(-1)
    flat[sched.one_flip_indices] = driver
    if sched.driver == STOQUASTIC:
        flat[:: dim + 1] += outer * sched.problem_diagonal
        return m
    s_dlam = s if derivative else 0.0
    fluctuation = 1.0 - s - s_dlam
    flat[sched.two_flip_indices] = outer * (fluctuation * (2.0 / sched.n))
    flat[:: dim + 1] += outer * (fluctuation + (s + s_dlam) * sched.problem_diagonal)
    return m


def hamiltonian_at(sched: ScheduleSpec, s: float) -> DenseOperator:
    """Schedule Hamiltonian H(s)."""
    return DenseOperator(sched.n, schedule_matrix(sched, s))


def derivative_at(sched: ScheduleSpec, s: float) -> DenseOperator:
    """Exact dH/ds of the schedule."""
    return DenseOperator(sched.n, schedule_matrix(sched, s, derivative=True))
