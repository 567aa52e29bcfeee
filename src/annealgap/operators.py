"""Dense real-symmetric operators for annealing schedules.

Both drivers are fixed bit-flip patterns: H_B holds 1 at every pair of basis
indices one spin flip apart, H_AFF 2/n at every pair two flips apart. They
are written at flat index arrays of those pairs rather than built from
Kronecker products, so every operator is exactly symmetric by construction.
Basis convention: bit i of index m is 0 for sigma_i = +1. A ``ScheduleSpec``
caches H_P as its diagonal vector; the flip-pair indices are built once per
spin count. ``schedule_matrix`` fills one zeroed array with H(s) or dH/ds from
them, or a stack of such arrays for a block of s; it is the one place the
drivers are built. ``hamiltonian_at`` wraps one H(s) as a read-only,
symmetry-checked ``DenseOperator`` for callers outside the spectral scan.
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
        # dH/ds holds H_P times 1, or 2s for the non-stoquastic driver. The gap slope's
        # products <v| dH/ds |v> may round some ulps above the largest |entry|.
        nonstoq = self.driver == NONSTOQUASTIC
        factor = 2.0 if nonstoq else 1.0
        top = np.abs(self.problem_diagonal).max()
        if top > np.finfo(float).max * (1.0 - 2.0 ** -20) / factor:
            raise ProblemFormatError(f"energies up to |E| = {top:.6g} overflow the "
                                     f"{'non-' * nonstoq}stoquastic dH/ds, whose diagonal "
                                     f"holds {'2s ' * nonstoq}E, in the gap slope")
        # E1 - E0 of H_P is the gap at s = 1, and the gap slope there is that
        # spread times the factor.
        low, next_low = sorted(self.problem_diagonal.tolist())[:2]
        if factor * (next_low - low) == np.inf:
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


def schedule_matrix(
    sched: ScheduleSpec, s: float | np.ndarray, derivative: bool = False
) -> np.ndarray:
    """H(s), or its exact dH/ds, as a new array; a stack of them for a 1-D array of s.

    Each coefficient is written once into a zeroed array: the driver term at the
    one-flip pairs, the H_AFF term at the two-flip pairs and the rest added on
    the diagonal, where H_AFF contributes the identity. With lambda(s) = s the
    non-stoquastic dH/ds carries lambda + s lambda' = 2s on H_P and 1 - 2s on
    H_AFF. Entries equal the whole-matrix form's bit for bit: keep 1 - s - s,
    since 1 - (s + s) rounds differently. Adding keeps +0.0 where s*E_m is
    -0.0; LAPACK's reflectors follow the sign of zero, so the eigenvectors of
    a degenerate level (E1 at s = 0) depend on it. The expressions are
    element-wise in s, so each matrix of a stack equals the call at its s.
    """
    s = np.asarray(s, dtype=float)
    outside = s[~((0.0 <= s) & (s <= 1.0))]
    if outside.size:
        raise ValueError(f"schedule parameter s={outside[0]} outside [0, 1]")
    col = s[..., None]  # broadcasts each s along its matrix's entries
    outer, driver = (1.0, -1.0) if derivative else (col, 1.0 - col)
    dim = 1 << sched.n
    m = np.zeros(s.shape + (dim, dim))
    flat = m.reshape(s.shape + (-1,))
    flat[..., _flip_indices(sched.n, 1)] = driver
    if sched.driver == STOQUASTIC:
        flat[..., :: dim + 1] += outer * sched.problem_diagonal
        return m
    s_dlam = col if derivative else 0.0
    fluctuation = 1.0 - col - s_dlam
    flat[..., _flip_indices(sched.n, 2)] = outer * (fluctuation * (2.0 / sched.n))
    flat[..., :: dim + 1] += outer * (fluctuation + (col + s_dlam) * sched.problem_diagonal)
    return m


def hamiltonian_at(sched: ScheduleSpec, s: float) -> DenseOperator:
    """Schedule Hamiltonian H(s)."""
    return DenseOperator(sched.n, schedule_matrix(sched, s))

