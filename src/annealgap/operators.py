"""Dense real-symmetric operators for annealing schedules.

Both drivers are fixed bit-flip patterns: H_B holds 1 at every pair of basis
indices one spin flip apart, H_AFF 2/N at every pair two flips apart. They
are written at flat index arrays of those pairs rather than built from
Kronecker products, so every operator is exactly symmetric by construction.
Basis convention: bit i of index m is 0 for sigma_i = +1. A ``ScheduleSpec``
caches H_P as its diagonal vector next to the flip-pair indices;
``schedule_matrix`` fills one zeroed array with H(s) or dH/ds from them.
Dense storage is capped at 14 spins (16384 x 16384), checked before
allocating.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Optional

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


def _checked_normalizer(n: int, normalizer: Optional[float]) -> float:
    norm = float(n if normalizer is None else normalizer)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"normalizer must be positive and finite, got {normalizer}")
    return norm


def transverse_driver(n: int) -> DenseOperator:
    """Sum of single-spin-flip operators: 1 at every Hamming-distance-1 pair."""
    _check_cap(n)
    m = np.zeros((1 << n, 1 << n))
    m.reshape(-1)[_flip_indices(n, 1)] = 1.0
    return DenseOperator(n, m)


def antiferromagnetic_driver(n: int, normalizer: Optional[float] = None) -> DenseOperator:
    """Squared mean transverse field with positive sign: (1/N) (sum_i X_i)^2.

    Expands to (n/N) I plus 2/N at every Hamming-distance-2 pair, which is the
    two-spin-flip fluctuation term. N defaults to the spin count.
    """
    _check_cap(n)
    norm = _checked_normalizer(n, normalizer)
    dim = 1 << n
    m = np.zeros((dim, dim))
    m.reshape(-1)[_flip_indices(n, 2)] = 2.0 / norm
    m.reshape(-1)[:: dim + 1] = n / norm
    return DenseOperator(n, m)


@dataclass(frozen=True)
class LambdaPath:
    """Mixing path lambda(s) for the non-stoquastic schedule; must end at 1."""

    name: str
    value: Callable[[float], float]
    derivative: Optional[Callable[[float], float]] = None


LINEAR_PATH = LambdaPath("linear", lambda s: s, lambda s: 1.0)

#: Paths selectable by name on the command line.
LAMBDA_PATHS = {LINEAR_PATH.name: LINEAR_PATH}

_FD_STEP = 1e-6


@dataclass(frozen=True)
class ScheduleSpec:
    """A driver choice bound to a problem; defines H(s) on s in [0, 1].

    stoquastic:      H(s) = (1-s) H_B + s H_P
    nonstoquastic:   H(s) = s [lambda(s) H_P + (1-lambda(s)) H_AFF] + (1-s) H_B

    H_B is the transverse driver, H_AFF the antiferromagnetic fluctuation term
    with aggregate normalizer N (defaults to the spin count; positive and finite).
    """

    problem: IsingProblem
    driver: str = STOQUASTIC
    lambda_path: LambdaPath = LINEAR_PATH
    normalizer: Optional[float] = None

    def __post_init__(self):
        if self.driver not in (STOQUASTIC, NONSTOQUASTIC):
            raise ValueError(f"unknown driver {self.driver!r}")
        _check_cap(self.problem.n)
        if self.normalizer is not None:
            _checked_normalizer(self.problem.n, self.normalizer)
        if self.driver == NONSTOQUASTIC:
            end = self.lambda_path.value(1.0)
            if abs(end - 1.0) > 1e-12:
                raise ValueError(
                    f"lambda path {self.lambda_path.name!r} must satisfy "
                    f"lambda(1)=1, got {end}"
                )

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

    @cached_property
    def _aff_norm(self) -> float:
        return _checked_normalizer(self.n, self.normalizer)

    def _lambda_derivative(self, s: float) -> float:
        if self.lambda_path.derivative is not None:
            return self.lambda_path.derivative(s)
        warnings.warn(
            f"lambda path {self.lambda_path.name!r} has no derivative; "
            f"using central difference with step {_FD_STEP}",
            RuntimeWarning,
            stacklevel=3,
        )
        value = self.lambda_path.value
        return (value(s + _FD_STEP) - value(s - _FD_STEP)) / (2.0 * _FD_STEP)


def schedule_matrix(sched: ScheduleSpec, s: float, derivative: bool = False) -> np.ndarray:
    """H(s), or its exact dH/ds (product rule through lambda(s)), as a new array.

    Each coefficient is written once into a zeroed array: the driver term at the
    one-flip pairs, the H_AFF term at the two-flip pairs and the rest added on
    the diagonal. Entries equal the whole-matrix form's bit for bit: keep
    1 - lam - s*lam', since 1 - (lam + s*lam') rounds differently. Adding keeps
    +0.0 where s*E_m is -0.0; LAPACK's reflectors follow the sign of zero, so
    the eigenvectors of a degenerate level (E1 at s = 0) depend on it.
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
    lam = sched.lambda_path.value(s)
    s_dlam = s * sched._lambda_derivative(s) if derivative else 0.0
    fluctuation = 1.0 - lam - s_dlam
    norm = sched._aff_norm
    flat[sched.two_flip_indices] = outer * (fluctuation * (2.0 / norm))
    flat[:: dim + 1] += outer * (
        fluctuation * (sched.n / norm) + (lam + s_dlam) * sched.problem_diagonal
    )
    return m


def hamiltonian_at(sched: ScheduleSpec, s: float) -> DenseOperator:
    """Schedule Hamiltonian H(s)."""
    return DenseOperator(sched.n, schedule_matrix(sched, s))


def derivative_at(sched: ScheduleSpec, s: float) -> DenseOperator:
    """Exact dH/ds of the schedule (product rule through lambda(s))."""
    return DenseOperator(sched.n, schedule_matrix(sched, s, derivative=True))
