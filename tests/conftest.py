"""Shared reference data and independent brute-force oracles.

The golden regression rows live here as plain literals. The oracles evaluate
energies through dense matrix algebra and exhaustive enumeration so they share
no code path with the sparse-map implementations they check; the schedule
operators are likewise rebuilt from Kronecker products of Pauli X, not from
the flip-index arrays that ``schedule_matrix`` writes through.
"""

from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from annealgap import IsingProblem, QuboProblem

CHAIN_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4))

#: Golden coefficient rows for the delta_b = 0.04 chain instance:
#: original QUBO, its Ising form, the pivot-0 transform, and that transform
#: converted back to QUBO.
ROW_QUBO = {
    "Q": {edge: 6.08 for edge in CHAIN_EDGES},
    "b": (-4.0, -5.96, -4.0, -6.0, -4.0),
}
ROW_ISING = {
    "J": {edge: 1.52 for edge in CHAIN_EDGES},
    "h": (-0.48, 0.06, 1.04, 0.04, -0.48),
}
ROW_ISING_H0 = {
    "J": {
        (0, 1): 0.06,
        (0, 2): 1.04,
        (0, 3): 0.04,
        (0, 4): -0.48,
        (1, 2): 1.52,
        (2, 3): 1.52,
        (3, 4): 1.52,
    },
    "h": (-0.48, 1.52, 0.0, 0.0, 0.0),
}
ROW_QUBO_H0 = {
    "Q": {
        (0, 1): 0.24,
        (0, 2): 4.16,
        (0, 3): 0.16,
        (0, 4): -1.92,
        (1, 2): 6.08,
        (2, 3): 6.08,
        (3, 4): 6.08,
    },
    "b": (-2.28, -0.12, -8.16, -6.16, -2.08),
}

COEFF_TOL = 1e-12


def assert_coefficients(problem, quadratic, linear, tol=COEFF_TOL):
    """Per-coefficient comparison against a reference row (missing keys are 0)."""
    stored = problem.Q if isinstance(problem, QuboProblem) else problem.J
    vector = problem.b if isinstance(problem, QuboProblem) else problem.h
    for key in set(stored) | set(quadratic):
        assert stored.get(key, 0.0) == pytest.approx(
            quadratic.get(key, 0.0), abs=tol
        ), f"quadratic {key}"
    assert len(vector) == len(linear)
    for i, (got, want) in enumerate(zip(vector, linear)):
        assert got == pytest.approx(want, abs=tol), f"linear {i}"


def dense_ising_energy(problem: IsingProblem, sigma) -> float:
    """Oracle energy via a dense quadratic form, independent of the map walk."""
    s = np.asarray(sigma, dtype=float)
    mat = np.zeros((problem.n, problem.n))
    for (i, j), value in problem.J.items():
        mat[i, j] = value
    return float(s @ mat @ s + np.asarray(problem.h) @ s + problem.offset)


def dense_qubo_energy(problem: QuboProblem, q) -> float:
    x = np.asarray(q, dtype=float)
    mat = np.zeros((problem.n, problem.n))
    for (i, j), value in problem.Q.items():
        mat[i, j] = value
    return float(x @ mat @ x + np.asarray(problem.b) @ x + problem.offset)


def enumerate_ising(problem: IsingProblem):
    """All (sigma tuple, oracle energy) pairs, exhaustively."""
    for sigma in product((-1, 1), repeat=problem.n):
        yield sigma, dense_ising_energy(problem, sigma)


def enumerate_qubo(problem: QuboProblem):
    for q in product((0, 1), repeat=problem.n):
        yield q, dense_qubo_energy(problem, q)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def kron_transverse(n: int) -> np.ndarray:
    """Sum_i X_i as Kronecker products; spin i is bit i of the basis index,
    so its factor sits i places from the right."""
    return sum(
        reduce(np.kron, [PAULI_X if k == i else np.eye(2) for k in reversed(range(n))])
        for i in range(n)
    )


def kron_antiferromagnetic(n: int) -> np.ndarray:
    """(Sum_i X_i)^2 / n by matrix product, not by its expansion."""
    x = kron_transverse(n)
    return x @ x / n


def kron_problem(problem: IsingProblem) -> np.ndarray:
    """diag of the oracle energies; bit i of the index set means sigma_i = -1."""
    return np.diag([
        dense_ising_energy(problem, [1 - 2 * ((m >> i) & 1) for i in range(problem.n)])
        for m in range(1 << problem.n)
    ])


def kron_schedule(problem: IsingProblem, driver: str, s: float) -> tuple[np.ndarray, np.ndarray]:
    """H(s) and dH/ds as whole-matrix expressions over the oracle operators.

    stoquastic (1-s) H_B + s H_P, otherwise s [s H_P + (1-s) H_AFF] + (1-s) H_B.
    """
    hp, hb = kron_problem(problem), kron_transverse(problem.n)
    if driver == "stoquastic":
        return (1.0 - s) * hb + s * hp, hp - hb
    aff = kron_antiferromagnetic(problem.n)
    hamiltonian = s * (s * hp + (1.0 - s) * aff) + (1.0 - s) * hb
    return hamiltonian, 2.0 * s * hp + (1.0 - 2.0 * s) * aff - hb


def random_ising(rng: np.random.Generator, n: int, density: float = 0.7) -> IsingProblem:
    couplings = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                couplings[(i, j)] = float(rng.uniform(-2.0, 2.0))
    fields = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=n))
    return IsingProblem(n=n, J=couplings, h=fields, offset=float(rng.uniform(-3.0, 3.0)))


@st.composite
def ising_problems(draw, max_n: int = 6) -> IsingProblem:
    n = draw(st.integers(1, max_n))
    coefficient = st.floats(-3.0, 3.0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    couplings = draw(st.dictionaries(st.sampled_from(pairs), coefficient)) if pairs else {}
    fields = tuple(draw(st.lists(coefficient, min_size=n, max_size=n)))
    return IsingProblem(n=n, J=couplings, h=fields, offset=draw(coefficient))


def random_qubo(rng: np.random.Generator, n: int, density: float = 0.7) -> QuboProblem:
    quadratic = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                quadratic[(i, j)] = float(rng.uniform(-4.0, 4.0))
    linear = tuple(float(v) for v in rng.uniform(-4.0, 4.0, size=n))
    return QuboProblem(n=n, Q=quadratic, b=linear, offset=float(rng.uniform(-3.0, 3.0)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
