"""Dense operator construction and the schedule Hamiltonian with its derivative."""

import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annealgap import (
    DenseOperator,
    IsingProblem,
    MisChainSpec,
    NONSTOQUASTIC,
    STOQUASTIC,
    ScheduleSpec,
    SpinAssignment,
    antiferromagnetic_driver,
    derivative_at,
    hamiltonian_at,
    mis_chain,
    problem_operator,
    qubo_to_ising,
    transverse_driver,
)
from annealgap.operators import schedule_matrix
from conftest import ROW_ISING, random_ising

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def two_level() -> ScheduleSpec:
    return ScheduleSpec(problem=IsingProblem(n=1, J={}, h=(1.0,)))


@st.composite
def ising_problems(draw, max_n: int = 6) -> IsingProblem:
    n = draw(st.integers(1, max_n))
    coefficient = st.floats(-3.0, 3.0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    couplings = draw(st.dictionaries(st.sampled_from(pairs), coefficient)) if pairs else {}
    fields = tuple(draw(st.lists(coefficient, min_size=n, max_size=n)))
    return IsingProblem(n=n, J=couplings, h=fields, offset=draw(coefficient))


def dense_reference(sched: ScheduleSpec, s: float) -> tuple[np.ndarray, np.ndarray]:
    """H(s) and dH/ds as whole-matrix expressions over the three dense operators."""
    hp = problem_operator(sched.problem).matrix
    hb = transverse_driver(sched.n).matrix
    if sched.driver == STOQUASTIC:
        return (1.0 - s) * hb + s * hp, hp - hb
    aff = antiferromagnetic_driver(sched.n).matrix
    lam, dlam = s, 1.0
    coeff_p = lam + s * dlam
    coeff_a = 1.0 - lam - s * dlam
    hamiltonian = s * (lam * hp + (1.0 - lam) * aff) + (1.0 - s) * hb
    return hamiltonian, coeff_p * hp + coeff_a * aff - hb


class TestDenseOperator:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            DenseOperator(2, np.zeros((3, 3)))

    def test_symmetry_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            DenseOperator(1, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_matrix_read_only(self):
        op = transverse_driver(2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_dim(self):
        assert transverse_driver(3).dim == 8


class TestProblemOperator:
    def test_single_spin_field(self):
        op = problem_operator(IsingProblem(n=1, J={}, h=(1.0,)))
        assert np.array_equal(op.matrix, np.diag([1.0, -1.0]))

    def test_zero_problem(self):
        op = problem_operator(IsingProblem(n=3, J={}, h=(0, 0, 0)))
        assert np.array_equal(op.matrix, np.zeros((8, 8)))

    def test_chain_min_diagonal_without_carried_offset(self):
        p = IsingProblem(n=5, J=ROW_ISING["J"], h=ROW_ISING["h"])
        assert problem_operator(p).matrix.diagonal().min() == pytest.approx(
            -6.10, abs=1e-12
        )

    def test_chain_min_diagonal_with_carried_offset(self):
        ising = qubo_to_ising(mis_chain(MisChainSpec(0.04)))
        assert problem_operator(ising).matrix.diagonal().min() == pytest.approx(
            -12.0, abs=1e-12
        )

    def test_diagonal_equals_energy_exactly(self, rng):
        p = random_ising(rng, 4)
        diag = problem_operator(p).matrix.diagonal()
        for m in range(16):
            assert diag[m] == p.energy(SpinAssignment.from_basis_index(m, 4))

    def test_cap_enforced(self):
        p = IsingProblem(n=15, J={}, h=(0,) * 15)
        with pytest.raises(ValueError, match="at most 14"):
            problem_operator(p)


class TestTransverseDriver:
    def test_single_spin(self):
        assert np.array_equal(transverse_driver(1).matrix, PAULI_X)

    def test_hamming_structure(self):
        m = transverse_driver(3).matrix
        for a in range(8):
            for b in range(8):
                expected = 1.0 if bin(a ^ b).count("1") == 1 else 0.0
                assert m[a, b] == expected

    def test_row_sums(self):
        m = transverse_driver(5).matrix
        assert np.array_equal(m.sum(axis=1), np.full(32, 5.0))

    def test_uniform_ground_state(self):
        w, v = np.linalg.eigh(transverse_driver(5).matrix)
        assert w[0] == pytest.approx(-5.0, abs=1e-12)
        assert np.allclose(np.abs(v[:, 0]), 1.0 / np.sqrt(32.0), atol=1e-9)


class TestAntiferromagneticDriver:
    def test_single_spin_is_identity(self):
        assert np.array_equal(antiferromagnetic_driver(1).matrix, np.eye(2))

    def test_two_spin_expansion(self):
        expected = np.eye(4) + np.kron(PAULI_X, PAULI_X)
        assert np.array_equal(antiferromagnetic_driver(2).matrix, expected)
        w = np.linalg.eigvalsh(antiferromagnetic_driver(2).matrix)
        assert np.allclose(w, [0.0, 0.0, 2.0, 2.0], atol=1e-12)

    def test_five_spin_spectrum(self):
        # eigenvalues (n - 2w)^2 / N with binomial multiplicities
        expected = sorted(
            (5 - 2 * w) ** 2 / 5.0 for w in range(6) for _ in range(comb(5, w))
        )
        got = np.linalg.eigvalsh(antiferromagnetic_driver(5).matrix)
        assert np.allclose(got, expected, atol=1e-9)


class TestHamiltonianAt:
    def test_stoquastic_endpoints(self):
        sched = two_level()
        assert np.array_equal(hamiltonian_at(sched, 0.0).matrix, PAULI_X)
        assert np.array_equal(hamiltonian_at(sched, 1.0).matrix, np.diag([1.0, -1.0]))

    def test_nonstoquastic_endpoints(self, rng):
        sched = ScheduleSpec(problem=random_ising(rng, 3), driver=NONSTOQUASTIC)
        assert np.array_equal(hamiltonian_at(sched, 0.0).matrix, transverse_driver(3).matrix)
        assert np.array_equal(
            hamiltonian_at(sched, 1.0).matrix, problem_operator(sched.problem).matrix
        )

    def test_midpoint_two_level(self):
        got = hamiltonian_at(two_level(), 0.5).matrix
        assert np.array_equal(got, np.array([[0.5, 0.5], [0.5, -0.5]]))

    def test_affine_consistency_stoquastic(self, rng):
        sched = ScheduleSpec(problem=random_ising(rng, 4))
        h0 = hamiltonian_at(sched, 0.0).matrix
        h1 = hamiltonian_at(sched, 1.0).matrix
        for s in (0.125, 0.5, 0.875):
            assert np.array_equal(hamiltonian_at(sched, s).matrix, (1 - s) * h0 + s * h1)

    def test_s_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            hamiltonian_at(two_level(), 1.5)

    def test_symmetry_exact(self, rng):
        sched = ScheduleSpec(problem=random_ising(rng, 4), driver=NONSTOQUASTIC)
        for s in (0.0, 0.3, 0.77, 1.0):
            m = hamiltonian_at(sched, s).matrix
            assert np.array_equal(m, m.T)


class TestDerivativeAt:
    def test_stoquastic_constant(self, rng):
        sched = ScheduleSpec(problem=random_ising(rng, 3))
        expected = (
            problem_operator(sched.problem).matrix - transverse_driver(3).matrix
        )
        for s in (0.0, 0.4, 1.0):
            assert np.array_equal(derivative_at(sched, s).matrix, expected)

    def test_nonstoquastic_midpoint_drops_fluctuation_term(self, rng):
        sched = ScheduleSpec(problem=random_ising(rng, 3), driver=NONSTOQUASTIC)
        expected = (
            problem_operator(sched.problem).matrix - transverse_driver(3).matrix
        )
        assert np.allclose(derivative_at(sched, 0.5).matrix, expected, atol=1e-15)

    @pytest.mark.parametrize("driver", [STOQUASTIC, NONSTOQUASTIC])
    def test_matches_central_difference(self, driver, rng):
        sched = ScheduleSpec(problem=random_ising(rng, 3), driver=driver)
        step = 1e-6
        for s in rng.uniform(0.01, 0.99, size=11):
            fd = (
                hamiltonian_at(sched, s + step).matrix
                - hamiltonian_at(sched, s - step).matrix
            ) / (2 * step)
            err = np.abs(derivative_at(sched, s).matrix - fd).max()
            assert err <= 1e-6


class TestDenseReferenceProperty:
    @settings(max_examples=500, deadline=None)
    @given(
        problem=ising_problems(),
        driver=st.sampled_from([STOQUASTIC, NONSTOQUASTIC]),
        s=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_schedule_matches_dense_reference(self, problem, driver, s):
        sched = ScheduleSpec(problem=problem, driver=driver)
        hamiltonian, derivative = dense_reference(sched, s)
        assert np.array_equal(hamiltonian_at(sched, s).matrix, hamiltonian)
        assert np.array_equal(derivative_at(sched, s).matrix, derivative)


class TestScheduleSpec:
    def test_unknown_driver(self):
        with pytest.raises(ValueError, match="driver"):
            ScheduleSpec(problem=IsingProblem(n=1, J={}, h=(1.0,)), driver="diabatic")

    def test_cap_applies_to_schedule(self):
        with pytest.raises(ValueError, match="at most 14"):
            ScheduleSpec(problem=IsingProblem(n=15, J={}, h=(0,) * 15))

    def test_index_arrays_cached_and_reused(self):
        sched = ScheduleSpec(problem=IsingProblem(n=3, J={}, h=(1.0, 0.5, -0.5)),
                             driver=NONSTOQUASTIC)
        cached = (sched.problem_diagonal, sched.one_flip_indices, sched.two_flip_indices)
        schedule_matrix(sched, 0.3)
        schedule_matrix(sched, 0.3, derivative=True)
        assert sched.problem_diagonal is cached[0]
        assert sched.one_flip_indices is cached[1]
        assert sched.two_flip_indices is cached[2]
        assert sched.one_flip_indices.shape == (3 * 8,)
        assert sched.two_flip_indices.shape == (3 * 8,)
        assert not any(a.flags.writeable for a in cached)


class TestScheduleMemory:
    """At n = 10 one dense matrix is 8 MiB; a schedule must not keep one alive."""

    N = 10
    MATRIX_BYTES = 8 * 4**N

    @pytest.fixture(params=[STOQUASTIC, NONSTOQUASTIC])
    def sched(self, request, rng):
        return ScheduleSpec(problem=random_ising(rng, self.N), driver=request.param)

    @pytest.fixture
    def traced(self):
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()

    def test_nothing_dense_outlives_assembly(self, sched, traced):
        hamiltonian = schedule_matrix(sched, 0.3)
        derivative = schedule_matrix(sched, 0.3, derivative=True)
        del hamiltonian, derivative
        current, _ = tracemalloc.get_traced_memory()
        assert current < 1 << 20
        assert not any(
            isinstance(value, np.ndarray) and value.ndim == 2
            for value in vars(sched).values()
        )

    def test_one_call_peaks_near_one_matrix(self, sched, traced):
        tracemalloc.reset_peak()
        m = schedule_matrix(sched, 0.3)
        _, peak = tracemalloc.get_traced_memory()
        assert m.nbytes == self.MATRIX_BYTES
        assert peak < 1.25 * self.MATRIX_BYTES
