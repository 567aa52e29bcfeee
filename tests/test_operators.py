"""The schedule Hamiltonian and its derivative, checked against Kronecker oracles."""

import math
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
    ProblemFormatError,
    STOQUASTIC,
    ScheduleSpec,
    SpinAssignment,
    gap_trace,
    hamiltonian_at,
    mis_chain,
    problem_diagonal,
    qubo_to_ising,
)
from annealgap.operators import _flip_indices, schedule_matrix
from conftest import (
    PAULI_X,
    ROW_ISING,
    ising_problems,
    kron_problem,
    kron_schedule,
    kron_transverse,
    random_ising,
)


def two_level() -> ScheduleSpec:
    return ScheduleSpec(problem=IsingProblem(n=1, J={}, h=(1.0,)))


def driver_at_zero(n: int) -> np.ndarray:
    """H_B, read off the engine as H(0) of a field-free schedule."""
    return schedule_matrix(ScheduleSpec(problem=IsingProblem(n=n)), 0.0)


def fluctuation_term(n: int) -> np.ndarray:
    """H_AFF, read off the engine: on a field-free non-stoquastic schedule
    H(0) = H_B and dH/ds(0) = H_AFF - H_B."""
    sched = ScheduleSpec(problem=IsingProblem(n=n), driver=NONSTOQUASTIC)
    return schedule_matrix(sched, 0.0) + schedule_matrix(sched, 0.0, derivative=True)


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    """Equal up to the rounding of the two summation orders."""
    scale = max(1.0, np.abs(want).max())
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * scale


class TestDenseOperator:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            DenseOperator(2, np.zeros((3, 3)))

    def test_symmetry_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            DenseOperator(1, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_matrix_read_only(self):
        op = hamiltonian_at(two_level(), 0.5)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_dim(self):
        assert hamiltonian_at(ScheduleSpec(problem=IsingProblem(n=3)), 0.5).dim == 8


class TestProblemOperator:
    """H_P as the diagonal that ``ScheduleSpec`` caches and H(1) carries."""

    def test_single_spin_field(self):
        assert np.array_equal(schedule_matrix(two_level(), 1.0), np.diag([1.0, -1.0]))

    def test_zero_problem(self):
        sched = ScheduleSpec(problem=IsingProblem(n=3, J={}, h=(0, 0, 0)))
        assert np.array_equal(schedule_matrix(sched, 1.0), np.zeros((8, 8)))

    def test_chain_min_diagonal_without_carried_offset(self):
        p = IsingProblem(n=5, J=ROW_ISING["J"], h=ROW_ISING["h"])
        assert problem_diagonal(p).min() == pytest.approx(-6.10, abs=1e-12)

    def test_chain_min_diagonal_with_carried_offset(self):
        ising = qubo_to_ising(mis_chain(MisChainSpec(0.04)))
        assert ScheduleSpec(problem=ising).problem_diagonal.min() == pytest.approx(
            -12.0, abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(p=ising_problems())
    def test_diagonal_equals_energy_exactly(self, p):
        diag = problem_diagonal(p)
        for m in range(1 << p.n):
            assert diag[m] == p.energy(SpinAssignment.from_basis_index(m, p.n))

    def test_overflowing_energies_rejected(self):
        # Every coefficient is finite, but 1e308 + 1e308 is not; the run
        # turns any RuntimeWarning into an error, so none may be emitted.
        p = IsingProblem(n=2, J={(0, 1): 1e308}, h=(1e308, 1e308))
        with pytest.raises(ProblemFormatError, match="overflow"):
            problem_diagonal(p)

    def test_cap_enforced(self):
        p = IsingProblem(n=15, J={}, h=(0,) * 15)
        with pytest.raises(ValueError, match="at most 14"):
            problem_diagonal(p)


class TestTransverseDriver:
    """H_B = H(0) of the stoquastic schedule."""

    def test_single_spin(self):
        assert np.array_equal(driver_at_zero(1), PAULI_X)

    def test_hamming_structure(self):
        m = driver_at_zero(3)
        for a in range(8):
            for b in range(8):
                expected = 1.0 if bin(a ^ b).count("1") == 1 else 0.0
                assert m[a, b] == expected

    def test_row_sums(self):
        assert np.array_equal(driver_at_zero(5).sum(axis=1), np.full(32, 5.0))

    def test_uniform_ground_state(self):
        w, v = np.linalg.eigh(driver_at_zero(5))
        assert w[0] == pytest.approx(-5.0, abs=1e-12)
        assert np.allclose(np.abs(v[:, 0]), 1.0 / np.sqrt(32.0), atol=1e-9)


class TestAntiferromagneticDriver:
    def test_single_spin_is_identity(self):
        assert np.array_equal(fluctuation_term(1), np.eye(2))

    def test_two_spin_expansion(self):
        expected = np.eye(4) + np.kron(PAULI_X, PAULI_X)
        assert np.array_equal(fluctuation_term(2), expected)
        w = np.linalg.eigvalsh(fluctuation_term(2))
        assert np.allclose(w, [0.0, 0.0, 2.0, 2.0], atol=1e-12)

    def test_five_spin_spectrum(self):
        # eigenvalues (n - 2w)^2 / N with binomial multiplicities
        expected = sorted(
            (5 - 2 * w) ** 2 / 5.0 for w in range(6) for _ in range(comb(5, w))
        )
        got = np.linalg.eigvalsh(fluctuation_term(5))
        assert np.allclose(got, expected, atol=1e-9)


class TestHamiltonianAt:
    def test_stoquastic_endpoints(self):
        sched = two_level()
        assert np.array_equal(hamiltonian_at(sched, 0.0).matrix, PAULI_X)
        assert np.array_equal(hamiltonian_at(sched, 1.0).matrix, np.diag([1.0, -1.0]))

    def test_nonstoquastic_endpoints(self, rng):
        sched = ScheduleSpec(problem=random_ising(rng, 3), driver=NONSTOQUASTIC)
        assert np.array_equal(hamiltonian_at(sched, 0.0).matrix, kron_transverse(3))
        assert_close(hamiltonian_at(sched, 1.0).matrix, kron_problem(sched.problem))

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
    """dH/ds from ``schedule_matrix(..., derivative=True)``."""

    def test_stoquastic_constant(self, rng):
        sched = ScheduleSpec(problem=random_ising(rng, 3))
        expected = kron_problem(sched.problem) - kron_transverse(3)
        first = schedule_matrix(sched, 0.0, derivative=True)
        assert_close(first, expected)
        for s in (0.4, 1.0):
            assert np.array_equal(schedule_matrix(sched, s, derivative=True), first)

    def test_nonstoquastic_midpoint_drops_fluctuation_term(self, rng):
        sched = ScheduleSpec(problem=random_ising(rng, 3), driver=NONSTOQUASTIC)
        expected = kron_problem(sched.problem) - kron_transverse(3)
        assert_close(schedule_matrix(sched, 0.5, derivative=True), expected)

    @pytest.mark.parametrize("driver", [STOQUASTIC, NONSTOQUASTIC])
    def test_matches_central_difference(self, driver, rng):
        sched = ScheduleSpec(problem=random_ising(rng, 3), driver=driver)
        step = 1e-6
        for s in rng.uniform(0.01, 0.99, size=11):
            fd = (schedule_matrix(sched, s + step) - schedule_matrix(sched, s - step)) / (2 * step)
            err = np.abs(schedule_matrix(sched, s, derivative=True) - fd).max()
            assert err <= 1e-6


class TestDenseReferenceProperty:
    """``schedule_matrix`` against the Kronecker-product oracle of conftest,
    which shares no index arithmetic with it."""

    @settings(max_examples=500, deadline=None)
    @given(
        problem=ising_problems(),
        driver=st.sampled_from([STOQUASTIC, NONSTOQUASTIC]),
        s=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_schedule_matches_dense_reference(self, problem, driver, s):
        sched = ScheduleSpec(problem=problem, driver=driver)
        hamiltonian, derivative = kron_schedule(problem, driver, s)
        assert_close(schedule_matrix(sched, s), hamiltonian)
        assert_close(schedule_matrix(sched, s, derivative=True), derivative)

    @settings(max_examples=100, deadline=None)
    @given(
        problem=ising_problems(max_n=5),
        driver=st.sampled_from([STOQUASTIC, NONSTOQUASTIC]),
        interior=st.lists(st.floats(0.0, 1.0), max_size=6),
    )
    def test_stack_matches_dense_reference(self, problem, driver, interior):
        sched = ScheduleSpec(problem=problem, driver=driver)
        s = np.array([0.0, *interior, 1.0])
        hamiltonians = schedule_matrix(sched, s)
        derivatives = schedule_matrix(sched, s, derivative=True)
        for point, hamiltonian, derivative in zip(s, hamiltonians, derivatives):
            want_h, want_d = kron_schedule(problem, driver, point)
            assert_close(hamiltonian, want_h)
            assert_close(derivative, want_d)


class TestScheduleMatrixStack:
    """``schedule_matrix`` on a 1-D array of s against the call at each s."""

    @settings(max_examples=200, deadline=None)
    @given(
        problem=ising_problems(),
        driver=st.sampled_from([STOQUASTIC, NONSTOQUASTIC]),
        interior=st.lists(st.floats(0.0, 1.0), max_size=20),
        derivative=st.booleans(),
    )
    def test_each_matrix_equals_the_scalar_call(self, problem, driver, interior, derivative):
        sched = ScheduleSpec(problem=problem, driver=driver)
        s = np.array([0.0, *interior, 1.0])
        stack = schedule_matrix(sched, s, derivative=derivative)
        assert stack.shape == (len(s), 1 << problem.n, 1 << problem.n)
        for point, matrix in zip(s, stack):
            # Bytes, not values: the sign of a zero entry steers LAPACK.
            single = schedule_matrix(sched, float(point), derivative=derivative)
            assert matrix.tobytes() == single.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        driver=st.sampled_from([STOQUASTIC, NONSTOQUASTIC]),
        inside=st.lists(st.floats(0.0, 1.0), max_size=5),
        position=st.integers(0, 5),
        outside=st.one_of(
            st.floats(max_value=-math.ulp(0.0)),  # below zero, -0.0 excluded
            st.floats(min_value=1.0, exclude_min=True),
            st.just(float("nan")),
        ),
        derivative=st.booleans(),
    )
    def test_any_s_outside_the_schedule_rejected(
        self, driver, inside, position, outside, derivative
    ):
        sched = ScheduleSpec(problem=IsingProblem(n=2, J={(0, 1): 1.0}, h=(0.5, -0.5)),
                             driver=driver)
        inside.insert(min(position, len(inside)), outside)
        for s in (outside, np.array(inside)):
            with pytest.raises(ValueError, match="outside"):
                schedule_matrix(sched, s, derivative=derivative)


class TestScheduleSpec:
    def test_unknown_driver(self):
        with pytest.raises(ValueError, match="driver"):
            ScheduleSpec(problem=IsingProblem(n=1, J={}, h=(1.0,)), driver="diabatic")

    def test_qubo_rejected(self):
        qubo = mis_chain(MisChainSpec(0.04))
        with pytest.raises(TypeError, match="got QuboProblem; convert a QUBO with qubo_to_ising"):
            ScheduleSpec(problem=qubo)

    def test_cap_applies_to_schedule(self):
        with pytest.raises(ValueError, match="at most 14"):
            ScheduleSpec(problem=IsingProblem(n=15, J={}, h=(0,) * 15))

    def test_overflowing_final_gap_rejected(self):
        # Energies +-1e308 are finite, but E1 - E0 = 2e308 is not; the run
        # turns any RuntimeWarning into an error, so none may be emitted.
        problem = IsingProblem(n=1, J={}, h=(1e308,))
        with pytest.raises(ProblemFormatError, match=r"spread E1 - E0 of the two lowest "
                                                     r"energies, -1e\+308 and 1e\+308"):
            ScheduleSpec(problem=problem)
        with pytest.raises(ProblemFormatError, match="overflow the non-stoquastic dH/ds"):
            ScheduleSpec(problem=problem, driver=NONSTOQUASTIC)

    @pytest.mark.parametrize("driver, message", [
        (STOQUASTIC, "overflow the stoquastic dH/ds, whose diagonal holds E"),
        (NONSTOQUASTIC, "overflow the non-stoquastic dH/ds, whose diagonal holds 2s E"),
    ])
    def test_energies_at_the_float_maximum_rejected(self, driver, message):
        # Every energy is -1.8e308 and no spread overflows, but the gap slope's
        # products <v| dH/ds |v> round past the float maximum.
        problem = IsingProblem(n=2, J={}, h=(0.0, 0.0), offset=-np.finfo(float).max)
        with pytest.raises(ProblemFormatError, match=message):
            ScheduleSpec(problem=problem, driver=driver)

    def test_nonstoquastic_gap_slope_doubles_the_spread(self):
        # |E| = 8.3e307 passes the 2 max|E| bound, but the non-stoquastic gap
        # slope 2 (E1 - E0) = 3.3e308 at s = 1 does not fit a float.
        problem = IsingProblem(n=1, J={}, h=(-8.26e307,))
        with pytest.raises(ProblemFormatError, match=r"gap slope 2 \(E1 - E0\) at s = 1"):
            ScheduleSpec(problem=problem, driver=NONSTOQUASTIC)
        trace = gap_trace(ScheduleSpec(problem=problem), 11)
        assert trace.gap[-1] == 2 * 8.26e307

    def test_wide_spread_above_the_two_lowest_accepted(self):
        # max E - min E = 3.2e308 overflows, but E1 - E0 = 1.6e308 and every
        # stoquastic gap and slope stay finite.
        sched = ScheduleSpec(problem=IsingProblem(n=2, J={}, h=(8e307, 8e307)))
        trace = gap_trace(sched, 11)
        assert np.isfinite(trace.gap).all() and np.isfinite(trace.slope).all()

    def test_index_arrays_cached_and_reused(self):
        sched = ScheduleSpec(problem=IsingProblem(n=3, J={}, h=(1.0, 0.5, -0.5)),
                             driver=NONSTOQUASTIC)
        diagonal = sched.problem_diagonal
        indices = (_flip_indices(3, 1), _flip_indices(3, 2))
        schedule_matrix(sched, 0.3)
        schedule_matrix(sched, 0.3, derivative=True)
        assert _flip_indices(3, 1) is indices[0]
        assert _flip_indices(3, 2) is indices[1]
        assert indices[0].shape == indices[1].shape == (3 * 8,)
        # A second schedule of the same spin count shares the arrays.
        other = ScheduleSpec(problem=IsingProblem(n=3, J={(0, 2): 1.0}, h=(0.0, 0.0, 0.0)))
        schedule_matrix(other, 0.7)
        assert _flip_indices(other.n, 1) is indices[0]
        assert sched.problem_diagonal is diagonal
        assert not any(a.flags.writeable for a in (diagonal, *indices))


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
