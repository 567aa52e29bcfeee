"""Coefficient-exchange transform: golden rows, algebra laws, spectra, back-mapping."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annealgap import (
    IsingProblem,
    MisChainSpec,
    ProblemFormatError,
    ScheduleSpec,
    SpinAssignment,
    back_map,
    compose_swap,
    gap_trace,
    mis_chain,
    problem_diagonal,
    qubo_to_ising,
    swap_labels,
    transform,
)
from conftest import (
    PAULI_X,
    ROW_ISING,
    ROW_ISING_H0,
    assert_coefficients,
    dense_ising_energy,
    enumerate_ising,
    ising_problems,
    kron_problem,
    random_ising,
)


def conjugation_permutation(n: int, k: int) -> np.ndarray:
    """Basis permutation of the pivot-k controlled flip fan: if bit k is set,
    flip every other bit. Self-inverse."""
    everyone_else = ((1 << n) - 1) ^ (1 << k)
    m = np.arange(1 << n)
    return np.where((m >> k) & 1 == 1, m ^ everyone_else, m)


class TestTransform:
    def test_golden_row_pivot_0(self):
        p = IsingProblem(n=5, J=ROW_ISING["J"], h=ROW_ISING["h"])
        assert_coefficients(transform(p, 0), ROW_ISING_H0["J"], ROW_ISING_H0["h"])

    def test_chain_couplings_untouched(self):
        p = IsingProblem(n=5, J=ROW_ISING["J"], h=ROW_ISING["h"])
        out = transform(p, 0)
        for edge in ((1, 2), (2, 3), (3, 4)):
            assert out.J[edge] == 1.52

    def test_offset_unchanged(self):
        p = IsingProblem(n=5, J=ROW_ISING["J"], h=ROW_ISING["h"], offset=-5.9)
        assert transform(p, 0).offset == -5.9

    def test_zero_problem(self):
        p = IsingProblem(n=4, J={}, h=(0, 0, 0, 0))
        for k in range(4):
            out = transform(p, k)
            assert out.J == {} and out.h == (0, 0, 0, 0)

    def test_pivot_out_of_range(self):
        p = IsingProblem(n=3, J={}, h=(1, 2, 3))
        a = SpinAssignment((0, 1, 1))
        for k in (3, -1):
            with pytest.raises(ProblemFormatError, match=f"pivot spin k={k} out of range for n=3"):
                transform(p, k)
            with pytest.raises(ProblemFormatError, match=f"pivot spin k={k} out of range for n=3"):
                back_map(a, k)
        # Not truncated to 1, and a bool is not read as spin 1.
        for k in (1.5, True, "1"):
            with pytest.raises(ProblemFormatError, match=r"pivot spin k must be an integer"):
                transform(p, k)
            with pytest.raises(ProblemFormatError, match=r"pivot spin k must be an integer"):
                back_map(a, k)
        assert transform(p, np.int64(1)) == transform(p, 1)
        assert back_map(a, np.int32(1)) == back_map(a, 1)

    def test_involution_exact(self, rng):
        for n in (2, 4, 7):
            p = random_ising(rng, n)
            for k in range(n):
                again = transform(transform(p, k), k)
                assert again.J == p.J
                assert again.h == p.h
                assert again.offset == p.offset

    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    def test_spectrum_invariance(self, n, rng):
        p = random_ising(rng, n)
        reference = np.sort(problem_diagonal(p))
        for k in range(n):
            transformed = np.sort(problem_diagonal(transform(p, k)))
            assert np.max(np.abs(transformed - reference)) <= 1e-9

    def test_energy_relabeling_matches_permutation(self, rng):
        """diag of the transformed problem is the permuted diag of the original."""
        for n in (3, 5):
            p = random_ising(rng, n)
            diag = problem_diagonal(p)
            for k in range(n):
                perm = conjugation_permutation(n, k)
                assert np.allclose(
                    problem_diagonal(transform(p, k)), diag[perm], atol=1e-12
                )

    def test_dense_conjugation_oracle(self, rng):
        """Full-matrix conjugation by the controlled-flip permutation."""
        n, k = 4, 2
        p = random_ising(rng, n)
        perm = conjugation_permutation(n, k)
        u = np.zeros((1 << n, 1 << n))
        u[np.arange(1 << n), perm] = 1.0
        conjugated = u @ kron_problem(p) @ u.T
        assert np.allclose(kron_problem(transform(p, k)), conjugated, atol=1e-12)


class TestBackMap:
    def test_first_excited_round_trip(self):
        """The transformed chain's first excited state maps onto the original's."""
        original = IsingProblem(n=5, J=ROW_ISING["J"], h=ROW_ISING["h"])
        transformed = transform(original, 0)

        states = sorted(enumerate_ising(transformed), key=lambda item: item[1])
        first_excited = SpinAssignment(states[1][0], "sigma")
        assert first_excited.values == (-1, -1, 1, -1, 1)
        assert states[1][1] == pytest.approx(-6.06, abs=1e-12)

        mapped = back_map(first_excited, 0)
        assert mapped.values == (-1, 1, -1, 1, -1)
        assert dense_ising_energy(original, mapped.values) == pytest.approx(
            -6.06, abs=1e-12
        )

    def test_control_off_branch_unchanged(self):
        a = SpinAssignment((1, -1, 1), "sigma")
        assert back_map(a, 0) == a

    def test_involution(self):
        a = SpinAssignment((-1, 1, -1, -1), "sigma")
        assert back_map(back_map(a, 2), 2) == a

    def test_q_form_converted(self):
        a = SpinAssignment((0, 1, 0), "q")
        out = back_map(a, 0)
        assert out.form == "q"
        assert out.values == (0, 0, 1)

    def test_energy_preservation_exhaustive(self, rng):
        for n in (2, 5, 8):
            p = random_ising(rng, n)
            for k in range(n):
                transformed = transform(p, k)
                for m in range(1 << n):
                    a = SpinAssignment.from_basis_index(m, n)
                    assert transformed.energy(a) == pytest.approx(
                        p.energy(back_map(a, k)), abs=1e-12
                    )

    def test_ground_state_correspondence_n10(self, rng):
        p = random_ising(rng, 10, density=0.4)
        diag = problem_diagonal(p)
        best = float(diag.min())
        for k in range(10):
            transformed = transform(p, k)
            argmin = int(np.argmin(problem_diagonal(transformed)))
            candidate = back_map(SpinAssignment.from_basis_index(argmin, 10), k)
            assert p.energy(candidate) == pytest.approx(best, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ProblemFormatError):
            back_map(SpinAssignment((1, -1), "sigma"), 5)


class TestSwapComposition:
    def test_golden_row_swap(self):
        p = IsingProblem(n=5, J=ROW_ISING["J"], h=ROW_ISING["h"])
        assert compose_swap(p, 0, 1) == swap_labels(p, 0, 1)

    def test_random_swap_law(self, rng):
        for n in (3, 5, 8):
            p = random_ising(rng, n)
            for i, j in ((0, 1), (1, n - 1), (0, n - 1)):
                assert compose_swap(p, i, j) == swap_labels(p, i, j)

    def test_symmetric_problem_unchanged(self):
        p = IsingProblem(
            n=4,
            J={(i, j): 0.7 for i in range(4) for j in range(i + 1, 4)},
            h=(0.3, 0.3, 0.3, 0.3),
        )
        assert compose_swap(p, 1, 3) == p

    def test_double_swap_identity(self, rng):
        p = random_ising(rng, 5)
        assert compose_swap(compose_swap(p, 0, 3), 0, 3) == p

    def test_equal_pivots_rejected(self):
        p = IsingProblem(n=3, J={}, h=(1, 2, 3))
        with pytest.raises(ProblemFormatError):
            compose_swap(p, 1, 1)
        with pytest.raises(ProblemFormatError):
            swap_labels(p, 2, 2)
        # Both refuse negative and too-large indices instead of wrapping them,
        # so the composition law holds wherever either is defined.
        for swap in (swap_labels, compose_swap):
            for j in (-1, 3, 7):
                with pytest.raises(ProblemFormatError, match=f"spin j={j} out of range for n=3"):
                    swap(p, 0, j)
            with pytest.raises(ProblemFormatError, match="spin i=-3 out of range for n=3"):
                swap(p, -3, 0)
            for bad in (1.0, True, None):
                with pytest.raises(ProblemFormatError, match="spin j must be an integer"):
                    swap(p, 0, bad)
        assert swap_labels(p, np.int64(0), 2).h == (3, 2, 1)


@pytest.mark.parametrize("problem", [mis_chain(MisChainSpec(0.04)), "chain"],
                         ids=["qubo", "str"])
@pytest.mark.parametrize("call", [lambda p: transform(p, 0), lambda p: swap_labels(p, 0, 1),
                                  lambda p: compose_swap(p, 0, 1), problem_diagonal,
                                  lambda p: ScheduleSpec(problem=p)],
                         ids=["transform", "swap_labels", "compose_swap", "problem_diagonal",
                              "ScheduleSpec"])
def test_only_ising_problems_accepted(call, problem):
    kind = type(problem).__name__
    with pytest.raises(TypeError, match=f"needs an IsingProblem, got {kind}; convert a QUBO "
                                        "with qubo_to_ising first"):
        call(problem)


class TestChainPipeline:
    def test_transformed_chain_spectrum(self):
        """Transform preserves the full 32-level spectrum of every chain instance."""
        for delta_b in (0.01, 0.04, 0.08):
            ising = qubo_to_ising(mis_chain(MisChainSpec(delta_b)))
            reference = np.sort(problem_diagonal(ising))
            for k in range(5):
                shuffled = np.sort(problem_diagonal(transform(ising, k)))
                assert np.max(np.abs(shuffled - reference)) <= 1e-9


def kron_flips(n: int, spins) -> np.ndarray:
    """The product of X_i over ``spins`` from Kronecker products (spin i is bit i)."""
    return reduce(np.kron, [PAULI_X if i in spins else np.eye(2) for i in reversed(range(n))])


class TestFlipDriverOracle:
    """The pivot-k schedule is the original problem under the driver
    sum_{i != k} X_i + prod_j X_j, conjugated by the controlled-flip fan."""

    #: Below this relative separation from a neighbouring level, the two
    #: eigensolvers' vectors of E0 or E1 may differ by more than 1e-10.
    SEPARATION = 1e-5

    def check(self, p: IsingProblem, k: int, grid: int) -> None:
        n = p.n
        trace = gap_trace(ScheduleSpec(problem=transform(p, k)), grid, levels=3)
        flips = sum(kron_flips(n, {i}) for i in range(n) if i != k) + kron_flips(n, range(n))
        energies = kron_problem(p)
        perm = conjugation_permutation(n, k)
        for i, s in enumerate(trace.grid):
            w, v = np.linalg.eigh((1.0 - s) * flips + s * energies)
            w, v = w[:3], v[:, :3]
            scale = np.maximum(1.0, np.abs(w))
            assert np.all(np.abs(trace.levels[i] - w[:len(trace.levels[i])]) <= 1e-12 * scale)
            spacing = np.diff(w) / scale.max()
            if spacing[0] > self.SEPARATION:
                assert np.abs(trace.ground_weights[i] - v[perm, 0] ** 2).max() <= 1e-10
                if len(spacing) < 2 or spacing[1] > self.SEPARATION:
                    element = abs(v[:, 1] @ (energies - flips) @ v[:, 0])
                    assert abs(trace.element[i] - element) <= 1e-10

    @pytest.mark.parametrize("delta_b", [0.01, 0.04, 0.08])
    def test_chain(self, delta_b):
        p = qubo_to_ising(mis_chain(MisChainSpec(delta_b)))
        for k in range(p.n):
            self.check(p, k, 101)

    @settings(max_examples=25, deadline=None)
    @given(problem=ising_problems(), pivot=st.integers(0, 5))
    def test_random_problems(self, problem, pivot):
        self.check(problem, pivot % problem.n, 21)
