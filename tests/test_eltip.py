"""Coefficient-exchange transform: golden rows, algebra laws, spectra, back-mapping."""

import numpy as np
import pytest

from annealgap import (
    IsingProblem,
    MisChainSpec,
    ProblemFormatError,
    SpinAssignment,
    back_map,
    compose_swap,
    mis_chain,
    problem_diagonal,
    qubo_to_ising,
    swap_labels,
    transform,
)
from conftest import (
    ROW_ISING,
    ROW_ISING_H0,
    assert_coefficients,
    dense_ising_energy,
    enumerate_ising,
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
        p = IsingProblem(n=3, J={}, h=(0, 0, 0))
        with pytest.raises(ProblemFormatError):
            transform(p, 3)

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
        p = IsingProblem(n=3, J={}, h=(0, 0, 0))
        with pytest.raises(ProblemFormatError):
            compose_swap(p, 1, 1)
        with pytest.raises(ProblemFormatError):
            swap_labels(p, 2, 2)


class TestChainPipeline:
    def test_transformed_chain_spectrum(self):
        """Transform preserves the full 32-level spectrum of every chain instance."""
        for delta_b in (0.01, 0.04, 0.08):
            ising = qubo_to_ising(mis_chain(MisChainSpec(delta_b)))
            reference = np.sort(problem_diagonal(ising))
            for k in range(5):
                shuffled = np.sort(problem_diagonal(transform(ising, k)))
                assert np.max(np.abs(shuffled - reference)) <= 1e-9
