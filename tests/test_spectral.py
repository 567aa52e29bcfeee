"""Spectral engine: eigensolver contract, traces, min-gap, detection, fits."""

import ctypes
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from annealgap import (
    DegenerateLevelsError,
    EigensolverError,
    FitWindowError,
    IsingProblem,
    MisChainSpec,
    NONSTOQUASTIC,
    ProblemFormatError,
    STOQUASTIC,
    ScheduleSpec,
    SpectralTrace,
    detect_anticrossing,
    epsilon,
    fit_hyperbola,
    gap_trace,
    hamiltonian_at,
    min_gap,
    mis_chain,
    overlap_trace,
    qubo_to_ising,
    save_problem,
    t_approx,
    transform,
)
import annealgap
from annealgap import _blas, cli, spectral
from annealgap.cli import _sweep_cell
from annealgap.operators import _schedule_product, schedule_matrix
from conftest import ising_problems, kron_schedule, random_ising

SQRT2 = math.sqrt(2.0)


def two_level() -> ScheduleSpec:
    return ScheduleSpec(problem=IsingProblem(n=1, J={}, h=(1.0,)))


def chain_schedule(
    delta_b: float, pivot: int | None = None, driver: str = STOQUASTIC
) -> ScheduleSpec:
    ising = qubo_to_ising(mis_chain(MisChainSpec(delta_b)))
    if pivot is not None:
        ising = transform(ising, pivot)
    return ScheduleSpec(problem=ising, driver=driver)


def interior_minima(gap: np.ndarray) -> list[int]:
    """Indices of the strict interior local minima of a traced gap."""
    return [k for k in range(1, len(gap) - 1) if gap[k - 1] > gap[k] < gap[k + 1]]


def two_level_gap(s: float) -> float:
    return 2.0 * math.sqrt((1 - s) ** 2 + s * s)


def two_level_element(s: float) -> float:
    """Closed-form |<E1| dH/ds |E0>| for the single-spin schedule."""
    return 1.0 / math.sqrt((1 - s) ** 2 + s * s)


def kron_derivative(sched: ScheduleSpec, s: float) -> np.ndarray:
    """dH/ds from the Kronecker-product oracle of conftest."""
    return kron_schedule(sched.problem, sched.driver, s)[1]


def product_derivative(sched: ScheduleSpec, s: float) -> np.ndarray:
    """dH/ds as the matrix-free product applied to the identity: the oracle's
    Kronecker products are slow from 9 spins up."""
    return _schedule_product(sched, s, np.eye(1 << sched.n), derivative=True)


class TestFullSpectrum:
    """``_solve`` keeping every level: ||M - V diag(w) V^T||_max <= 1e-9 ||M||_max
    and ||V^T V - I||_max <= 1e-10."""

    def test_pauli_x(self):
        w, v = spectral._solve(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5, keep=2)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(2), atol=1e-12)

    def test_diagonal_operator(self):
        diag = np.array([3.0, -1.0, 2.0, 0.0])
        w, v = spectral._solve(np.diag(diag), 0.5, keep=4)
        assert np.array_equal(w, np.sort(diag))
        assert np.allclose(np.abs(v), np.abs(v.round()), atol=1e-12)

    def test_residual_contract_random(self, rng):
        a = rng.normal(size=(32, 32))
        m = a + a.T
        w, v = spectral._solve(m.copy(), 0.5, keep=32)  # dsyevr overwrites its input
        scale = np.abs(m).max()
        assert np.abs(m - v @ np.diag(w) @ v.T).max() <= 1e-9 * scale
        assert np.abs(v.T @ v - np.eye(32)).max() <= 1e-10


class TestGapTrace:
    def test_eigensolver_failure_names_s(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigensolverError, match=r"at s=0\.0"):
            gap_trace(two_level(), 11)

    def test_two_level_analytic(self):
        trace = gap_trace(two_level(), 101)
        expected = [two_level_gap(s) for s in trace.grid]
        assert np.allclose(trace.gap, expected, atol=1e-12)
        assert trace.gap[0] == pytest.approx(2.0, abs=1e-12)
        assert trace.gap[-1] == pytest.approx(2.0, abs=1e-12)

    def test_grid_uniform_with_endpoints(self):
        trace = gap_trace(two_level(), 11)
        assert np.allclose(trace.grid, np.linspace(0, 1, 11), atol=0)

    def test_final_gap_equals_delta_b(self):
        trace = gap_trace(chain_schedule(0.04), 201)
        assert trace.gap[-1] == pytest.approx(0.04, abs=1e-9)

    def test_final_gap_survives_transform(self):
        trace = gap_trace(chain_schedule(0.01, pivot=0), 201)
        assert trace.gap[-1] == pytest.approx(0.01, abs=1e-9)

    def test_levels_sorted_and_gap_nonnegative(self):
        trace = gap_trace(chain_schedule(0.04), 201)
        assert np.all(np.diff(trace.levels, axis=1) >= 0)
        assert np.all(trace.gap >= 0)

    @pytest.mark.parametrize(
        "size, bad",
        [("grid_points", 2.5), ("grid_points", 11.0), ("grid_points", True),
         ("levels", 2.5), ("levels", True)],
    )
    def test_sizes_must_be_integers(self, size, bad):
        sizes = {"grid_points": 11, size: bad}
        with pytest.raises(ProblemFormatError, match=rf"{size} must be an integer, got {bad!r}"):
            gap_trace(chain_schedule(0.04), **sizes)

    @pytest.mark.parametrize("levels", [0, 1, -3])
    def test_fewer_than_two_levels_rejected(self, levels):
        with pytest.raises(ValueError, match=rf"levels must be at least 2, got {levels}"):
            gap_trace(two_level(), 11, levels=levels)

    def test_numpy_integer_sizes_accepted(self):
        trace = gap_trace(chain_schedule(0.04), np.int64(11), levels=np.int32(3))
        assert trace.levels.shape == (11, 3)

    def test_gap_is_difference_of_lowest_levels(self):
        trace = gap_trace(chain_schedule(0.04), 201)
        assert np.array_equal(trace.gap, trace.levels[:, 1] - trace.levels[:, 0])

    def test_transform_preserves_final_levels_only(self):
        base = gap_trace(chain_schedule(0.04), 41)
        moved = gap_trace(chain_schedule(0.04, pivot=0), 41)
        assert np.allclose(base.levels[-1], moved.levels[-1], atol=1e-9)
        assert not np.allclose(base.levels[20], moved.levels[20], atol=1e-3)

    def test_eigenvalue_continuity_bound(self):
        sched = chain_schedule(0.04)
        trace = gap_trace(sched, 101)
        dim = 1 << sched.n
        for i in range(len(trace.grid) - 1):
            dh = (
                hamiltonian_at(sched, trace.grid[i + 1]).matrix
                - hamiltonian_at(sched, trace.grid[i]).matrix
            )
            bound = np.abs(dh).max() * dim
            assert np.abs(trace.levels[i + 1] - trace.levels[i]).max() <= bound

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            gap_trace(two_level(), 1)


class TestMinGap:
    def test_two_level_analytic(self):
        result = min_gap(gap_trace(two_level(), 2001))
        assert result.s_star == pytest.approx(0.5, abs=1e-6)
        assert result.delta_min == pytest.approx(SQRT2, abs=1e-9)
        assert result.interior

    def test_refinement_never_increases(self):
        sched = chain_schedule(0.01)
        trace = gap_trace(sched, 2001)
        result = min_gap(trace)
        assert result.delta_min <= trace.gap.min()

    def test_chain_interior_anticrossing(self):
        result = min_gap(gap_trace(chain_schedule(0.04), 2001))
        assert result.interior
        assert result.s_star == pytest.approx(0.747902, abs=1e-4)
        assert result.delta_min == pytest.approx(1.822812e-3, rel=1e-4)
        assert result.delta_min < 0.04 / 10

    def test_transformed_chain_minimum_near_end(self):
        result = min_gap(gap_trace(chain_schedule(0.04, pivot=0), 2001))
        assert not result.interior
        assert result.s_star >= 0.999
        assert result.delta_min == pytest.approx(3.999198e-2, rel=1e-4)

    def test_sub_grid_dip_next_to_endpoint_found(self):
        # the 0.01 transform dips below the final gap inside the last grid step
        result = min_gap(gap_trace(chain_schedule(0.01, pivot=0), 2001))
        assert not result.interior
        assert result.delta_min < 0.01
        assert result.delta_min == pytest.approx(9.999875e-3, rel=1e-4)

    @pytest.mark.parametrize("grid", [201, 2001])
    @pytest.mark.parametrize("driver", [STOQUASTIC, NONSTOQUASTIC])
    def test_rounding_noise_minimum_is_degenerate(self, driver, grid):
        # At delta_b = 1e-9 the refined gap near s = 0.99995 is 5e-12 to 1.1e-11,
        # below the degeneracy tolerance 1e-12 x max |level| = 1.2e-11.
        trace = gap_trace(chain_schedule(1e-9, driver=driver), grid, levels=2)
        with pytest.raises(DegenerateLevelsError, match=r"degenerate at s=0\.9999"):
            min_gap(trace)

    def test_minimum_above_the_tolerance_is_reported(self):
        trace = gap_trace(chain_schedule(1e-7), 201, levels=2)
        result = min_gap(trace)
        assert 5e-11 < result.delta_min < 6e-11
        assert result.interior and 0.9994 < result.s_star < 0.9995

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            min_gap(gap_trace(two_level(), 2001), s_tol=0.0)

    @pytest.mark.parametrize("s_tol", [-1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, s_tol):
        with pytest.raises(ValueError, match="s_tol"):
            min_gap(gap_trace(two_level(), 11), s_tol=s_tol)

    @pytest.mark.parametrize("s_tol", [True, "1e-6", None])
    def test_tolerance_must_be_a_number(self, s_tol):
        with pytest.raises(ProblemFormatError, match=rf"s_tol must be a number, got {s_tol!r}"):
            min_gap(gap_trace(two_level(), 11), s_tol=s_tol)


class TestDetectAnticrossing:
    def test_two_level_single_crossing(self):
        trace = gap_trace(two_level(), 201)
        found = detect_anticrossing(trace)
        assert len(found) == 1
        assert found[0].s == pytest.approx(0.5, abs=1e-6)
        assert found[0].gap == pytest.approx(SQRT2, abs=1e-9)

    def test_monotone_trace_empty(self):
        # the pivot-2 transform of the 0.01 chain narrows to its final gap without a dip
        trace = gap_trace(chain_schedule(0.01, pivot=2), 2001)
        assert interior_minima(trace.gap) == []
        assert detect_anticrossing(trace) == []

    def test_chain_has_exactly_one(self):
        found = detect_anticrossing(gap_trace(chain_schedule(0.01), 2001))
        assert len(found) == 1
        assert found[0].s == pytest.approx(0.854450, abs=1e-4)

    @pytest.mark.parametrize("delta_b", [0.01, 0.04])
    def test_transformed_chain_has_none(self, delta_b):
        found = detect_anticrossing(gap_trace(chain_schedule(delta_b, pivot=0), 2001))
        assert found == []

    def test_insignificant_dip_filtered_without_schedule(self):
        # the pivot-0 transform of the 0.04 chain has two strict interior
        # minima, neither undercutting the final gap by the 1% margin
        trace = gap_trace(chain_schedule(0.04, pivot=0), 2001)
        assert len(interior_minima(trace.gap)) == 2
        assert detect_anticrossing(trace) == []

    def test_significant_dip_detected_without_schedule(self):
        # the non-stoquastic 0.04 chain: a shallow dip near s = 0.455 and a
        # real anti-crossing near s = 0.7595
        trace = gap_trace(chain_schedule(0.04, driver=NONSTOQUASTIC), 2001)
        assert len(interior_minima(trace.gap)) == 2
        found = detect_anticrossing(trace)
        assert len(found) == 1
        assert found[0].s == pytest.approx(0.75948, abs=1e-5)
        assert found[0].gap == pytest.approx(7.5779e-3, rel=1e-4)

    @pytest.mark.parametrize("delta_b, near", [(1e-9, 0.99995), (1e-7, 0.9995)])
    def test_dip_below_the_degeneracy_tolerance_raises(self, delta_b, near):
        # A grid point next to the chain's crossing holds its gap minimum
        # inside the trace. Refined, it is 6.7e-12 at delta_b = 1e-9, below the
        # tolerance of 1.2e-11, and 3.7e-11 at 1e-7, above it.
        sched = chain_schedule(delta_b)
        trace = spectral._scan(sched, np.array([0.0, 0.5, 2 * near - 1.0, near, 1.0]), 2)
        assert interior_minima(trace.gap) == [3]
        if delta_b < 1e-8:
            with pytest.raises(DegenerateLevelsError, match=r"degenerate at s=0\.9999"):
                detect_anticrossing(trace)
        else:
            [found] = detect_anticrossing(trace)
            assert found == min_gap(trace)[:2] and 3e-11 < found.gap < 4e-11

    @pytest.mark.parametrize("s_tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, s_tol):
        # the 0.04 chain has one interior minimum to refine, its pivot-2
        # transform none: the tolerance is checked either way
        for trace in (gap_trace(chain_schedule(0.04), 101),
                      gap_trace(chain_schedule(0.04, pivot=2), 201)):
            with pytest.raises(ValueError, match="s_tol"):
                detect_anticrossing(trace, s_tol=s_tol)


class TestEpsilon:
    def test_two_level_closed_form(self):
        got = epsilon(gap_trace(two_level(), 2001))
        oracle = max(two_level_element(s) for s in np.linspace(0, 1, 2001))
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(SQRT2, abs=1e-6)

    def test_two_level_profile_matches_oracle(self):
        # spot-check the underlying matrix element at several s values
        sched = two_level()
        for s in (0.1, 0.3, 0.5, 0.9):
            w, v = np.linalg.eigh(schedule_matrix(sched, s))
            element = abs(v[:, 1] @ kron_derivative(sched, s) @ v[:, 0])
            assert element == pytest.approx(two_level_element(s), abs=1e-12)

    def test_cauchy_schwarz_bound(self):
        sched = chain_schedule(0.04)
        got = epsilon(gap_trace(sched, 401))
        norm = np.abs(np.linalg.eigvalsh(kron_derivative(sched, 0.5))).max()
        assert got <= norm + 1e-9

    def test_chain_order_of_problem_scale(self):
        got = epsilon(gap_trace(chain_schedule(0.04), 2001))
        assert got == pytest.approx(1.0126043, rel=1e-6)
        assert 0.1 < got < 20.0

    def test_degenerate_final_levels_reported(self):
        sched = chain_schedule(0.0)
        with pytest.raises(DegenerateLevelsError, match="s=1.0"):
            epsilon(gap_trace(sched, 101))

    @staticmethod
    def search_and_exhaustive(sched: ScheduleSpec, grid: int) -> tuple[float, float] | None:
        """epsilon and the largest element over the arg-max bracket's 19 samples.

        None where E1 meets E0 or E2 at a sample: there the element depends on
        the solver's basis within that level, so no maximum of it is defined.
        """
        trace = gap_trace(sched, grid, 2)
        i = int(np.argmax(trace.element))
        lo, hi = trace.grid[max(i - 1, 0)], trace.grid[min(i + 1, grid - 1)]
        samples = np.linspace(lo, hi, 21)[1:-1]
        levels = spectral._scan(sched, samples, min(3, 1 << sched.n)).levels
        if spectral._degenerate(np.diff(levels, axis=1).min(axis=1), levels).any():
            return None
        exhaustive = max(trace.element[i], spectral._scan(sched, samples, 2).element.max())
        return epsilon(trace), exhaustive

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        driver=st.sampled_from([STOQUASTIC, NONSTOQUASTIC]),
        grid=st.integers(11, 201),
    )
    def test_search_finds_the_largest_of_the_19_samples(self, n, seed, driver, grid):
        # Random couplings, not ising_problems(): its equal coefficients make
        # many problems symmetric, with a degenerate E1 along the whole path.
        # From grid 11 on, brackets of at most 0.2 keep the element unimodal;
        # across a bracket of 0.5 or more (grid 5 or less) it need not be.
        problem = random_ising(np.random.default_rng(seed), n)
        found = self.search_and_exhaustive(ScheduleSpec(problem=problem, driver=driver), grid)
        assume(found is not None)
        assert found[0] == found[1]

    @pytest.mark.parametrize("driver, pivot", [(STOQUASTIC, None), (NONSTOQUASTIC, None),
                                               (STOQUASTIC, 0)])
    def test_chain_search_finds_the_largest_of_the_19_samples(self, driver, pivot):
        sched = chain_schedule(0.04, pivot, driver)
        searched, exhaustive = self.search_and_exhaustive(sched, 2001)
        assert searched == exhaustive

    def test_search_visits_a_unimodal_maximum(self):
        for count in range(1, 40):
            for peak in range(count):
                values = -np.abs(np.arange(count) - peak)
                seen = []
                spectral._fibonacci(lambda j: seen.append(j) or values[j], count)
                assert peak in seen and len(seen) == len(set(seen))
                if count == 19:  # epsilon's samples
                    assert len(seen) <= 6


class TestTApprox:
    def test_reference_values(self):
        assert t_approx(SQRT2) == pytest.approx(0.5, abs=1e-15)
        assert t_approx(0.01) == pytest.approx(10_000.0, rel=1e-12)
        assert t_approx(0.1) == pytest.approx(100.0, rel=1e-12)

    def test_inverse_identity(self):
        for delta in (1e-4, 0.3, 7.0):
            assert t_approx(delta) * delta * delta == pytest.approx(1.0, abs=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            t_approx(0.0)
        with pytest.raises(ValueError):
            t_approx(-1.0)
        with pytest.raises(ValueError, match="delta_min must be positive, got nan"):
            t_approx(float("nan"))

    @pytest.mark.parametrize("delta", [math.inf, np.float64(np.inf)])
    def test_infinite_rejected(self, delta):
        with pytest.raises(ValueError, match="delta_min must be finite, got inf"):
            t_approx(delta)

    @pytest.mark.parametrize(
        "delta", [1e-200, np.float64(1e-200), 5e-324], ids=["float", "numpy", "subnormal"]
    )
    def test_reciprocal_square_overflow_rejected(self, delta):
        # 1/delta^2 exceeds the largest float for delta below about 7.5e-155
        with pytest.raises(ValueError, match="delta_min is too small"):
            t_approx(delta)


def fit_case(s_star, delta_min, message, window=0.05):
    """A ``fit_hyperbola`` argument case; its id names ``window`` only where it is not 0.05."""
    shown = (s_star, delta_min) if window == 0.05 else (f"window={window!r}",)
    case_id = "-".join(map(str, shown + (message,)))
    return pytest.param(s_star, delta_min, window, message, id=case_id)


class TestFitHyperbola:
    def test_two_level_exact(self):
        sched = two_level()
        trace = gap_trace(sched, 2001)
        result = min_gap(trace)
        fit = fit_hyperbola(trace, result.s_star, result.delta_min)
        assert fit.a == pytest.approx(2.0 * SQRT2, abs=1e-6)
        assert fit.b == pytest.approx(0.0, abs=1e-9)
        assert fit.e_center == pytest.approx(0.0, abs=1e-9)
        assert fit.residual <= 1e-9
        # s = 0.45 through 0.5495 at step 5e-4; 0.55 lies 4e-17 beyond the window.
        assert fit.points == 200

    def test_synthetic_recovery(self):
        # H(s) = (1-s) X + s (Z + c): levels s c +- sqrt(1/2 + 2 (s - 1/2)^2),
        # a hyperbola with A = 2 sqrt(2), B = c and E(s*) = c / 2
        for offset in (0.7, -2.0):
            sched = ScheduleSpec(problem=IsingProblem(n=1, h=(1.0,), offset=offset))
            trace = gap_trace(sched, 2001)
            result = min_gap(trace)
            fit = fit_hyperbola(trace, result.s_star, result.delta_min)
            assert fit.a == pytest.approx(2.0 * SQRT2, abs=1e-12)
            assert fit.b == pytest.approx(offset, abs=1e-12)
            assert fit.e_center == pytest.approx(offset / 2.0, abs=1e-12)
            assert fit.residual <= 1e-14

    def test_window_too_small(self):
        trace = gap_trace(two_level(), 101)
        with pytest.raises(FitWindowError, match="at least 5"):
            fit_hyperbola(trace, 0.5, SQRT2, window=0.015)

    @pytest.mark.parametrize(
        "s_star, delta_min, window, message",
        [fit_case(math.nan, SQRT2, "s_star must be finite"),
         fit_case(math.inf, SQRT2, "s_star must be finite"),
         fit_case(0.5, math.nan, "delta_min must be finite"),
         fit_case(0.5, math.inf, "delta_min must be finite"),
         fit_case(0.5, -1e-3, "delta_min must be >= 0"),
         fit_case(0.5, SQRT2, "window must be a number", window="x"),
         fit_case(0.5, SQRT2, "window must be a number", window=True),
         fit_case(0.5, SQRT2, "window must be positive", window=-1.0),
         fit_case(0.5, SQRT2, "window must be positive", window=0.0),
         fit_case(0.5, SQRT2, "window must be finite", window=math.inf),
         fit_case(0.5, SQRT2, "window must be finite", window=math.nan)],
    )
    def test_arguments_checked(self, s_star, delta_min, window, message):
        trace = gap_trace(two_level(), 101)
        with pytest.raises(ValueError, match=message):
            fit_hyperbola(trace, s_star, delta_min, window)

    def test_high_residual_is_returned(self):
        # The chain's misfit is a value for the caller to judge; no warning is
        # raised, which the suite's error filter would turn into a failure.
        sched = chain_schedule(0.04)
        trace = gap_trace(sched, 2001)
        result = min_gap(trace)
        fit = fit_hyperbola(trace, result.s_star, result.delta_min)
        assert fit.residual > 0.1 * result.delta_min
        assert fit.a > 0 and math.isfinite(fit.a) and math.isfinite(fit.b)

    def test_chain_fit_stable_in_tight_window(self):
        sched = chain_schedule(0.04)
        trace = gap_trace(sched, 2001)
        result = min_gap(trace)
        fit = fit_hyperbola(trace, result.s_star, result.delta_min, window=0.01)
        finer = gap_trace(sched, 4001)
        refit = fit_hyperbola(finer, result.s_star, result.delta_min, window=0.01)
        assert fit.a == pytest.approx(refit.a, rel=0.02)
        assert fit.b == pytest.approx(refit.b, rel=0.02)
        assert fit.residual < 1e-3


def matrices(a) -> int:
    """Matrices in one matrix or in a stack of them."""
    return math.prod(np.shape(a)[:-2])


@pytest.fixture
def solve_counts(monkeypatch):
    """Matrices diagonalized by each dense symmetric eigensolver while the test runs.

    numpy's ``eigh`` and ``eigvalsh`` count each matrix of a stacked call;
    LAPACK's dsyevr, called through ``_blas.SYEVR`` once per matrix,
    counts each call.
    """
    counts = {"eigh": 0, "eigvalsh": 0, "dsyevr": 0}
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            counts[_name] += matrices(a)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    if _blas.SYEVR is not None:
        syevr = _blas.SYEVR

        def dsyevr(*args):
            counts["dsyevr"] += 1
            return syevr(*args)

        dsyevr.restype = syevr.restype
        monkeypatch.setattr(_blas, "SYEVR", dsyevr)
    return counts


def solves(eigh: int = 0, dsyevr: int = 0) -> dict:
    """``solve_counts`` after ``eigh`` and ``dsyevr`` matrices were asked for.

    Without a bundled dsyevr numpy's ``eigh`` solves every matrix, each once.
    """
    if _blas.SYEVR is None:
        return {"eigh": eigh + dsyevr, "eigvalsh": 0, "dsyevr": 0}
    return {"eigh": eigh, "eigvalsh": 0, "dsyevr": dsyevr}


def section_evaluations(width: float, s_tol: float) -> int:
    """Gap evaluations of a Fibonacci search of the samples ``s_tol`` apart inside ``width``.

    Its first bracket spans F(m) sample indices, the first Fibonacci number
    above the sample count, and it probes m - 2 of them, provided none falls
    past the last sample.
    """
    count = math.ceil(width / s_tol) - 1
    fib = [1, 1]
    while fib[-1] <= count:
        fib.append(fib[-1] + fib[-2])
    return len(fib) - 2


class TestSingleScan:
    GRID = 101
    S_TOL = 1e-6
    #: Brent evaluations of the gap slope that narrow the 0.04 chain's
    #: bracket of two grid steps around its crossing to S_TOL.
    REFINE = 6
    #: Samples the Fibonacci search of ``epsilon`` visits among the 19 of the
    #: 0.04 chain's arg-max bracket.
    SEARCH = 5

    def test_consumers_read_the_trace(self, solve_counts):
        trace = gap_trace(chain_schedule(0.04), self.GRID)
        # eigh solves s = 0 and s = 1, dsyevr the 6 levels everywhere else.
        assert solve_counts == solves(eigh=2, dsyevr=self.GRID - 2)
        solve_counts.update(eigh=0, dsyevr=0)
        min_gap(trace, s_tol=self.S_TOL)
        assert solve_counts == solves(dsyevr=self.REFINE)
        overlap_trace(trace)
        assert solve_counts == solves(dsyevr=self.REFINE)
        epsilon(trace)  # only the search around the arg-max
        assert solve_counts == solves(dsyevr=self.REFINE + self.SEARCH)

    def test_analyze_solve_counts(self, tmp_path, solve_counts):
        path = tmp_path / "chain.json"
        save_problem(mis_chain(MisChainSpec(0.04)), path)
        rc = cli.main(["analyze", "--problem", str(path), "--grid", str(self.GRID),
                       "--s-tol", str(self.S_TOL), "--out", str(tmp_path / "run_")])
        assert rc == 0
        assert solve_counts == solves(eigh=2, dsyevr=self.GRID - 2 + self.SEARCH + self.REFINE)

    def test_sweep_cell_solve_counts(self, solve_counts):
        # Two levels throughout; eigh solves s = 0 and s = 1, dsyevr the 49
        # other points of the coarse pass (every second grid point), the 4
        # odd points its grid search adds (1, 35, 37 and 75) and the rest.
        _sweep_cell(0.04, "stoquastic", self.GRID, self.S_TOL)
        assert solve_counts == solves(eigh=2, dsyevr=49 + 4 + self.SEARCH + self.REFINE)


def sweep_schedule(delta_b: float, method: str) -> ScheduleSpec:
    """The schedule of one ``sweep`` cell."""
    if method == "nonstoquastic":
        return chain_schedule(delta_b, driver=NONSTOQUASTIC)
    if method == "stoquastic":
        return chain_schedule(delta_b)
    return chain_schedule(delta_b, pivot=int(method.removeprefix("eltip-k")))


def sweep_cell_text(*cell) -> str:
    """``_sweep_cell``'s result as its repr, or its error as text, as ``sweep`` writes it."""
    try:
        return repr(_sweep_cell(*cell))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def full_scan_cell_text(*cell) -> str:
    """``sweep_cell_text`` with the cell's trace from a full ``gap_trace``."""
    with mock.patch.object(cli, "_extrema_trace", gap_trace):
        return sweep_cell_text(*cell)


class TestExtremaTrace:
    """The coarse-to-fine grid search of a sweep cell against the full scan, bit for bit."""

    # The default sweep's 35 cells, the benchmark's 14 among them.
    @pytest.mark.parametrize("method", cli.SWEEP_METHODS)
    @pytest.mark.parametrize("delta_b", cli.SWEEP_DELTA_BS)
    def test_benchmark_cells_match_the_full_scan(self, delta_b, method):
        sched = sweep_schedule(delta_b, method)
        trace = spectral._extrema_trace(sched, 2001, 2)
        full = gap_trace(sched, 2001, 2)
        rows = np.searchsorted(full.grid, trace.grid)
        assert np.array_equal(full.grid[rows], trace.grid)
        for name in ("levels", "element", "ground_weights", "slope"):
            assert np.array_equal(getattr(full, name)[rows], getattr(trace, name)), name
        # Both extrema are kept with their grid neighbours, as _refine and epsilon read them.
        for k in (int(np.argmin(full.gap)), int(np.argmax(full.element))):
            assert {max(k - 1, 0), k, min(k + 1, 2000)} <= set(rows.tolist())
        assert len(rows) < 110
        assert sweep_cell_text(delta_b, method, 2001, 1e-6) == full_scan_cell_text(
            delta_b, method, 2001, 1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        delta_b=st.sampled_from([0.0, 1e-9, 1e-7]) | st.floats(0.0, 10.0),
        method=st.sampled_from(list(cli.SWEEP_METHODS)),
        grid=st.integers(2, 401),
    )
    @example(delta_b=0.0, method="stoquastic", grid=2)
    @example(delta_b=1e-9, method="nonstoquastic", grid=401)
    def test_sweep_cell_matches_the_full_scan(self, delta_b, method, grid):
        cell = (delta_b, method, grid, 1e-6)
        assert sweep_cell_text(*cell) == full_scan_cell_text(*cell)

    def test_benchmark_cells_solve_counts(self, solve_counts):
        for delta_b in (0.01, 0.04):
            for method in cli.SWEEP_METHODS:
                _sweep_cell(delta_b, method, 2001, 1e-6)
        # Full scans of the same cells take 28 + 28,100.
        assert solve_counts == solves(eigh=28, dsyevr=1150)

    def test_dip_behind_a_shallower_coarse_minimum(self, monkeypatch):
        # On 2001 points the coarse pass sees every 40th. A broad V has its
        # coarse minimum 0.9 at index 400; a narrow dip at index 1019 shows
        # only 0.9075 at index 1000, a coarse local minimum, yet goes down to
        # 0.8619. The element mirrors the gap about index 1000.
        def gap(i):
            dip = np.maximum(0.0, 1.0 - np.abs(i - 1019) / 40)
            return 0.9 + 1e-4 * np.abs(i - 400) - 0.1 * dip

        def solve_points(sched, s, keep):
            i = np.rint(np.asarray(s) * 2000)
            g, e = gap(i), 2.0 - gap(2000 - i)
            return np.stack([np.zeros_like(g), g], -1), e, np.ones(np.shape(s) + (2,)), 0 * g

        monkeypatch.setattr(spectral, "_solve_points", solve_points)
        trace = spectral._extrema_trace(two_level(), 2001, 2)
        kept = set(np.rint(trace.grid * 2000).astype(int).tolist())
        assert {1018, 1019, 1020, 980, 981, 982} <= kept
        assert trace.gap.min() == gap(1019) and trace.element.max() == 2.0 - gap(1019)

    def test_coarse_pass_covers_a_short_grid(self, solve_counts):
        trace = spectral._extrema_trace(chain_schedule(0.04), 51, 2)
        assert np.array_equal(trace.grid, np.linspace(0.0, 1.0, 51))
        assert solve_counts == solves(eigh=2, dsyevr=49)

    def test_sizes_checked_like_gap_trace(self):
        with pytest.raises(ValueError, match="grid must hold at least 2 points, got 1"):
            spectral._extrema_trace(two_level(), 1, 2)
        with pytest.raises(ValueError, match="levels must be at least 2, got 1"):
            spectral._extrema_trace(two_level(), 11, 1)


def slope_oracle(sched: ScheduleSpec, s: float) -> float:
    """<E1| dH/ds |E1> - <E0| dH/ds |E0> from numpy's full eigh at s."""
    _, v = np.linalg.eigh(schedule_matrix(sched, s))
    dh = kron_derivative(sched, s)
    return float(v[:, 1] @ dh @ v[:, 1] - v[:, 0] @ dh @ v[:, 0])


def slope_root(sched: ScheduleSpec, lo: float, hi: float, xtol: float = 1e-12) -> float:
    """The gap minimum between lo and hi, by bisecting the sign of the gap slope."""
    assert slope_oracle(sched, lo) < 0.0 < slope_oracle(sched, hi)
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if slope_oracle(sched, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGapSlopeRefiner:
    S_TOL = 1e-6

    @pytest.mark.parametrize("driver", [STOQUASTIC, NONSTOQUASTIC])
    def test_slope_is_the_gap_derivative(self, driver):
        sched = chain_schedule(0.04, driver=driver)
        trace = gap_trace(sched, 21)

        def gap(s: float) -> float:
            w = np.linalg.eigvalsh(schedule_matrix(sched, s))
            return w[1] - w[0]

        h = 3e-5  # five-point central difference: truncation and rounding below 1e-8
        for s, slope in zip(trace.grid[1:-1], trace.slope[1:-1]):
            diff = (gap(s - 2 * h) - 8 * gap(s - h) + 8 * gap(s + h) - gap(s + 2 * h)) / (12 * h)
            assert diff == pytest.approx(slope, rel=1e-6)

    @pytest.mark.parametrize("method", cli.SWEEP_METHODS)
    @pytest.mark.parametrize("delta_b", [0.01, 0.04])
    def test_sweep_cells_land_on_the_slope_root(self, delta_b, method, solve_counts):
        sched = sweep_schedule(delta_b, method)
        trace = gap_trace(sched, 2001)
        k = int(np.argmin(trace.gap))
        solve_counts.update(eigh=0, dsyevr=0)
        located = min_gap(trace, s_tol=self.S_TOL)
        assert sum(solve_counts.values()) <= 5
        root = slope_root(sched, trace.grid[max(k - 1, 0)], trace.grid[min(k + 1, 2000)])
        # The hyperbola residual of the stoquastic 0.04 report moves by about
        # 0.025 x the shift of s*, so that cell needs s* far closer than s_tol.
        tol = 2e-8 if (delta_b, method) == (0.04, "stoquastic") else self.S_TOL
        assert abs(located.s_star - root) <= tol
        assert located.delta_min <= trace.gap.min()

    def test_section_fallback_without_a_slope_sign_change(self, solve_counts):
        # On five points the 0.04 non-stoquastic gap rises at both ends of the
        # bracket [0.5, 1] around its crossing near s = 0.7595.
        sched = chain_schedule(0.04, driver=NONSTOQUASTIC)
        trace = gap_trace(sched, 5)
        k = int(np.argmin(trace.gap))
        assert (k, trace.slope[k - 1] > 0.0, trace.slope[k + 1] > 0.0) == (3, True, True)
        solve_counts.update(eigh=0, dsyevr=0)
        located = min_gap(trace, s_tol=self.S_TOL)
        assert solve_counts == solves(dsyevr=section_evaluations(0.5, self.S_TOL))
        assert abs(located.s_star - slope_root(sched, 0.75, 0.77)) <= self.S_TOL
        assert located.interior

    @pytest.fixture
    def bounded_solves(self, monkeypatch):
        """Solves made while the test runs; the 501st fails the test instead of hanging it."""
        solves = [0]
        original = spectral._solve

        def counted(*args, **kwargs):
            solves[0] += 1
            if solves[0] > 500:
                pytest.fail("refinement still running after 500 solves")
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "_solve", counted)
        return solves

    @pytest.mark.parametrize("s_tol", [1e-17, 1e-20, 5e-324])
    def test_section_search_ends_below_float_spacing(self, bounded_solves, s_tol):
        # The fallback's samples in the bracket [0.5, 1] are never closer than 4 ulps of 1.
        trace = gap_trace(chain_schedule(0.04, driver=NONSTOQUASTIC), 5)
        bounded_solves[0] = 0
        located = min_gap(trace, s_tol=s_tol)
        assert detect_anticrossing(trace, s_tol=s_tol) == [located[:2]]
        assert bounded_solves[0] == 2 * section_evaluations(0.5, 4 * spectral._EPS)

    def test_analyze_ends_below_float_spacing(self, bounded_solves, tmp_path, capsys):
        path = tmp_path / "chain.json"
        save_problem(mis_chain(MisChainSpec(0.04)), path)
        rc = cli.main(["analyze", "--problem", str(path), "--driver", "nonstoq", "--grid", "5",
                       "--s-tol", "1e-17", "--out", str(tmp_path / "run_")])
        # The search ends; the 5-point grid is too coarse for the fit, which
        # is left out of the report.
        assert rc == 0
        assert "trace points" in capsys.readouterr().err
        assert json.loads((tmp_path / "run_report.json").read_text())["hyperbola"] is None

    def test_golden_fallback_at_the_schedule_end(self):
        # On three points this non-stoquastic gap is smallest at s = 1 and its
        # slope is positive at both ends of the bracket [0.5, 1], so no slope
        # root is bracketed; the crossing near s = 0.9016 lies inside it.
        problem = IsingProblem(
            n=4,
            J={(0, 1): 1.9032295429328996, (0, 2): 1.2358586787173063,
               (1, 3): 0.21897921210866178, (2, 3): 0.3749567569188166},
            h=(0.7851664080978786, -0.5432371322984813, 0.851032171983563,
               -0.4974425501715922),
        )
        sched = ScheduleSpec(problem=problem, driver=NONSTOQUASTIC)
        trace = gap_trace(sched, 3)
        assert int(np.argmin(trace.gap)) == 2
        assert trace.slope[1] > 0.0 and trace.slope[2] > 0.0
        located = min_gap(trace, s_tol=self.S_TOL)
        fine = gap_trace(sched, 4001)
        k = int(np.argmin(fine.gap))
        root = slope_root(sched, fine.grid[k - 1], fine.grid[k + 1])
        assert abs(located.s_star - root) <= self.S_TOL
        assert located.delta_min <= fine.gap.min()
        assert located.interior

    @settings(max_examples=30, deadline=None)
    @given(
        problem=ising_problems(max_n=5),
        driver=st.sampled_from([STOQUASTIC, NONSTOQUASTIC]),
        grid=st.integers(2, 40),
    )
    def test_refined_gap_never_exceeds_the_scan(self, problem, driver, grid):
        trace = gap_trace(ScheduleSpec(problem=problem, driver=driver), grid)
        s, gap, levels = spectral._refine(trace, int(np.argmin(trace.gap)), self.S_TOL)
        assert gap <= trace.gap.min()
        # min_gap reports that minimum, or raises where it is degenerate.
        if spectral._degenerate(gap, levels):
            with pytest.raises(DegenerateLevelsError, match=re.escape(f"s={s};")):
                min_gap(trace, s_tol=self.S_TOL)
        else:
            assert min_gap(trace, s_tol=self.S_TOL)[:2] == (s, gap)

    @settings(max_examples=30, deadline=None)
    @given(
        problem=ising_problems(max_n=5),
        driver=st.sampled_from([STOQUASTIC, NONSTOQUASTIC]),
        grid=st.integers(3, 12),
    )
    @example(problem=qubo_to_ising(mis_chain(MisChainSpec(0.04))), driver=NONSTOQUASTIC, grid=5)
    def test_section_fallback_finds_the_smallest_sample(self, problem, driver, grid):
        # Without a slope sign change across a bracket [a, b], _refine searches the
        # 199 samples (b - a) / 200 apart; where the gap is unimodal over them, it
        # returns the smallest of grid point k and those samples.
        sched = ScheduleSpec(problem=problem, driver=driver)
        trace = gap_trace(sched, grid)
        for k in range(grid):
            lo, hi = max(k - 1, 0), min(k + 1, grid - 1)
            a, b = trace.grid[lo], trace.grid[hi]
            s_tol = (b - a) / 200
            if trace.slope[lo] < 0.0 < trace.slope[hi] or math.ceil((b - a) / s_tol) != 200:
                continue  # Brent's root search, or 200 samples where the ratio rounds up
            samples = a + s_tol * np.arange(1, 200)
            levels = spectral._solve_points(sched, samples, 2)[0]
            gaps = levels[:, 1] - levels[:, 0]
            m = int(np.argmin(gaps))
            steps = np.diff(gaps)
            if not ((steps[:m] < 0.0).all() and (steps[m:] > 0.0).all()):
                continue
            smallest = ((float(trace.grid[k]), float(trace.gap[k])) if trace.gap[k] <= gaps[m]
                        else (float(samples[m]), float(gaps[m])))
            assert spectral._refine(trace, k, s_tol)[:2] == smallest


def random_schedule(n: int) -> ScheduleSpec:
    """A ring of random couplings and fields on n spins (dimension 2^n)."""
    rng = np.random.default_rng(n)
    couplings = {(i, (i + 1) % n): float(rng.uniform(-1.5, 1.5)) for i in range(n)}
    return ScheduleSpec(problem=IsingProblem(n=n, J=couplings, h=tuple(rng.uniform(-1, 1, n))))


@pytest.fixture
def blas_threads(monkeypatch):
    """(startup count, count seen by each matrix solved) for numpy's bundled OpenBLAS.

    A copy of numpy's namespace stands in for ``spectral.np``, so the count is
    read where ``_solve`` calls ``np.linalg.eigh``, ahead of any eigh a test
    installs there: a matrix whose solve fails counts too. Each dsyevr call
    counts one matrix.
    """
    if _blas._BLAS is None:
        pytest.skip("no bundled OpenBLAS handle: the thread guard is a no-op")
    startup = _blas._BLAS[0]()
    if startup == 1:
        pytest.skip("OpenBLAS already runs one thread: the guard changes nothing")
    seen = []

    def eigh(matrix, *args, **kwargs):
        seen.extend([_blas._BLAS[0]()] * matrices(matrix))
        return np.linalg.eigh(matrix, *args, **kwargs)

    linalg = SimpleNamespace(**{**vars(np.linalg), "eigh": eigh})
    monkeypatch.setattr(spectral, "np", SimpleNamespace(**{**vars(np), "linalg": linalg}))
    if _blas.SYEVR is not None:
        syevr = _blas.SYEVR

        def dsyevr(*args):
            seen.append(_blas._BLAS[0]())
            return syevr(*args)

        dsyevr.restype = syevr.restype
        monkeypatch.setattr(_blas, "SYEVR", dsyevr)
    yield startup, seen
    assert _blas._BLAS[0]() == startup


@pytest.fixture(params=["eigh", "dsyevr"])
def fail_solves(request, monkeypatch):
    """``install(fails)`` makes a solve fail wherever ``fails`` is true of entry (0, 1) of H(s).

    With the "eigh" parameter ``_blas.SYEVR`` is None, so numpy's ``eigh``
    solves every matrix and raises. With "dsyevr" the bundled dsyevr solves
    the matrix, then returns info = 1. Call ``install`` after any fixture
    that wraps ``_blas.SYEVR``: the failing matrix is still solved through it.
    """
    if request.param == "eigh":
        monkeypatch.setattr(_blas, "SYEVR", None)
    elif _blas.SYEVR is None:
        pytest.skip("no bundled LAPACKE dsyevr: every solve takes the numpy path")

    def install(fails) -> None:
        if request.param == "eigh":
            original = np.linalg.eigh

            def eigh(matrix):
                if fails(matrix[0, 1]):
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return original(matrix)

            monkeypatch.setattr(np.linalg, "eigh", eigh)
            return
        syevr = _blas.SYEVR

        def dsyevr(*args):
            # Read before dsyevr overwrites the matrix.
            entry = ctypes.cast(args[5], ctypes.POINTER(ctypes.c_double))[1]
            info = syevr(*args)
            return 1 if fails(entry) else info

        dsyevr.restype = syevr.restype
        monkeypatch.setattr(_blas, "SYEVR", dsyevr)

    return install


class TestSerialBlas:
    @pytest.mark.parametrize("n", [5, 8])
    def test_small_dimensions_solve_on_one_thread(self, blas_threads, n):
        _, seen = blas_threads
        min_gap(gap_trace(random_schedule(n), 3), s_tol=1e-3)
        assert len(seen) > 3 and set(seen) == {1}

    def test_large_dimension_keeps_library_count(self, blas_threads):
        startup, seen = blas_threads
        min_gap(gap_trace(random_schedule(9), 3), s_tol=1e-2)
        assert len(seen) > 3 and set(seen) == {startup}

    def test_count_restored_after_failed_scan(self, blas_threads, fail_solves):
        startup, seen = blas_threads
        fail_solves(lambda entry: entry == 1.0 - 0.1)  # H(0.1) holds 1 - s at (0, 1)
        with pytest.raises(EigensolverError, match=r"at s=0\.1:"):
            gap_trace(chain_schedule(0.04), 11)
        # One block of all 11 points, solved on one thread up to the failing s = 0.1.
        assert seen == [1] * 2
        assert _blas._BLAS[0]() == startup

    def test_last_overlapping_user_restores(self, blas_threads):
        startup, _ = blas_threads
        first, second = _blas.threads(32), _blas.threads(32)
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert _blas._BLAS[0]() == 1
        second.__exit__(None, None, None)
        assert _blas._BLAS[0]() == startup

    def test_concurrent_users_share_the_count(self, blas_threads):
        startup, _ = blas_threads
        inside = []

        def user():
            for _ in range(500):
                with _blas.threads(32):
                    np.linalg.eigvalsh(np.eye(32))
                    inside.append(_blas._BLAS[0]())

        workers = [threading.Thread(target=user) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(inside) == 2000 and set(inside) == {1}
        assert _blas._BLAS[0]() == startup

    def test_count_restored_after_threaded_sweep(self, blas_threads, tmp_path):
        startup, seen = blas_threads
        out = tmp_path / "summary.csv"
        assert cli.main(["sweep", "--delta-b", "0.04,0.08", "--methods", "stoquastic,eltip-k1",
                         "--grid", "51", "--workers", "4", "--out", str(out)]) == 0
        assert len(seen) > 4 * 51 and set(seen) == {1}
        assert _blas._BLAS[0]() == startup


#: Run in a fresh interpreter after FIRST: import annealgap, report OpenBLAS's
#: thread count and the process's threads, then solve one 512 x 512 matrix.
LOAD_PROBE = """
import json, os
{first}
import annealgap
from annealgap import _blas, spectral
import numpy as np

get = _blas._BLAS[0]
report = {{
    "count": get(),
    "tasks": len(os.listdir("/proc/self/task")),
    "variables": {{name: os.environ.get(name) for name in _blas.THREAD_VARIABLES}},
    "loaded_serial": _blas.LOADED_SERIAL,
    "cores": _blas.usable_cores(),
    "seen": [],
}}
syevr = _blas.SYEVR

def dsyevr(*args):
    report["seen"].append(get())
    return syevr(*args)

dsyevr.restype = syevr.restype
_blas.SYEVR = dsyevr
matrix = np.random.default_rng(0).standard_normal((512, 512))
spectral._solve(matrix + matrix.T, 0.5, keep=2)
report["after"] = get()
print(json.dumps(report))
"""


class TestBlasAtLoad:
    """OpenBLAS's thread count in a fresh process, by what came before ``import annealgap``."""

    @staticmethod
    def probe(first: str = "", **variables: str) -> dict:
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count the process's threads")
        if _blas._BLAS is None or _blas.SYEVR is None:
            pytest.skip("no bundled OpenBLAS handle: annealgap leaves the library alone")
        env = {k: v for k, v in os.environ.items() if k not in _blas.THREAD_VARIABLES}
        src = str(Path(annealgap.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update(variables)
        done = subprocess.run(
            [sys.executable, "-c", LOAD_PROBE.format(first=first)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return json.loads(done.stdout)

    def test_first_import_loads_one_thread(self):
        report = self.probe()
        assert report["loaded_serial"] is True
        assert report["count"] == 1 and report["tasks"] == 1
        assert report["variables"] == dict.fromkeys(_blas.THREAD_VARIABLES)  # none left set
        # A dsyevr solve gets one thread per usable core, and gives them back.
        assert report["seen"] == [report["cores"]] and report["after"] == 1

    def test_user_variable_is_kept(self):
        if _blas.usable_cores() < 2:
            pytest.skip("OpenBLAS caps its count at the cores it may use, here 1")
        report = self.probe(OPENBLAS_NUM_THREADS="2")
        assert report["loaded_serial"] is False
        assert report["count"] == 2 and report["variables"]["OPENBLAS_NUM_THREADS"] == "2"
        assert report["seen"] == [2] and report["after"] == 2

    def test_numpy_first_keeps_library_default(self):
        report = self.probe("import numpy")
        assert report["loaded_serial"] is False
        # OpenBLAS started its own pool: one thread per counted core.
        assert report["tasks"] == report["count"]
        assert report["seen"] == [report["count"]] and report["after"] == report["count"]


class TestThreadIndependence:
    @staticmethod
    def run(driver: str):
        """Trace, minimum and epsilon of the chain, on 7 blocks of 32 points."""
        ising = qubo_to_ising(mis_chain(MisChainSpec(0.04)))
        trace = gap_trace(ScheduleSpec(problem=ising, driver=driver), 201)
        return trace, min_gap(trace), epsilon(trace)

    @staticmethod
    def assert_bitwise_equal(first, second):
        for name in ("levels", "element", "ground_weights"):
            assert np.array_equal(getattr(first[0], name), getattr(second[0], name))
        assert first[1:] == second[1:]

    @pytest.mark.parametrize("driver", [STOQUASTIC, NONSTOQUASTIC])
    def test_unguarded_run_is_bitwise_equal(self, monkeypatch, driver):
        guarded = self.run(driver)
        monkeypatch.setattr(_blas, "_BLAS", None)
        self.assert_bitwise_equal(guarded, self.run(driver))

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("driver", [STOQUASTIC, NONSTOQUASTIC])
    def test_scan_worker_count_is_bitwise_equal(self, monkeypatch, driver, workers):
        default = self.run(driver)
        monkeypatch.setattr(_blas, "usable_cores", lambda: workers)
        self.assert_bitwise_equal(default, self.run(driver))


class TestBlockFailure:
    """The solve of H(s) fails at two points in different blocks of a 101-point chain scan.

    At dimension 32 a block holds 32 points, and two pool threads take the
    blocks one at a time. While one thread waits in the second block (points
    32-63), the other finishes the first and fails in the third (points
    64-95). The later point fails first.
    """

    GRID = np.linspace(0.0, 1.0, 101)
    EARLIER, LATER = 40, 70  # in the second block and the third

    @pytest.fixture
    def first_failure(self, monkeypatch, fail_solves):
        later_failed = threading.Event()
        # H(s) holds the driver coefficient 1 - s at entry (0, 1).
        earlier, later = 1.0 - self.GRID[self.EARLIER], 1.0 - self.GRID[self.LATER]

        def fails(entry: float) -> bool:
            if entry == later:
                later_failed.set()
                return True
            if entry == earlier:
                assert later_failed.wait(timeout=30)
                return True
            return False

        monkeypatch.setattr(_blas, "usable_cores", lambda: 2)
        fail_solves(fails)
        return re.escape(f"at s={self.GRID[self.EARLIER]}:")

    def test_first_failing_s_in_grid_order(self, first_failure):
        startup = _blas._BLAS[0]() if _blas._BLAS else None
        before = set(threading.enumerate())
        with pytest.raises(EigensolverError, match=first_failure):
            gap_trace(chain_schedule(0.04), len(self.GRID))
        assert set(threading.enumerate()) == before  # no pool thread outlives the scan
        if startup is not None:
            assert _blas._BLAS[0]() == startup

    def test_analyze_exits_3_without_report(self, first_failure, tmp_path, capsys):
        path = tmp_path / "chain.json"
        save_problem(chain_schedule(0.04).problem, path)
        rc = cli.main(["analyze", "--problem", str(path), "--grid", str(len(self.GRID)),
                       "--out", str(tmp_path / "chain_")])
        assert rc == 3
        assert re.search(first_failure, capsys.readouterr().err)
        assert not (tmp_path / "chain_report.json").exists()


class TestStackFallback:
    """A failed solve raises at once: no matrix is solved again."""

    def test_failed_single_point_is_solved_once(self, monkeypatch):
        # At dimension 256 a block holds one point. Without dsyevr numpy's
        # eigh solves it.
        monkeypatch.setattr(_blas, "SYEVR", None)
        sched = random_schedule(8)
        failing = schedule_matrix(sched, 0.5)
        original = np.linalg.eigh
        failures = []

        def eigh(matrix):
            if np.array_equal(matrix, failing):
                failures.append(matrix.shape)
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(matrix)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(EigensolverError, match=r"at s=0\.5: Eigenvalues"):
            gap_trace(sched, 3)
        assert failures == [(256, 256)]


class TestBlockScanProperty:
    """The threaded block scan against one solve per point, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        problem=ising_problems(),
        driver=st.sampled_from([STOQUASTIC, NONSTOQUASTIC]),
        grid=st.integers(2, 300),
        workers=st.integers(1, 4),
    )
    # 2 blocks of 32 points at dimension 32, the last one short, on 4 workers.
    @example(problem=chain_schedule(0.04).problem, driver=STOQUASTIC, grid=37, workers=4)
    @example(problem=chain_schedule(0.04).problem, driver=NONSTOQUASTIC, grid=2, workers=3)
    def test_matches_per_point_reference(self, problem, driver, grid, workers):
        sched = ScheduleSpec(problem=problem, driver=driver)
        with mock.patch.object(_blas, "usable_cores", lambda: workers):
            trace = gap_trace(sched, grid)
        keep = trace.levels.shape[1]
        for i, s in enumerate(trace.grid):
            w, v = spectral._solve(schedule_matrix(sched, s), s, keep=keep)
            pair = np.ascontiguousarray(v[:, :2].T)
            products = pair @ _schedule_product(sched, s, pair, derivative=True).T
            element = abs(products[1, 0])
            assert np.array_equal(trace.levels[i], w)
            assert np.array_equal(trace.element[i], element)
            assert np.array_equal(trace.ground_weights[i], v[:, 0] ** 2)


def dense_n9() -> ScheduleSpec:
    """A seeded random 9-spin problem: dimension 512, above SERIAL_BLAS_MAX_DIM."""
    return ScheduleSpec(problem=random_ising(np.random.default_rng(9), 9))


def dense_n10(driver: str = STOQUASTIC) -> ScheduleSpec:
    """A seeded random 10-spin problem: dimension 1024, where ``_krylov`` solves first."""
    return ScheduleSpec(problem=random_ising(np.random.default_rng(10), 10), driver=driver)


def tied_schedule() -> ScheduleSpec:
    """5 spins whose second- and third-lowest energies tie at -12, with no spin symmetry.

    E1 = E2 holds at s = 0 (the driver) and at s = 1 only: inside, up to
    s = 0.95, the three lowest levels stay more than 0.014 apart.
    """
    couplings = {(0, 1): 1.0, (0, 3): 2.0, (0, 4): 3.0, (1, 4): 1.0, (2, 4): -3.0}
    return ScheduleSpec(problem=IsingProblem(n=5, J=couplings, h=(3.0, -2.0, 3.0, -3.0, 1.0)))


def free_spins_schedule() -> ScheduleSpec:
    """5 uncoupled spins in equal fields: E1 is 5-fold degenerate at every s."""
    return ScheduleSpec(problem=IsingProblem(n=5, h=(0.5,) * 5))


@pytest.fixture(scope="module")
def n9_trace():
    return gap_trace(dense_n9(), 5)


@pytest.fixture
def syevr():
    if _blas.SYEVR is None:
        pytest.skip("no bundled LAPACKE dsyevr: every solve takes the numpy path")
    return _blas.SYEVR


class TestLowestLevels:
    """dsyevr's lowest levels above dimension 256 against numpy's full eigh."""

    S_INTERIOR = (0.25, 0.5, 0.75)

    def test_large_scan_skips_numpy(self, syevr, solve_counts):
        trace = gap_trace(dense_n9(), 3)
        refine = min_gap(trace, s_tol=1e-2)
        assert refine.delta_min <= trace.gap.min()
        # dsyevr's pick within the degenerate E1 at s = 0 stands above dimension 256.
        assert solve_counts["eigh"] == solve_counts["eigvalsh"] == 0
        assert solve_counts["dsyevr"] > 3

    def test_levels_and_gap_match_eigh(self, syevr, n9_trace):
        sched = n9_trace.schedule
        for i, s in enumerate(n9_trace.grid):
            reference = np.linalg.eigvalsh(schedule_matrix(sched, s))
            assert np.abs(n9_trace.levels[i] - reference[:6]).max() <= 1e-11
            assert abs(n9_trace.gap[i] - (reference[1] - reference[0])) <= 1e-11

    def test_weights_and_element_match_dense_reference(self, syevr, n9_trace):
        sched = n9_trace.schedule
        for s in self.S_INTERIOR:
            i = int(np.flatnonzero(n9_trace.grid == s)[0])
            _, v = np.linalg.eigh(schedule_matrix(sched, s))
            element = abs(v[:, 1] @ product_derivative(sched, s) @ v[:, 0])
            assert np.abs(n9_trace.ground_weights[i] - v[:, 0] ** 2).max() <= 1e-10
            assert abs(n9_trace.element[i] - element) <= 1e-10

    def test_degenerate_level_vectors_at_s0(self, syevr):
        sched = dense_n9()
        h = hamiltonian_at(sched, 0.0).matrix
        w, v = spectral._solve(schedule_matrix(sched, 0.0), 0.0, keep=6)
        assert w[2] - w[1] < 1e-12  # E1 of the driver is 9-fold degenerate
        assert np.abs(h @ v - v * w).max() <= 1e-12
        assert np.abs(v.T @ v - np.eye(6)).max() <= 1e-12

    def test_all_levels_kept(self, syevr):
        sched = dense_n9()
        trace = gap_trace(sched, 2, levels=512)
        assert trace.levels.shape == (2, 512)
        for i, s in enumerate(trace.grid):
            reference = np.linalg.eigvalsh(schedule_matrix(sched, s))
            assert np.abs(trace.levels[i] - reference).max() <= 1e-11

    def test_read_only_input_left_intact(self, syevr):
        h = hamiltonian_at(dense_n9(), 0.5).matrix
        before = h.copy()
        w, _ = spectral._solve(h, 0.5, keep=2)
        assert np.array_equal(h, before)
        assert np.abs(w - np.linalg.eigvalsh(before)[:2]).max() <= 1e-11


class TestKeptLevels:
    """dsyevr for the kept levels up to dimension 256, against numpy's full eigh."""

    GRID = 11

    @pytest.mark.parametrize("n, levels", [(5, 2), (5, 3), (6, 6), (7, 6), (8, 6)])
    def test_random_problems_match_eigh(self, syevr, solve_counts, n, levels):
        sched = ScheduleSpec(problem=random_ising(np.random.default_rng(n), n))
        trace = gap_trace(sched, self.GRID, levels)
        assert solve_counts == solves(eigh=2, dsyevr=self.GRID - 2)
        for i, s in enumerate(trace.grid):
            w, v = np.linalg.eigh(schedule_matrix(sched, s))
            assert np.abs(trace.levels[i] - w[:levels]).max() <= 1e-11
            assert np.abs(trace.ground_weights[i] - v[:, 0] ** 2).max() <= 1e-10
            if s > 0.0:  # at s = 0 E1 is degenerate and the element depends on its vector
                element = abs(v[:, 1] @ kron_derivative(sched, s) @ v[:, 0])
                assert abs(trace.element[i] - element) <= 1e-10

    @pytest.mark.parametrize("sched", [chain_schedule(0.04), random_schedule(6), tied_schedule()],
                             ids=["dim32", "dim64", "tied-at-s1"])
    def test_degenerate_e1_keeps_eigh_vectors(self, syevr, solve_counts, monkeypatch, sched):
        trace = gap_trace(sched, self.GRID, levels=2)
        # eigh solves s = 0 and s = 1, where E1 may be degenerate; dsyevr the rest.
        assert solve_counts == solves(eigh=2, dsyevr=self.GRID - 2)
        monkeypatch.setattr(_blas, "SYEVR", None)
        reference = gap_trace(sched, self.GRID, levels=2)
        for i in (0, -1):
            for name in ("element", "slope", "ground_weights"):
                assert np.array_equal(getattr(trace, name)[i], getattr(reference, name)[i])

    @pytest.mark.parametrize("sched", [chain_schedule(0.04), random_schedule(6),
                                       random_schedule(8), dense_n9()],
                             ids=["dim32", "dim64", "dim256", "dim512"])
    def test_each_matrix_solved_once(self, syevr, monkeypatch, sched):
        dim = 1 << sched.n
        asked, by_dsyevr, by_eigh = [], [], []

        def dsyevr(*args):
            asked.append(args[10])  # IU, the highest level index asked for
            address = ctypes.cast(args[5], ctypes.POINTER(ctypes.c_double))
            by_dsyevr.append(np.ctypeslib.as_array(address, (dim, dim)).copy())
            return syevr(*args)

        def eigh(a, _original=np.linalg.eigh):
            by_eigh.extend(np.reshape(a, (-1, dim, dim)).copy())
            return _original(a)

        dsyevr.restype = syevr.restype
        monkeypatch.setattr(_blas, "SYEVR", dsyevr)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        gap_trace(sched, self.GRID, levels=2)
        assert asked == [2] * len(by_dsyevr)
        if dim > _blas.SERIAL_BLAS_MAX_DIM:
            assert len(by_dsyevr) == self.GRID and not by_eigh
        else:
            # s = 0 and s = 1 go to eigh once each, every other point to dsyevr.
            ends = [schedule_matrix(sched, 0.0), schedule_matrix(sched, 1.0)]
            assert len(by_dsyevr) == self.GRID - 2
            assert not any(np.array_equal(a, end) for a in by_dsyevr for end in ends)
            # Two pool threads may reach s = 1 first.
            assert len(by_eigh) == 2
            assert all(any(np.array_equal(a, end) for a in by_eigh) for end in ends)

    def test_interior_symmetric_degeneracy_keeps_dsyevr_vectors(self, syevr, solve_counts,
                                                                  monkeypatch):
        sched = free_spins_schedule()
        trace = gap_trace(sched, self.GRID, levels=2)
        # E1 = E2 at every point, but eigh solves only s = 0 and s = 1.
        assert solve_counts == solves(eigh=2, dsyevr=self.GRID - 2)
        monkeypatch.setattr(_blas, "SYEVR", None)
        reference = gap_trace(sched, self.GRID, levels=2)
        assert np.abs(trace.levels - reference.levels).max() <= 1e-11
        assert np.abs(trace.ground_weights - reference.ground_weights).max() <= 1e-10
        # The element is not compared: inside (0, 1) it depends on which vector
        # of the degenerate E1 each solver picks.

    def test_nan_matrix_in_a_stack_names_its_s(self, syevr):
        grid = np.linspace(0.0, 1.0, 11)
        stack = schedule_matrix(chain_schedule(0.04), grid)
        stack[3] = np.nan
        # s = 0.3 is inside the schedule, where dsyevr solves it.
        failure = re.escape(f"at s={grid[3]}: dsyevr returned info=-6 with 0 of 2 levels")
        with pytest.raises(EigensolverError, match=failure):
            spectral._solve(stack, grid, keep=2)

    @settings(max_examples=40, deadline=None)
    @given(
        problem=ising_problems(),
        driver=st.sampled_from([STOQUASTIC, NONSTOQUASTIC]),
        grid=st.integers(2, 12),
    )
    def test_two_levels_agree_with_six(self, problem, driver, grid):
        sched = ScheduleSpec(problem=problem, driver=driver)
        two, six = gap_trace(sched, grid, levels=2), gap_trace(sched, grid, levels=6)
        assert np.abs(two.levels - six.levels[:, :2]).max() <= 1e-11
        # The vectors of E0 and E1, and so the element and the slope, are
        # only as well conditioned as E1's distance to E0 and to E2: where
        # that is below 1e-3, each solver's rounding moves them by more.
        separated = np.diff(six.levels[:, :3], axis=1).min(axis=1) >= 1e-3
        for name in ("element", "slope"):
            difference = np.abs(getattr(two, name) - getattr(six, name))
            assert np.all(difference[separated] <= 1e-11)

    @pytest.mark.parametrize("sched", [chain_schedule(0.04, driver=NONSTOQUASTIC),
                                       random_schedule(6), random_schedule(8)],
                             ids=["dim32", "dim64", "dim256"])
    def test_numpy_fallback_gives_same_trace(self, syevr, monkeypatch, sched):
        trace = gap_trace(sched, 21, levels=2)
        monkeypatch.setattr(_blas, "SYEVR", None)
        fallback = gap_trace(sched, 21, levels=2)
        for name in ("levels", "element", "ground_weights", "slope"):
            assert np.abs(getattr(trace, name) - getattr(fallback, name)).max() <= 1e-11


@pytest.fixture
def large_solves(syevr, monkeypatch):
    """The s of each H(s) ``_solve_points`` assembles, and how many 1024-wide dsyevr solves
    run while the test runs."""
    seen = {"assembled": [], "dsyevr": 0}

    def assemble(sched, s, _original=schedule_matrix):
        seen["assembled"].extend(np.ravel(s).tolist())
        return _original(sched, s)

    def dsyevr(*args):
        seen["dsyevr"] += args[4] == 1024  # N, the order of the matrix
        return syevr(*args)

    dsyevr.restype = syevr.restype
    monkeypatch.setattr(spectral, "schedule_matrix", assemble)
    monkeypatch.setattr(_blas, "SYEVR", dsyevr)
    return seen


def dense_path_trace(monkeypatch, sched: ScheduleSpec, grid: int, levels: int) -> SpectralTrace:
    """``gap_trace`` with every point solved by ``_solve`` on a stack, as below 1024."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_KRYLOV_MIN_DIM", 2 << sched.n)
        return gap_trace(sched, grid, levels)


def assert_same_trace(trace: SpectralTrace, reference: SpectralTrace) -> None:
    """Levels, weights, element and slope bit for bit."""
    for name in ("levels", "ground_weights", "element", "slope"):
        assert np.array_equal(getattr(trace, name), getattr(reference, name))


class TestKrylov:
    """Block Lanczos from dimension 1024 up, against numpy's full eigh and the dense path."""

    GRID = 5

    @pytest.mark.parametrize("driver", [STOQUASTIC, NONSTOQUASTIC])
    def test_trace_matches_eigh(self, driver):
        sched = dense_n10(driver)
        trace = gap_trace(sched, self.GRID)
        for i, s in enumerate(trace.grid):
            w, v = np.linalg.eigh(schedule_matrix(sched, s))
            assert np.abs(trace.levels[i] - w[:6]).max() <= 1e-11
            assert np.abs(trace.ground_weights[i] - v[:, 0] ** 2).max() <= 1e-10
            if s > 0.0:  # at s = 0 E1 is degenerate and the element depends on its vector
                dh = product_derivative(sched, s)
                assert abs(trace.element[i] - abs(v[:, 1] @ dh @ v[:, 0])) <= 1e-10
                slope = v[:, 1] @ dh @ v[:, 1] - v[:, 0] @ dh @ v[:, 0]
                assert abs(trace.slope[i] - slope) <= 1e-10

    def test_only_s0_is_solved_dense(self, large_solves):
        trace = gap_trace(dense_n10(), self.GRID)
        min_gap(trace, s_tol=1e-3)
        epsilon(trace)
        # E1 of the driver is 10-fold degenerate at s = 0; every other point
        # converges.
        assert large_solves == {"assembled": [0.0], "dsyevr": 1}

    @pytest.mark.parametrize("fields", [(0.5,) * 10, (0.3, 0.3, 0.41, 0.53, 0.62, 0.75, 0.87,
                                                      0.99, 1.13, 1.27)], ids=["all", "one-pair"])
    def test_degenerate_e1_falls_back_everywhere(self, large_solves, monkeypatch, fields):
        # Uncoupled spins: E1 is degenerate at every s, 10-fold when all fields are equal
        # (the residual block loses rank) and 2-fold when two are (a degenerate Ritz pair).
        sched = ScheduleSpec(problem=IsingProblem(n=10, h=fields))
        trace = gap_trace(sched, self.GRID, levels=2)
        assert large_solves["dsyevr"] == self.GRID
        assert_same_trace(trace, dense_path_trace(monkeypatch, sched, self.GRID, 2))

    @pytest.mark.parametrize("basis", [4, 8])
    def test_basis_cap_falls_back(self, large_solves, monkeypatch, basis):
        # 4 cannot hold the 7 Ritz pairs of 6 levels; 8 holds them, unconverged.
        monkeypatch.setattr(spectral, "_KRYLOV_BASIS", basis)
        trace = gap_trace(dense_n10(), 3)
        assert large_solves["dsyevr"] == 3
        assert_same_trace(trace, dense_path_trace(monkeypatch, dense_n10(), 3, 6))

    def test_ritz_problems_solve_on_one_thread(self, blas_threads):
        startup, seen = blas_threads
        gap_trace(dense_n10(), 3)
        # s = 0 goes to dsyevr on the library's threads; each Ritz problem after it on one.
        assert seen[0] == startup and len(seen) > 2 and set(seen[1:]) == {1}


class TestLapackeHandle:
    def test_resolves_with_bundled_openblas(self):
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        if not any(libs.glob("*openblas*")):
            pytest.skip("numpy bundles no OpenBLAS")
        assert _blas.SYEVR is not None

    def test_numpy_fallback_gives_same_trace(self, syevr, n9_trace, monkeypatch):
        monkeypatch.setattr(_blas, "SYEVR", None)
        fallback = gap_trace(dense_n9(), 5)
        for name in ("levels", "gap", "ground_weights"):
            assert np.abs(getattr(n9_trace, name) - getattr(fallback, name)).max() <= 1e-11
        # At s = 0 E1 is degenerate, so each solver's pick sets its own element.
        assert np.abs(n9_trace.element[1:] - fallback.element[1:]).max() <= 1e-11


class TestLapackeFailure:
    def test_nan_matrix_names_s(self, syevr):
        with pytest.raises(EigensolverError, match=r"at s=0\.25: dsyevr returned info=-6"):
            spectral._solve(np.full((512, 512), np.nan), 0.25, keep=2)

    def test_positive_info(self, syevr, monkeypatch):
        def fail(*args):
            assert syevr(*args) == 0  # every level found, then a failure reported
            return 3

        fail.restype = syevr.restype
        monkeypatch.setattr(_blas, "SYEVR", fail)
        with pytest.raises(EigensolverError, match=r"at s=0\.5: dsyevr returned info=3"):
            spectral._solve(schedule_matrix(dense_n9(), 0.5), 0.5, keep=6)

    def test_missing_levels(self, syevr, monkeypatch):
        def none_found(*args):
            return 0

        none_found.restype = syevr.restype
        monkeypatch.setattr(_blas, "SYEVR", none_found)
        with pytest.raises(EigensolverError, match=r"at s=0\.5: .* 0 of 2 levels"):
            spectral._solve(schedule_matrix(dense_n9(), 0.5), 0.5, keep=2)

    def test_cli_exit_code(self, syevr, monkeypatch, tmp_path, capsys):
        path = tmp_path / "n9.json"
        save_problem(dense_n9().problem, path)

        def nan_hamiltonian(sched, s):
            return np.full((1 << sched.n,) * 2, np.nan)

        monkeypatch.setattr(spectral, "schedule_matrix", nan_hamiltonian)
        rc = cli.main(["analyze", "--problem", str(path), "--grid", "3",
                       "--out", str(tmp_path / "n9_")])
        assert rc == 3
        assert "at s=0.0: dsyevr returned info=-6" in capsys.readouterr().err
        assert not (tmp_path / "n9_report.json").exists()


class TestDegeneracyScale:
    @staticmethod
    def trace(offset: float) -> SpectralTrace:
        # E1 - E0 = 5e-9 at s = 1, at energy scale |offset|
        sched = ScheduleSpec(problem=IsingProblem(n=1, h=(2.5e-9,), offset=offset))
        return gap_trace(sched, 2)

    def test_gap_below_scaled_tolerance_is_degenerate(self):
        with pytest.raises(DegenerateLevelsError, match=r"s=1\.0"):
            spectral._check_nondegenerate(self.trace(-1e4), "degenerate at s={s}")

    def test_same_gap_at_unit_scale_is_resolved(self):
        spectral._check_nondegenerate(self.trace(-1.0), "degenerate at s={s}")
