"""Spectral engine: eigensolver contract, traces, min-gap, detection, fits."""

import math

import numpy as np
import pytest

from annealgap import (
    DegenerateLevelsError,
    DenseOperator,
    EigensolverError,
    FitWindowError,
    IsingProblem,
    MisChainSpec,
    ScheduleSpec,
    SpectralTrace,
    anticrossing_report,
    detect_anticrossing,
    epsilon,
    fit_hyperbola,
    full_spectrum,
    gap_trace,
    hamiltonian_at,
    min_gap,
    mis_chain,
    overlap_trace,
    qubo_to_ising,
    t_approx,
    transform,
)
from annealgap.cli import _sweep_cell
from annealgap.spectral import _INV_GOLD

SQRT2 = math.sqrt(2.0)


def two_level() -> ScheduleSpec:
    return ScheduleSpec(problem=IsingProblem(n=1, J={}, h=(1.0,)))


def chain_schedule(delta_b: float, pivot: int | None = None) -> ScheduleSpec:
    ising = qubo_to_ising(mis_chain(MisChainSpec(delta_b)))
    if pivot is not None:
        ising = transform(ising, pivot)
    return ScheduleSpec(problem=ising)


def two_level_gap(s: float) -> float:
    return 2.0 * math.sqrt((1 - s) ** 2 + s * s)


def two_level_element(s: float) -> float:
    """Closed-form |<E1| dH/ds |E0>| for the single-spin schedule."""
    return 1.0 / math.sqrt((1 - s) ** 2 + s * s)


class TestFullSpectrum:
    def test_pauli_x(self):
        w, v = full_spectrum(DenseOperator(1, np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(2), atol=1e-12)

    def test_diagonal_operator(self):
        diag = np.array([3.0, -1.0, 2.0, 0.0])
        w, v = full_spectrum(DenseOperator(2, np.diag(diag)))
        assert np.array_equal(w, np.sort(diag))
        assert np.allclose(np.abs(v), np.abs(v.round()), atol=1e-12)

    def test_residual_contract_random(self, rng):
        a = rng.normal(size=(32, 32))
        op = DenseOperator(5, a + a.T)
        w, v = full_spectrum(op)
        m = op.matrix
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

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            min_gap(gap_trace(two_level(), 2001), s_tol=0.0)

    @pytest.mark.parametrize("s_tol", [-1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, s_tol):
        with pytest.raises(ValueError, match="s_tol"):
            min_gap(gap_trace(two_level(), 11), s_tol=s_tol)


class TestDetectAnticrossing:
    def test_two_level_single_crossing(self):
        trace = gap_trace(two_level(), 201)
        found = detect_anticrossing(trace)
        assert len(found) == 1
        assert found[0].s == pytest.approx(0.5, abs=1e-6)
        assert found[0].gap == pytest.approx(SQRT2, abs=1e-9)

    def test_monotone_trace_empty(self):
        grid = np.linspace(0, 1, 50)
        levels = np.column_stack([-grid, 2.0 - 2.0 * grid])
        trace = SpectralTrace(grid, levels, levels[:, 1] - levels[:, 0])
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
        # a mid-schedule valley that stays above the final gap is not an
        # anti-crossing, however pronounced it looks locally
        grid = np.linspace(0, 1, 101)
        gap = 2.0 - 1.5 * grid - 0.05 * np.exp(-((grid - 0.4) ** 2) / 0.001)
        levels = np.column_stack([np.zeros_like(grid), gap])
        trace = SpectralTrace(grid, levels, gap)
        assert detect_anticrossing(trace) == []

    def test_significant_dip_detected_without_schedule(self):
        grid = np.linspace(0, 1, 101)
        gap = 1.0 - 0.9 * np.exp(-((grid - 0.6) ** 2) / 0.01)
        levels = np.column_stack([np.zeros_like(grid), gap])
        trace = SpectralTrace(grid, levels, gap)
        found = detect_anticrossing(trace)
        assert len(found) == 1
        assert found[0].s == pytest.approx(0.6, abs=0.01)

    @pytest.mark.parametrize("s_tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, s_tol):
        # the 0.04 chain has one interior minimum to refine
        with pytest.raises(ValueError, match="s_tol"):
            detect_anticrossing(gap_trace(chain_schedule(0.04), 101), s_tol=s_tol)


class TestEpsilon:
    def test_two_level_closed_form(self):
        got = epsilon(gap_trace(two_level(), 2001))
        oracle = max(two_level_element(s) for s in np.linspace(0, 1, 2001))
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(SQRT2, abs=1e-6)

    def test_two_level_profile_matches_oracle(self):
        # spot-check the underlying matrix element at several s values
        sched = two_level()
        from annealgap.operators import derivative_at

        for s in (0.1, 0.3, 0.5, 0.9):
            w, v = full_spectrum(hamiltonian_at(sched, s))
            element = abs(v[:, 1] @ derivative_at(sched, s).matrix @ v[:, 0])
            assert element == pytest.approx(two_level_element(s), abs=1e-12)

    def test_cauchy_schwarz_bound(self):
        sched = chain_schedule(0.04)
        from annealgap.operators import derivative_at

        got = epsilon(gap_trace(sched, 401))
        norm = np.abs(np.linalg.eigvalsh(derivative_at(sched, 0.5).matrix)).max()
        assert got <= norm + 1e-9

    def test_chain_order_of_problem_scale(self):
        got = epsilon(gap_trace(chain_schedule(0.04), 2001))
        assert got == pytest.approx(1.0126043, rel=1e-6)
        assert 0.1 < got < 20.0

    def test_degenerate_final_levels_reported(self):
        sched = chain_schedule(0.0)
        with pytest.raises(DegenerateLevelsError, match="s=1.0"):
            epsilon(gap_trace(sched, 101))

    def test_hand_built_trace_rejected(self):
        grid = np.linspace(0, 1, 11)
        levels = np.column_stack([-grid, 2.0 - grid])
        trace = SpectralTrace(grid, levels, levels[:, 1] - levels[:, 0])
        with pytest.raises(ValueError, match="epsilon needs a trace scanned by gap_trace"):
            epsilon(trace)
        with pytest.raises(ValueError, match="overlap_trace needs a trace scanned"):
            overlap_trace(trace)


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

    def test_synthetic_recovery(self):
        a_true, b_true, center, delta = 3.2, 0.7, -2.0, 0.01
        grid = np.linspace(0.4, 0.6, 401)
        x = grid - 0.5
        half = 0.5 * np.sqrt(delta**2 + a_true**2 * x**2)
        lower = center + b_true * x - half
        upper = center + b_true * x + half
        trace = SpectralTrace(grid, np.column_stack([lower, upper]), upper - lower)
        fit = fit_hyperbola(trace, 0.5, delta, window=0.1)
        assert fit.a == pytest.approx(a_true, abs=1e-6)
        assert fit.b == pytest.approx(b_true, abs=1e-6)
        assert fit.e_center == pytest.approx(center, abs=1e-6)
        assert fit.residual <= 1e-9

    def test_window_too_small(self):
        trace = gap_trace(two_level(), 101)
        with pytest.raises(FitWindowError, match="at least 5"):
            fit_hyperbola(trace, 0.5, SQRT2, window=0.015)

    def test_high_residual_warns(self):
        sched = chain_schedule(0.04)
        trace = gap_trace(sched, 2001)
        result = min_gap(trace)
        with pytest.warns(RuntimeWarning, match="residual"):
            fit = fit_hyperbola(trace, result.s_star, result.delta_min)
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


class TestAntiCrossingReport:
    def test_two_level_report(self):
        trace = gap_trace(two_level(), 2001)
        report = anticrossing_report(trace)
        assert report.s_star == pytest.approx(0.5, abs=1e-6)
        assert report.delta_min == pytest.approx(SQRT2, abs=1e-9)
        assert report.t_approx == pytest.approx(0.5, abs=1e-9)
        assert report.interior
        assert report.hyperbola is not None
        assert report.hyperbola.a == pytest.approx(2.0 * SQRT2, abs=1e-6)
        assert trace.schedule is not None

    def test_transformed_chain_no_hyperbola(self):
        report = anticrossing_report(gap_trace(chain_schedule(0.04, pivot=0), 501))
        assert not report.interior
        assert report.hyperbola is None
        assert report.t_approx == pytest.approx(report.delta_min**-2, rel=1e-12)


@pytest.fixture
def solve_counts(monkeypatch):
    """Calls to numpy's dense symmetric eigensolvers while the test runs."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def golden_evaluations(width: float, s_tol: float) -> int:
    """Gap evaluations of a golden-section search narrowing ``width`` to ``s_tol``."""
    steps = 0
    while width > s_tol:
        width *= _INV_GOLD
        steps += 1
    return 2 + steps


class TestSingleScan:
    GRID = 101
    S_TOL = 1e-6

    def test_consumers_read_the_trace(self, solve_counts):
        trace = gap_trace(chain_schedule(0.04), self.GRID)
        solve_counts["eigh"] = 0
        min_gap(trace)
        overlap_trace(trace)
        assert solve_counts["eigh"] == 0
        epsilon(trace)
        assert solve_counts["eigh"] == 21  # only the rescan around the arg-max

    @pytest.mark.filterwarnings("ignore:hyperbola fit residual:RuntimeWarning")
    def test_analyze_solve_counts(self, solve_counts):
        trace = gap_trace(chain_schedule(0.04), self.GRID)
        anticrossing_report(trace, s_tol=self.S_TOL)
        overlap_trace(trace, k_max=5)
        refine = golden_evaluations(2.0 / (self.GRID - 1), self.S_TOL)
        assert solve_counts == {"eigh": self.GRID + 21, "eigvalsh": refine}

    def test_sweep_cell_solve_counts(self, solve_counts):
        _sweep_cell(0.04, "stoquastic", self.GRID, self.S_TOL)
        refine = golden_evaluations(2.0 / (self.GRID - 1), self.S_TOL)
        assert solve_counts == {"eigh": self.GRID + 21, "eigvalsh": refine}
