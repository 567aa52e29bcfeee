"""Spectral engine: eigensolver contract, traces, min-gap, detection, fits."""

import math
import re
import sys
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from annealgap import cli, spectral
from annealgap.cli import _sweep_cell
from annealgap.operators import schedule_matrix
from annealgap.spectral import _INV_GOLD
from conftest import ising_problems, random_ising

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


class TestFullSpectrum:
    """``_solve`` keeping every level: ||M - V diag(w) V^T||_max <= 1e-9 ||M||_max
    and ||V^T V - I||_max <= 1e-10."""

    def test_pauli_x(self):
        w, v = spectral._solve(np.array([[0.0, 1.0], [1.0, 0.0]]), keep=2)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(2), atol=1e-12)

    def test_diagonal_operator(self):
        diag = np.array([3.0, -1.0, 2.0, 0.0])
        w, v = spectral._solve(np.diag(diag), keep=4)
        assert np.array_equal(w, np.sort(diag))
        assert np.allclose(np.abs(v), np.abs(v.round()), atol=1e-12)

    def test_residual_contract_random(self, rng):
        a = rng.normal(size=(32, 32))
        m = a + a.T
        w, v = spectral._solve(m, keep=32)
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
        for s in (0.1, 0.3, 0.5, 0.9):
            w, v = np.linalg.eigh(schedule_matrix(sched, s))
            element = abs(v[:, 1] @ schedule_matrix(sched, s, derivative=True) @ v[:, 0])
            assert element == pytest.approx(two_level_element(s), abs=1e-12)

    def test_cauchy_schwarz_bound(self):
        sched = chain_schedule(0.04)
        got = epsilon(gap_trace(sched, 401))
        norm = np.abs(np.linalg.eigvalsh(schedule_matrix(sched, 0.5, derivative=True))).max()
        assert got <= norm + 1e-9

    def test_chain_order_of_problem_scale(self):
        got = epsilon(gap_trace(chain_schedule(0.04), 2001))
        assert got == pytest.approx(1.0126043, rel=1e-6)
        assert 0.1 < got < 20.0

    def test_degenerate_final_levels_reported(self):
        sched = chain_schedule(0.0)
        with pytest.raises(DegenerateLevelsError, match="s=1.0"):
            epsilon(gap_trace(sched, 101))


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
        "s_star, delta_min, message",
        [(math.nan, SQRT2, "s_star must be finite"), (math.inf, SQRT2, "s_star must be finite"),
         (0.5, math.nan, "delta_min must be finite"), (0.5, math.inf, "delta_min must be finite"),
         (0.5, -1e-3, "delta_min must be >= 0")],
    )
    def test_arguments_checked(self, s_star, delta_min, message):
        trace = gap_trace(two_level(), 101)
        with pytest.raises(ValueError, match=message):
            fit_hyperbola(trace, s_star, delta_min)

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


def matrices(a) -> int:
    """Matrices in one matrix or in a stack of them."""
    return math.prod(np.shape(a)[:-2])


@pytest.fixture
def solve_counts(monkeypatch):
    """Matrices diagonalized by numpy's dense symmetric eigensolvers while the test runs.

    A stacked call counts each matrix of the stack.
    """
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            counts[_name] += matrices(a)
            return _original(a, *args, **kwargs)

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
    #: Brent evaluations of the gap slope that narrow the 0.04 chain's
    #: bracket of two grid steps around its crossing to S_TOL.
    REFINE = 6

    def test_consumers_read_the_trace(self, solve_counts):
        trace = gap_trace(chain_schedule(0.04), self.GRID)
        solve_counts["eigh"] = 0
        min_gap(trace, s_tol=self.S_TOL)
        assert solve_counts == {"eigh": self.REFINE, "eigvalsh": 0}
        solve_counts["eigh"] = 0
        overlap_trace(trace)
        assert solve_counts["eigh"] == 0
        epsilon(trace)
        assert solve_counts["eigh"] == 21  # only the rescan around the arg-max

    @pytest.mark.filterwarnings("ignore:hyperbola fit residual:RuntimeWarning")
    def test_analyze_solve_counts(self, tmp_path, solve_counts):
        path = tmp_path / "chain.json"
        save_problem(mis_chain(MisChainSpec(0.04)), path)
        rc = cli.main(["analyze", "--problem", str(path), "--grid", str(self.GRID),
                       "--s-tol", str(self.S_TOL), "--out", str(tmp_path / "run_")])
        assert rc == 0
        assert solve_counts == {"eigh": self.GRID + 21 + self.REFINE, "eigvalsh": 0}

    def test_sweep_cell_solve_counts(self, solve_counts):
        _sweep_cell(0.04, "stoquastic", self.GRID, self.S_TOL)
        assert solve_counts == {"eigh": self.GRID + 21 + self.REFINE, "eigvalsh": 0}


def sweep_schedule(delta_b: float, method: str) -> ScheduleSpec:
    """The schedule of one ``sweep`` cell."""
    if method == "nonstoquastic":
        return chain_schedule(delta_b, driver=NONSTOQUASTIC)
    if method == "stoquastic":
        return chain_schedule(delta_b)
    return chain_schedule(delta_b, pivot=int(method.removeprefix("eltip-k")))


def slope_oracle(sched: ScheduleSpec, s: float) -> float:
    """<E1| dH/ds |E1> - <E0| dH/ds |E0> from numpy's full eigh at s."""
    _, v = np.linalg.eigh(schedule_matrix(sched, s))
    dh = schedule_matrix(sched, s, derivative=True)
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
        solve_counts["eigh"] = 0
        located = min_gap(trace, s_tol=self.S_TOL)
        assert solve_counts["eigh"] <= 5
        root = slope_root(sched, trace.grid[max(k - 1, 0)], trace.grid[min(k + 1, 2000)])
        # The hyperbola residual of the stoquastic 0.04 report moves by about
        # 0.025 x the shift of s*, so that cell needs s* far closer than s_tol.
        tol = 2e-8 if (delta_b, method) == (0.04, "stoquastic") else self.S_TOL
        assert abs(located.s_star - root) <= tol
        assert located.delta_min <= trace.gap.min()

    def test_golden_fallback_without_a_slope_sign_change(self, solve_counts):
        # On five points the 0.04 non-stoquastic gap rises at both ends of the
        # bracket [0.5, 1] around its crossing near s = 0.7595.
        sched = chain_schedule(0.04, driver=NONSTOQUASTIC)
        trace = gap_trace(sched, 5)
        k = int(np.argmin(trace.gap))
        assert (k, trace.slope[k - 1] > 0.0, trace.slope[k + 1] > 0.0) == (3, True, True)
        solve_counts["eigh"] = 0
        located = min_gap(trace, s_tol=self.S_TOL)
        assert solve_counts == {"eigh": golden_evaluations(0.5, self.S_TOL), "eigvalsh": 0}
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
    def test_golden_search_ends_below_float_spacing(self, bounded_solves, s_tol):
        # The golden fallback's bracket [0.5, 1] stops shrinking a few ulps wide.
        trace = gap_trace(chain_schedule(0.04, driver=NONSTOQUASTIC), 5)
        bounded_solves[0] = 0
        located = min_gap(trace, s_tol=s_tol)
        assert detect_anticrossing(trace, s_tol=s_tol) == [located[:2]]
        assert bounded_solves[0] == 2 * golden_evaluations(0.5, 4 * spectral._EPS)

    @pytest.mark.filterwarnings("ignore:hyperbola fit residual:RuntimeWarning")
    def test_analyze_ends_below_float_spacing(self, bounded_solves, tmp_path, capsys):
        path = tmp_path / "chain.json"
        save_problem(mis_chain(MisChainSpec(0.04)), path)
        rc = cli.main(["analyze", "--problem", str(path), "--driver", "nonstoq", "--grid", "5",
                       "--s-tol", "1e-17", "--out", str(tmp_path / "run_")])
        assert rc == 3
        assert "trace points" in capsys.readouterr().err

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
        assert min_gap(trace, s_tol=self.S_TOL).delta_min <= trace.gap.min()


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
    if spectral._BLAS is None:
        pytest.skip("no bundled OpenBLAS handle: the thread guard is a no-op")
    startup = spectral._BLAS[0]()
    if startup == 1:
        pytest.skip("OpenBLAS already runs one thread: the guard changes nothing")
    seen = []

    def eigh(matrix, *args, **kwargs):
        seen.extend([spectral._BLAS[0]()] * matrices(matrix))
        return np.linalg.eigh(matrix, *args, **kwargs)

    linalg = SimpleNamespace(**{**vars(np.linalg), "eigh": eigh})
    monkeypatch.setattr(spectral, "np", SimpleNamespace(**{**vars(np), "linalg": linalg}))
    if spectral._SYEVR is not None:
        syevr = spectral._SYEVR

        def dsyevr(*args):
            seen.append(spectral._BLAS[0]())
            return syevr(*args)

        dsyevr.restype = syevr.restype
        monkeypatch.setattr(spectral, "_SYEVR", dsyevr)
    yield startup, seen
    assert spectral._BLAS[0]() == startup


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

    def test_count_restored_after_failed_scan(self, blas_threads, monkeypatch):
        startup, seen = blas_threads
        original = np.linalg.eigh
        failing = schedule_matrix(chain_schedule(0.04), 0.1)

        def fail_second(matrix):
            if any(np.array_equal(m, failing) for m in np.reshape(matrix, (-1, 32, 32))):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(matrix)

        monkeypatch.setattr(np.linalg, "eigh", fail_second)
        with pytest.raises(EigensolverError, match=r"at s=0\.1:"):
            gap_trace(chain_schedule(0.04), 11)
        # The block of all 11 points, then point by point up to the failing one.
        assert seen == [1] * (11 + 2)
        assert spectral._BLAS[0]() == startup

    def test_last_overlapping_user_restores(self, blas_threads):
        startup, _ = blas_threads
        first, second = spectral._serial_blas(32), spectral._serial_blas(32)
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert spectral._BLAS[0]() == 1
        second.__exit__(None, None, None)
        assert spectral._BLAS[0]() == startup

    def test_concurrent_users_share_the_count(self, blas_threads):
        startup, _ = blas_threads
        inside = []

        def user():
            for _ in range(500):
                with spectral._serial_blas(32):
                    np.linalg.eigvalsh(np.eye(32))
                    inside.append(spectral._BLAS[0]())

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
        assert spectral._BLAS[0]() == startup

    def test_count_restored_after_threaded_sweep(self, blas_threads, tmp_path):
        startup, seen = blas_threads
        out = tmp_path / "summary.csv"
        assert cli.main(["sweep", "--delta-b", "0.04,0.08", "--methods", "stoquastic,eltip-k1",
                         "--grid", "51", "--workers", "4", "--out", str(out)]) == 0
        assert len(seen) > 4 * 51 and set(seen) == {1}
        assert spectral._BLAS[0]() == startup


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
        monkeypatch.setattr(spectral, "_BLAS", None)
        self.assert_bitwise_equal(guarded, self.run(driver))

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("driver", [STOQUASTIC, NONSTOQUASTIC])
    def test_scan_worker_count_is_bitwise_equal(self, monkeypatch, driver, workers):
        default = self.run(driver)
        monkeypatch.setattr(spectral, "_usable_cores", lambda: workers)
        self.assert_bitwise_equal(default, self.run(driver))


class TestBlockFailure:
    """eigh fails on H(s) at two points in different blocks of a 101-point chain scan.

    At dimension 32 a block holds 32 points, and two pool threads take the
    blocks one at a time. While one thread waits in the second block (points
    32-63), the other finishes the first and fails in the third (points
    64-95). The later point fails first.
    """

    GRID = np.linspace(0.0, 1.0, 101)
    EARLIER, LATER = 40, 70  # in the second block and the third

    @pytest.fixture
    def failing_eigh(self, monkeypatch):
        original = np.linalg.eigh
        later_failed = threading.Event()
        # H(s) holds the driver coefficient 1 - s at entry (0, 1).
        earlier, later = 1.0 - self.GRID[self.EARLIER], 1.0 - self.GRID[self.LATER]

        def eigh(matrix):
            entries = np.atleast_1d(matrix[..., 0, 1])
            if later in entries:
                later_failed.set()
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            if earlier in entries:
                assert later_failed.wait(timeout=30)
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(matrix)

        monkeypatch.setattr(spectral, "_usable_cores", lambda: 2)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        return re.escape(f"at s={self.GRID[self.EARLIER]}:")

    def test_first_failing_s_in_grid_order(self, failing_eigh):
        startup = spectral._BLAS[0]() if spectral._BLAS else None
        before = set(threading.enumerate())
        with pytest.raises(EigensolverError, match=failing_eigh):
            gap_trace(chain_schedule(0.04), len(self.GRID))
        assert set(threading.enumerate()) == before  # no pool thread outlives the scan
        if startup is not None:
            assert spectral._BLAS[0]() == startup

    def test_analyze_exits_3_without_report(self, failing_eigh, tmp_path, capsys):
        path = tmp_path / "chain.json"
        save_problem(chain_schedule(0.04).problem, path)
        rc = cli.main(["analyze", "--problem", str(path), "--grid", str(len(self.GRID)),
                       "--out", str(tmp_path / "chain_")])
        assert rc == 3
        assert re.search(failing_eigh, capsys.readouterr().err)
        assert not (tmp_path / "chain_report.json").exists()


class TestStackFallback:
    """A stack whose solve fails is solved again point by point."""

    def test_failed_stacks_still_give_the_trace(self, monkeypatch):
        # 101 points: three blocks of 32 and a short one of 5.
        expected = gap_trace(chain_schedule(0.04), 101)
        original = np.linalg.eigh

        def eigh(matrix):
            if matrix.ndim == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(matrix)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        trace = gap_trace(chain_schedule(0.04), 101)
        for name in ("levels", "element", "ground_weights"):
            assert np.array_equal(getattr(trace, name), getattr(expected, name))

    def test_failed_single_point_is_solved_once(self, monkeypatch):
        # At dimension 256 a block holds one point.
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
        with mock.patch.object(spectral, "_usable_cores", lambda: workers):
            trace = gap_trace(sched, grid)
        keep = trace.levels.shape[1]
        for i, s in enumerate(trace.grid):
            w, v = spectral._solve(schedule_matrix(sched, s), keep=keep)
            element = abs(v[:, 1] @ schedule_matrix(sched, s, derivative=True) @ v[:, 0])
            assert np.array_equal(trace.levels[i], w)
            assert np.array_equal(trace.element[i], element)
            assert np.array_equal(trace.ground_weights[i], v[:, 0] ** 2)


def dense_n9() -> ScheduleSpec:
    """A seeded random 9-spin problem: dimension 512, above SERIAL_BLAS_MAX_DIM."""
    return ScheduleSpec(problem=random_ising(np.random.default_rng(9), 9))


@pytest.fixture(scope="module")
def n9_trace():
    return gap_trace(dense_n9(), 5)


@pytest.fixture
def syevr():
    if spectral._SYEVR is None:
        pytest.skip("no bundled LAPACKE dsyevr: every solve takes the numpy path")
    return spectral._SYEVR


class TestLowestLevels:
    """dsyevr's lowest levels above dimension 256 against numpy's full eigh."""

    S_INTERIOR = (0.25, 0.5, 0.75)

    def test_large_scan_skips_numpy(self, syevr, solve_counts):
        trace = gap_trace(dense_n9(), 3)
        refine = min_gap(trace, s_tol=1e-2)
        assert refine.delta_min <= trace.gap.min()
        assert solve_counts == {"eigh": 0, "eigvalsh": 0}

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
            element = abs(v[:, 1] @ schedule_matrix(sched, s, derivative=True) @ v[:, 0])
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


class TestLapackeHandle:
    def test_resolves_with_bundled_openblas(self):
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        if not any(libs.glob("*openblas*")):
            pytest.skip("numpy bundles no OpenBLAS")
        assert spectral._SYEVR is not None

    def test_numpy_fallback_gives_same_trace(self, syevr, n9_trace, monkeypatch):
        monkeypatch.setattr(spectral, "_SYEVR", None)
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
        monkeypatch.setattr(spectral, "_SYEVR", fail)
        with pytest.raises(EigensolverError, match=r"at s=0\.5: dsyevr returned info=3"):
            spectral._solve(schedule_matrix(dense_n9(), 0.5), 0.5, keep=6)

    def test_missing_levels(self, syevr, monkeypatch):
        def none_found(*args):
            return 0

        none_found.restype = syevr.restype
        monkeypatch.setattr(spectral, "_SYEVR", none_found)
        with pytest.raises(EigensolverError, match=r"at s=0\.5: .* 0 of 2 levels"):
            spectral._solve(schedule_matrix(dense_n9(), 0.5), 0.5, keep=2)

    def test_cli_exit_code(self, syevr, monkeypatch, tmp_path, capsys):
        path = tmp_path / "n9.json"
        save_problem(dense_n9().problem, path)

        def nan_hamiltonian(sched, s, derivative=False):
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
