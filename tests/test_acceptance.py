"""Acceptance suite for the chain-instance annealing study.

Each test prints one PASS/FAIL line (run with -s to see them alongside the
pytest verdicts). Heavy spectral scans are shared through module fixtures;
everything runs on the default 2001-point grid with 1e-6 refinement unless a
criterion states otherwise.
"""

import time
from math import comb, sqrt

import numpy as np
import pytest

from annealgap import (
    IsingProblem,
    MisChainSpec,
    ScheduleSpec,
    SpinAssignment,
    back_map,
    compose_swap,
    detect_anticrossing,
    epsilon,
    fit_hyperbola,
    gap_trace,
    hamiltonian_at,
    ising_to_qubo,
    min_gap,
    mis_chain,
    overlap_trace,
    problem_diagonal,
    qubo_to_ising,
    swap_labels,
    t_approx,
    transform,
)
from annealgap.cli import main
from annealgap.operators import NONSTOQUASTIC, _schedule_product, schedule_matrix
from annealgap.spectral import _solve
from conftest import (
    ROW_ISING,
    ROW_ISING_H0,
    ROW_QUBO,
    ROW_QUBO_H0,
    assert_coefficients,
    kron_schedule,
    random_ising,
    random_qubo,
)

DELTAS = (0.01, 0.02, 0.04, 0.06, 0.08)
GRID = 2001
S_TOL = 1e-6


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def _chain_ising(delta_b: float) -> IsingProblem:
    return qubo_to_ising(mis_chain(MisChainSpec(delta_b)))


@pytest.fixture(scope="module")
def engine():
    """Traces and refined minima for stoquastic, nonstoquastic, and pivot-0 runs."""
    out = {}
    for delta_b in DELTAS:
        ising = _chain_ising(delta_b)
        runs = {
            "stoquastic": ScheduleSpec(problem=ising),
            "nonstoquastic": ScheduleSpec(problem=ising, driver=NONSTOQUASTIC),
            "eltip-k0": ScheduleSpec(problem=transform(ising, 0)),
        }
        for method, sched in runs.items():
            trace = gap_trace(sched, GRID)
            located = min_gap(trace, s_tol=S_TOL)
            out[(delta_b, method)] = {
                "schedule": sched,
                "trace": trace,
                "located": located,
            }
    return out


@pytest.fixture(scope="module")
def overlaps():
    """Full-basis overlap traces of the stoquastic runs."""
    return {
        delta_b: overlap_trace(
            gap_trace(ScheduleSpec(problem=_chain_ising(delta_b)), GRID), k_max=31
        )
        for delta_b in DELTAS
    }


@pytest.fixture(scope="module")
def full_sweep(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "summary.csv"
    start = time.perf_counter()
    assert main(["sweep", "--out", str(path)]) == 0
    elapsed = time.perf_counter() - start
    return path, elapsed


def test_criterion_1_table_regression():
    start = time.perf_counter()
    qubo = mis_chain(MisChainSpec(0.04))
    ising = qubo_to_ising(qubo)
    moved = transform(ising, 0)
    moved_qubo = ising_to_qubo(moved)
    assert_coefficients(qubo, ROW_QUBO["Q"], ROW_QUBO["b"])
    assert_coefficients(ising, ROW_ISING["J"], ROW_ISING["h"])
    assert_coefficients(moved, ROW_ISING_H0["J"], ROW_ISING_H0["h"])
    assert_coefficients(moved_qubo, ROW_QUBO_H0["Q"], ROW_QUBO_H0["b"])
    elapsed = time.perf_counter() - start
    ok = elapsed < 0.5
    _verdict(1, ok, f"four golden rows reproduced to 1e-12 in {elapsed * 1e3:.1f} ms")
    assert ok


def test_criterion_2_spectrum_invariance():
    start = time.perf_counter()
    worst = 0.0
    for delta_b in DELTAS:
        ising = _chain_ising(delta_b)
        reference = np.sort(problem_diagonal(ising))
        ref_groups = np.unique(np.round(reference, 9), return_counts=True)[1]
        for pivot in range(5):
            shuffled = np.sort(problem_diagonal(transform(ising, pivot)))
            worst = max(worst, float(np.abs(shuffled - reference).max()))
            groups = np.unique(np.round(shuffled, 9), return_counts=True)[1]
            assert np.array_equal(groups, ref_groups), (delta_b, pivot)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict(
        2,
        ok,
        f"25 transform spectra match within {worst:.2e} "
        f"with identical multiplicities in {elapsed * 1e3:.0f} ms",
    )
    assert ok


def test_criterion_3_final_gap_identity(engine):
    worst = 0.0
    for delta_b in DELTAS:
        final_gap = engine[(delta_b, "stoquastic")]["trace"].gap[-1]
        worst = max(worst, abs(final_gap - delta_b))
    ok = worst <= 1e-9
    _verdict(3, ok, f"final gap equals delta_b within {worst:.2e} on all five instances")
    assert ok


def test_criterion_4_anticrossing_structure(engine):
    stoq_counts, stoq_stars, moved_counts, moved_stars = [], [], [], []
    for delta_b in DELTAS:
        stoq = engine[(delta_b, "stoquastic")]
        crossings = detect_anticrossing(stoq["trace"], s_tol=S_TOL)
        stoq_counts.append(len(crossings))
        stoq_stars.append(stoq["located"].s_star)
        assert stoq["located"].interior, delta_b

        moved = engine[(delta_b, "eltip-k0")]
        moved_counts.append(len(detect_anticrossing(moved["trace"], s_tol=S_TOL)))
        moved_stars.append(moved["located"].s_star)
        assert not moved["located"].interior, delta_b

    one_each = all(count == 1 for count in stoq_counts)
    ordered = all(a > b for a, b in zip(stoq_stars, stoq_stars[1:]))
    none_moved = all(count == 0 for count in moved_counts)
    near_end = all(star >= 0.99 for star in moved_stars)
    ok = one_each and ordered and none_moved and near_end
    _verdict(
        4,
        ok,
        f"stoquastic crossings {stoq_counts} with s* {['%.3f' % s for s in stoq_stars]}; "
        f"transformed crossings {moved_counts}, minima at s >= "
        f"{min(moved_stars):.4f}",
    )
    assert ok


def test_criterion_5_time_estimate_ratios(engine):
    ratios = {}
    drifts = []
    for delta_b in DELTAS:
        per_method = {}
        for method in ("stoquastic", "eltip-k0"):
            run = engine[(delta_b, method)]
            coarse = run["located"].delta_min
            fine = min_gap(gap_trace(run["schedule"], 20001), s_tol=S_TOL).delta_min
            drifts.append(abs(coarse - fine) / fine)
            per_method[method] = coarse
        ratios[delta_b] = t_approx(per_method["stoquastic"]) / t_approx(
            per_method["eltip-k0"]
        )
    drift_ok = max(drifts) <= 0.01
    smallest = ratios[0.01]
    largest = ratios[0.08]
    window_ok = 1e3 <= smallest <= 1e5 and 1e1 <= largest <= 1e3
    all_ok = all(10**1.5 <= r <= 10**5 for r in ratios.values())
    ok = drift_ok and window_ok and all_ok
    _verdict(
        5,
        ok,
        "t_approx ratios "
        + ", ".join(f"{db}: {r:.3g}" for db, r in ratios.items())
        + f"; max fine-grid drift {max(drifts):.2e}",
    )
    assert ok


def test_criterion_6_nonstoquastic_direction(engine):
    mitigated = (
        engine[(0.01, "nonstoquastic")]["located"].delta_min
        > engine[(0.01, "stoquastic")]["located"].delta_min
    )
    enhanced = (
        engine[(0.08, "nonstoquastic")]["located"].delta_min
        < engine[(0.08, "stoquastic")]["located"].delta_min
    )
    speedup = t_approx(engine[(0.01, "stoquastic")]["located"].delta_min) / t_approx(
        engine[(0.01, "nonstoquastic")]["located"].delta_min
    )
    narrowing = (
        engine[(0.08, "stoquastic")]["located"].delta_min
        / engine[(0.08, "nonstoquastic")]["located"].delta_min
    )
    ok = mitigated and enhanced
    _verdict(
        6,
        ok,
        f"lambda(s)=s: delta_b=0.01 widened (speedup {speedup:.3g}), "
        f"delta_b=0.08 narrowed {narrowing:.2f}x "
        "(magnitudes reported, not asserted)",
    )
    assert ok


def test_criterion_7_overlap_endpoints_and_normalization(overlaps):
    worst_end = worst_start = worst_norm = 0.0
    for trace in overlaps.values():
        worst_end = max(worst_end, abs(trace.weights[-1, 0] - 1.0))
        worst_start = max(worst_start, float(np.abs(trace.weights[0] - 1 / 32).max()))
        worst_norm = max(worst_norm, float(np.abs(trace.norm - 1.0).max()))
    ok = worst_end <= 1e-10 and worst_start <= 1e-10 and worst_norm <= 1e-10
    _verdict(
        7,
        ok,
        f"a0(1) off by {worst_end:.1e}, a_k(0) off by {worst_start:.1e}, "
        f"norm off by {worst_norm:.1e} across all five instances",
    )
    assert ok


def test_criterion_8_flip_speed_ordering(overlaps):
    speeds = {}
    for delta_b, trace in overlaps.items():
        a00 = trace.weights[:, 0]
        speeds[delta_b] = float(np.abs(np.diff(a00) / np.diff(trace.grid)).max())
    ratio = speeds[0.01] / speeds[0.08]
    ok = ratio >= 10.0
    _verdict(
        8,
        ok,
        f"max |da0/ds|: 0.01 -> {speeds[0.01]:.1f}, 0.08 -> {speeds[0.08]:.1f}, "
        f"ratio {ratio:.1f}",
    )
    assert ok


def test_criterion_9_two_level_oracle():
    sched = ScheduleSpec(problem=IsingProblem(n=1, J={}, h=(1.0,)))
    trace = gap_trace(sched, GRID)
    located = min_gap(trace, s_tol=S_TOL)
    eps = epsilon(trace)
    fit = fit_hyperbola(trace, located.s_star, located.delta_min)
    # For H(s) = (1-s)X + sZ the transition element |<E1|dH/ds|E0>| is
    # 1/sqrt((1-s)^2 + s^2): sqrt(2) at its maximum, s = 0.5.
    grid = np.linspace(0.0, 1.0, GRID)
    eps_oracle = float(np.max(1.0 / np.sqrt((1.0 - grid) ** 2 + grid**2)))
    # Divided by the gap 2 sqrt((1-s)^2 + s^2), it is 1/(2((1-s)^2 + s^2)),
    # exactly 1.0 at s = 0.5.
    w, v = np.linalg.eigh(schedule_matrix(sched, located.s_star))
    dh = kron_schedule(sched.problem, sched.driver, located.s_star)[1]
    normalised = float(abs(v[:, 1] @ dh @ v[:, 0])) / (w[1] - w[0])
    checks = {
        "s_star": abs(located.s_star - 0.5) <= 1e-6,
        "delta_min": abs(located.delta_min - sqrt(2.0)) <= 1e-9,
        "epsilon": abs(eps - eps_oracle) <= 1e-6,
        "epsilon_over_gap": abs(normalised - 1.0) <= 1e-6,
        "residual": fit.residual <= 1e-6,
    }
    ok = all(checks.values())
    _verdict(
        9,
        ok,
        f"s*={located.s_star:.8f}, delta_min={located.delta_min:.10f}, "
        f"epsilon={eps:.10f} (required {eps_oracle:.10f}+-1e-6), "
        f"epsilon/gap at s*={normalised:.10f} (required 1.0+-1e-6), "
        f"residual={fit.residual:.1e}",
    )
    assert ok, (
        f"failed clauses: {[k for k, v in checks.items() if not v]} "
        f"(epsilon={eps}, epsilon/gap at s*={normalised})"
    )


def test_criterion_10_property_suites_and_sweep(full_sweep, rng):
    # transform algebra
    p = random_ising(rng, 6)
    for k in range(6):
        twice = transform(transform(p, k), k)
        assert twice.J == p.J and twice.h == p.h
    assert compose_swap(p, 1, 4) == swap_labels(p, 1, 4)

    # solution mapping preserves energiesexhaustively
    small = random_ising(rng, 8, density=0.4)
    for k in range(8):
        moved = transform(small, k)
        for m in range(256):
            a = SpinAssignment.from_basis_index(m, 8)
            assert moved.energy(a) == pytest.approx(
                small.energy(back_map(a, k)), abs=1e-12
            )

    # conversion consistency, exhaustively for n=5
    qubo = random_qubo(rng, 5)
    ising = qubo_to_ising(qubo)
    for m in range(32):
        a = SpinAssignment.from_basis_index(m, 5)
        assert ising.energy(a) == pytest.approx(qubo.energy(a), abs=1e-12)

    # schedule derivative vs central differences
    for driver in ("stoquastic", NONSTOQUASTIC):
        sched = ScheduleSpec(problem=random_ising(rng, 3), driver=driver)
        for s in (0.2, 0.5, 0.8):
            fd = (
                hamiltonian_at(sched, s + 1e-6).matrix
                - hamiltonian_at(sched, s - 1e-6).matrix
            ) / 2e-6
            dh = _schedule_product(sched, s, np.eye(8), derivative=True)
            assert np.abs(dh - fd).max() <= 1e-6

    # eigensolver residual contract
    block = rng.normal(size=(32, 32))
    for matrix in (np.diag(problem_diagonal(_chain_ising(0.04))), block + block.T):
        w, v = _solve(matrix.copy(), 0.5, keep=32)  # dsyevr overwrites its input
        scale = max(np.abs(matrix).max(), 1.0)
        assert np.abs(matrix - v @ np.diag(w) @ v.T).max() <= 1e-9 * scale
        assert np.abs(v.T @ v - np.eye(32)).max() <= 1e-10

    # the full default sweep wrote every cell and stayed within budget
    path, elapsed = full_sweep
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    moved_rows = [row for row in rows if row[1].startswith("eltip-")]
    ok = (
        len(lines) == 36
        and all(row[8] == "" for row in rows)
        and all(row[6] == "false" for row in moved_rows)
        and all(float(row[7]) > 10 for row in moved_rows)
        and elapsed < 240.0
    )
    _verdict(
        10,
        ok,
        f"property suites green; full 5x7 sweep wrote {len(lines) - 1} clean rows "
        f"in {elapsed:.1f} s",
    )
    assert ok
