"""Final-basis ordering and instantaneous ground-state overlap traces."""

import numpy as np
import pytest

from annealgap import (
    DegenerateLevelsError,
    IsingProblem,
    MisChainSpec,
    ScheduleSpec,
    SpinAssignment,
    gap_trace,
    min_gap,
    mis_chain,
    overlap_trace,
    qubo_to_ising,
)
from conftest import enumerate_qubo


def chain_schedule(delta_b: float) -> ScheduleSpec:
    return ScheduleSpec(problem=qubo_to_ising(mis_chain(MisChainSpec(delta_b))))


class TestFinalBasis:
    """The order of ``overlap_trace``'s columns: final energy ascending, ties by
    basis index. Column k must be the scan's ground weight at the k-th index."""

    def test_chain_ground_and_first_excited(self):
        scan = gap_trace(chain_schedule(0.04), 11)
        trace = overlap_trace(scan, k_max=1)
        for k, q in enumerate([(1, 0, 1, 0, 1), (0, 1, 0, 1, 0)]):
            index = SpinAssignment(q).basis_index
            assert np.array_equal(trace.weights[:, k], scan.ground_weights[:, index])
        assert trace.labels[0] == pytest.approx(-12.0, abs=1e-12)
        assert trace.labels[1] == pytest.approx(-11.96, abs=1e-12)

    def test_matches_exhaustive_enumeration(self):
        qubo = mis_chain(MisChainSpec(0.04))
        sched = ScheduleSpec(problem=qubo_to_ising(qubo))
        trace = overlap_trace(gap_trace(sched, 11), k_max=31)
        oracle = sorted(e for _, e in enumerate_qubo(qubo))
        assert np.allclose(trace.labels, oracle, atol=1e-12)

    def test_degenerate_pair_ordered_by_index(self):
        # the chain family has a two-fold level at -9.88 + (delta_b adjustments)
        sched = chain_schedule(0.04)
        scan = gap_trace(sched, 11)
        trace = overlap_trace(scan, k_max=5)
        assert trace.labels[4] == pytest.approx(trace.labels[5], abs=1e-12)
        pair = np.flatnonzero(np.abs(sched.problem_diagonal - trace.labels[4]) <= 1e-12)
        assert len(pair) == 2
        assert not np.array_equal(scan.ground_weights[:, pair[0]], scan.ground_weights[:, pair[1]])
        assert np.array_equal(trace.weights[:, 4:6], scan.ground_weights[:, pair])

    def test_three_fold_tie_ordered_by_index(self):
        # energies 1, 1, 1, -3 at indices 0..3: the unique ground state 3 leads,
        # then the tied level in index order
        sched = ScheduleSpec(problem=IsingProblem(n=2, J={(0, 1): -1.0}, h=(1.0, 1.0)))
        scan = gap_trace(sched, 11)
        trace = overlap_trace(scan, k_max=3)
        assert np.array_equal(trace.labels, [-3.0, 1.0, 1.0, 1.0])
        assert not np.array_equal(scan.ground_weights[:, 0], scan.ground_weights[:, 1])
        assert np.array_equal(trace.weights, scan.ground_weights[:, [3, 0, 1, 2]])

    def test_single_spin_ground_state(self):
        scan = gap_trace(ScheduleSpec(problem=IsingProblem(n=1, J={}, h=(1.0,))), 11)
        trace = overlap_trace(scan, k_max=1)
        down = SpinAssignment((-1,), "sigma").basis_index
        assert np.array_equal(trace.labels, [-1.0, 1.0])
        assert np.array_equal(trace.weights[:, 0], scan.ground_weights[:, down])


class TestOverlapTrace:
    def test_endpoint_weights(self):
        trace = overlap_trace(gap_trace(chain_schedule(0.04), 201))
        assert trace.weights[-1, 0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.abs(trace.weights[-1, 1:]) <= 1e-10)
        assert np.allclose(trace.weights[0], 1.0 / 32.0, atol=1e-10)

    def test_normalization_tracked(self):
        trace = overlap_trace(gap_trace(chain_schedule(0.04), 201))
        assert np.all(np.abs(trace.norm - 1.0) <= 1e-10)

    def test_weights_within_unit_interval(self):
        trace = overlap_trace(gap_trace(chain_schedule(0.08), 201))
        assert np.all(trace.weights >= 0.0)
        assert np.all(trace.weights <= 1.0 + 1e-12)

    def test_labels_are_low_final_energies(self):
        trace = overlap_trace(gap_trace(chain_schedule(0.04), 11))
        assert trace.labels[0] == pytest.approx(-12.0, abs=1e-12)
        assert len(trace.labels) == 6

    def test_k_max_bounds(self):
        with pytest.raises(ValueError, match="k_max"):
            overlap_trace(gap_trace(chain_schedule(0.04), 11), k_max=32)

    def test_degenerate_ground_state_reported(self):
        with pytest.raises(DegenerateLevelsError, match="s=1.0"):
            overlap_trace(gap_trace(chain_schedule(0.0), 101))

    def test_rapid_switch_at_the_anticrossing(self):
        scan = gap_trace(chain_schedule(0.01), 2001)
        trace = overlap_trace(scan)
        located = min_gap(scan)
        a00, a10 = trace.weights[:, 0], trace.weights[:, 1]
        second_half = trace.grid >= 0.5
        takeover = np.where(second_half & (a00 >= a10))[0][0]
        s_cross = trace.grid[takeover]
        assert abs(s_cross - located.s_star) <= 1e-3
        before = trace.grid <= located.s_star - 0.01
        after = trace.grid >= located.s_star + 0.01
        assert a00[second_half & before].max() < 0.1
        assert a00[after].min() > 0.9


class TestFlipSpeedTrend:
    def test_speed_increases_as_final_gap_shrinks(self):
        speeds = {}
        for delta_b in (0.01, 0.02, 0.04, 0.06, 0.08):
            trace = overlap_trace(gap_trace(chain_schedule(delta_b), 2001))
            a00 = trace.weights[:, 0]
            speeds[delta_b] = np.abs(np.diff(a00) / np.diff(trace.grid)).max()
        ordered = [speeds[db] for db in (0.01, 0.02, 0.04, 0.06, 0.08)]
        assert all(x > y for x, y in zip(ordered, ordered[1:]))
