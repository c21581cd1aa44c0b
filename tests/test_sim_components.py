"""Tests for the simulator building blocks: clock, swarm registry, request
pool, metrics and trace."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import RoundClock
from repro.sim.events import (
    ConnectionEvent,
    DemandEvent,
    InfeasibilityEvent,
    PlaybackStartEvent,
    RequestEvent,
)
from repro.sim.metrics import MetricsCollector
from repro.sim.scheduler import ActiveRequestPool
from repro.sim.swarm import SwarmRegistry, max_new_members
from repro.sim.trace import SimulationTrace


class TestRoundClock:
    def test_advance(self):
        clock = RoundClock()
        assert clock.now == 0
        assert clock.advance() == 1
        assert clock.advance(3) == 4

    def test_reset(self):
        clock = RoundClock(5)
        clock.reset()
        assert clock.now == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundClock(-1)
        with pytest.raises(ValueError):
            RoundClock().advance(-1)


class TestMaxNewMembers:
    def test_empty_swarm_bootstraps_with_ceil_mu(self):
        assert max_new_members(0, 1.5) == 2
        assert max_new_members(0, 1.0) == 1

    def test_growth_factor(self):
        assert max_new_members(10, 1.5) == 5
        assert max_new_members(10, 1.0) == 0

    def test_ceiling_applied(self):
        assert max_new_members(3, 1.4) == 2  # ceil(4.2) - 3

    def test_validation(self):
        with pytest.raises(ValueError):
            max_new_members(-1, 1.5)
        with pytest.raises(ValueError):
            max_new_members(3, 0.9)


class TestSwarmRegistry:
    def test_membership_and_expiry(self):
        reg = SwarmRegistry(mu=2.0, duration=5)
        reg.enter(video_id=0, time=0)
        reg.enter(video_id=0, time=1)
        assert reg.size(0, 1) == 2
        # The first entrant leaves the swarm at time 5 (entered at 0, duration 5).
        assert reg.size(0, 5) == 1
        assert reg.size(0, 6) == 0

    def test_growth_violation_recorded(self):
        reg = SwarmRegistry(mu=1.5, duration=10)
        reg.enter(0, time=0)
        reg.enter(0, time=0)  # ceil(max(0,1)*1.5) = 2 allowed at t=0
        reg.enter(0, time=0)  # third joiner violates the bound
        assert reg.violation_count == 1

    def test_no_violation_at_maximal_growth(self):
        reg = SwarmRegistry(mu=2.0, duration=100)
        size = 0
        for t in range(6):
            allowed = max_new_members(size, 2.0)
            for _ in range(allowed):
                reg.enter(0, time=t)
            size = reg.size(0, t)
        assert reg.violation_count == 0
        # Doubling from 2 initial members over rounds 0..5: 2·2⁵ = 64.
        assert reg.size(0, 5) == 64

    def test_out_of_order_round_raises_and_leaves_the_registry_unchanged(self):
        reg = SwarmRegistry(mu=1.5, duration=10)
        reg.enter_batch(np.array([0, 0, 1]), time=4)
        with pytest.raises(ValueError, match="precedes"):
            reg.enter_batch(np.array([0, 1]), time=3)
        with pytest.raises(ValueError, match="precedes"):
            reg.enter(0, time=3)
        assert [reg.size(v, 4) for v in (0, 1)] == [2, 1]
        assert reg.violation_count == 0
        # The same round is still in order, and counts from the same sizes.
        reg.enter_batch(np.array([0]), time=4)
        assert reg.size(0, 4) == 3
        assert reg.violation_count == 1

    def test_a_further_batch_of_a_round_checks_against_the_round_before(self):
        reg = SwarmRegistry(mu=1.5, duration=2)
        reg.enter_batch(np.array([0, 0]), time=0)
        # Round 0's entrants count at round 1 and have left by round 2, so
        # every batch of round 2 may grow the swarm to ceil(2 · 1.5) = 3.
        reg.enter_batch(np.array([0]), time=2)
        reg.enter_batch(np.array([0, 0]), time=2)
        assert reg.size(0, 2) == 3
        assert reg.violation_count == 0
        reg.enter_batch(np.array([0]), time=2)
        assert reg.violation_count == 1

    def test_size_before_the_last_written_round_raises(self):
        reg = SwarmRegistry(mu=1.5, duration=10)
        reg.enter_batch(np.array([0, 1]), time=4)
        with pytest.raises(ValueError, match="precedes"):
            reg.size(0, 3)
        assert reg.size(0, 4) == 1

    def test_negative_video_id_raises(self):
        reg = SwarmRegistry(mu=1.5, duration=10)
        with pytest.raises(ValueError):
            reg.enter_batch(np.array([2, -1]), time=0)
        with pytest.raises(ValueError):
            reg.size(-1, 0)
        assert reg.size(2, 0) == 0

    def test_video_past_every_entered_one_reads_zero(self):
        reg = SwarmRegistry(mu=1.5, duration=10)
        reg.enter_batch(np.array([0, 3]), time=0)
        assert reg.size(4, 0) == 0
        assert reg.size(1_000_000, 5) == 0

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            SwarmRegistry(mu=1.5, duration=0)


class TestActiveRequestPool:
    @staticmethod
    def activate(pool, stripes, time=0, demands=None):
        stripes = np.asarray(stripes, dtype=np.int64)
        if demands is None:
            demands = np.full(stripes.size, -1, dtype=np.int64)
        pool.extend_from_arrays(
            stripes,
            time,
            np.zeros(stripes.size, dtype=np.int64),
            np.asarray(demands, dtype=np.int64),
        )

    def test_add_and_request_set(self):
        pool = ActiveRequestPool(duration=10)
        self.activate(pool, [1, 2], demands=[0, 0])
        assert len(pool) == 2
        requests = pool.request_set()
        assert requests.stripe_id_array.tolist() == [1, 2]
        assert requests.request_time_array.tolist() == [0, 0]
        assert requests.box_id_array.tolist() == [0, 0]

    def test_mark_matched_sets_first_round_only(self):
        pool = ActiveRequestPool(duration=10)
        self.activate(pool, [0])
        pool.apply_matching(np.array([3]), time=4)
        pool.apply_matching(np.array([5]), time=7)
        assert pool.first_matched.tolist() == [4]
        assert pool.assigned_boxes.tolist() == [5]

    def test_expire_after_duration(self):
        pool = ActiveRequestPool(duration=5)
        self.activate(pool, [0], time=0)
        pool.apply_matching(np.array([3]), time=1)
        pool.drop_expired_keeping(current_time=5)
        assert len(pool) == 1
        pool.drop_expired_keeping(current_time=6)
        assert len(pool) == 0
        assert pool.expired_unserved == 0

    def test_pair_expiries_follow_a_drop_and_an_activation(self):
        pool = ActiveRequestPool(duration=3)
        self.activate(pool, [0, 1, 2], time=0)
        assert pool.pair_expiry is None
        pool.apply_matching(np.array([-1, 3, -1]), time=0)
        pool.apply_matching(np.array([3, 4, 5]), time=2, pair_expiry=np.array([5, 6, 7]))
        pool.drop_expired_keeping(current_time=3)  # the middle one, served at 0
        assert pool.pair_expiry.tolist() == [5, 7]
        self.activate(pool, [3, 4], time=3)
        assert pool.pair_expiry.tolist() == [5, 7, -1, -1]
        pool.apply_matching(np.array([3, 5, -1, -1]), time=3, pair_expiry=None)
        assert pool.pair_expiry is None

    def test_pair_expiry_must_cover_every_active_request(self):
        pool = ActiveRequestPool(duration=3)
        self.activate(pool, [0, 1], time=0)
        with pytest.raises(ValueError, match="pair_expiry"):
            pool.apply_matching(np.array([3, 4]), time=0, pair_expiry=np.array([5]))

    def test_unserved_requests_counted_on_expiry(self):
        pool = ActiveRequestPool(duration=3)
        self.activate(pool, [0], time=0)
        pool.drop_expired_keeping(current_time=3)
        assert pool.expired_unserved == 1

    def test_by_demand_grouping(self):
        pool = ActiveRequestPool(duration=10)
        self.activate(pool, [1, 2, 3, 4], demands=[0, 0, 1, -1])
        demands = pool.demand_indices
        assert int((demands == 0).sum()) == 2
        assert int((demands == 1).sum()) == 1
        assert pool.stripe_ids[demands < 0].tolist() == [4]

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            ActiveRequestPool(duration=0)


class TestMetricsCollector:
    def test_round_accumulation(self):
        collector = MetricsCollector(num_boxes=4)
        collector.record_demands(2)
        collector.record_requests(6)
        collector.record_round(
            time=0,
            active_requests=6,
            new_requests=6,
            matched=6,
            feasible=True,
            box_load=np.array([2, 2, 1, 1]),
            upload_capacity=12,
        )
        collector.record_round(
            time=1,
            active_requests=8,
            new_requests=2,
            matched=7,
            feasible=False,
            box_load=np.array([3, 2, 1, 1]),
            upload_capacity=12,
        )
        collector.record_startup_delays(np.array([3, 5]))
        collector.record_swarm_violations(1)
        metrics = collector.finalize()
        assert metrics.rounds == 2
        assert metrics.total_demands == 2
        assert metrics.total_requests == 6
        assert metrics.infeasible_rounds == 1
        assert not metrics.all_feasible
        assert metrics.unmatched_requests == 1
        assert metrics.max_startup_delay == 5
        assert metrics.mean_startup_delay == pytest.approx(4.0)
        assert metrics.peak_utilization == pytest.approx(7 / 12)
        assert metrics.peak_box_load == 3
        assert metrics.swarm_growth_violations == 1
        assert metrics.round_stats[0].utilization == pytest.approx(0.5)

    def test_empty_run(self):
        metrics = MetricsCollector(num_boxes=2).finalize()
        assert metrics.rounds == 0
        assert metrics.all_feasible
        assert metrics.max_startup_delay is None
        assert metrics.describe()["mean_startup_delay"] != metrics.describe()["mean_startup_delay"]  # NaN

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsCollector(0)
        collector = MetricsCollector(2)
        with pytest.raises(ValueError):
            collector.record_demands(-1)
        with pytest.raises(ValueError):
            collector.record_startup_delays(np.array([-1]))

    @given(
        blocks=st.lists(
            st.lists(st.integers(0, 2**40), max_size=30), min_size=1, max_size=20
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_delay_totals_give_the_mean_of_every_delay(self, blocks):
        """The running totals read as the float64 mean and maximum of the delays."""
        collector = MetricsCollector(2)
        for block in blocks:
            collector.record_startup_delays(np.array(block, dtype=np.int64))
        delays = [delay for block in blocks for delay in block]
        metrics = collector.finalize()
        if delays:
            assert metrics.mean_startup_delay == float(np.mean(delays))
            assert metrics.max_startup_delay == max(delays)
        else:
            assert metrics.mean_startup_delay is None is metrics.max_startup_delay


class TestSimulationTrace:
    def test_queries(self):
        trace = SimulationTrace()
        trace.record(DemandEvent(time=0, box_id=1, video_id=2))
        trace.record(RequestEvent(time=0, box_id=1, stripe_id=8, is_preload=True))
        trace.record(ConnectionEvent(time=1, server_box=3, client_box=1, stripe_id=8))
        trace.record(PlaybackStartEvent(time=2, box_id=1, video_id=2, startup_delay=3))
        trace.record(InfeasibilityEvent(time=5, unmatched=2))
        assert len(trace) == 5
        assert len(trace.demands()) == 1
        assert len(trace.requests()) == 1
        assert len(trace.connections()) == 1
        assert len(trace.playback_starts()) == 1
        assert len(trace.infeasibilities()) == 1
        assert len(trace.at_round(0)) == 2
        assert trace.startup_delay_of(1, 2) == 3
        assert trace.startup_delay_of(9, 9) is None
        assert len(trace.filter(lambda e: getattr(e, "box_id", None) == 1)) == 3

    def test_export(self):
        trace = SimulationTrace()
        trace.extend(
            [
                DemandEvent(time=0, box_id=1, video_id=2),
                InfeasibilityEvent(time=1, unmatched=3, witness_requests=((0, 0, 1),)),
            ]
        )
        records = trace.to_records()
        assert records[0]["event"] == "DemandEvent"
        assert records[1]["unmatched"] == 3
        json_text = trace.to_json()
        assert "DemandEvent" in json_text
