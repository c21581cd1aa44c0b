"""Tests for box churn / failure injection."""

import numpy as np
import pytest

from repro.core.allocation import random_permutation_allocation
from repro.core.parameters import homogeneous_population
from repro.core.preloading import Demand
from repro.core.video import Catalog
from repro.sim.churn import ChurnSchedule, Outage, random_churn_schedule
from repro.sim.engine import VodSimulator
from repro.workloads.base import StaticDemandSchedule
from repro.workloads.flashcrowd import FlashCrowdWorkload


class TestOutage:
    def test_covers(self):
        outage = Outage(box_id=3, start=2, end=5)
        assert not outage.covers(1)
        assert outage.covers(2)
        assert outage.covers(4)
        assert not outage.covers(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Outage(box_id=0, start=5, end=5)
        with pytest.raises(ValueError):
            Outage(box_id=-1, start=0, end=1)


class TestChurnSchedule:
    def test_offline_boxes(self):
        schedule = ChurnSchedule([Outage(0, 1, 3), Outage(2, 2, 4)])
        assert schedule.offline_boxes(0) == set()
        assert schedule.offline_boxes(1) == {0}
        assert schedule.offline_boxes(2) == {0, 2}
        assert schedule.offline_boxes(3) == {2}
        assert len(schedule) == 2

    def test_is_offline(self):
        schedule = ChurnSchedule([Outage(1, 0, 10)])
        assert schedule.is_offline(1, 5)
        assert not schedule.is_offline(0, 5)
        assert not schedule.is_offline(1, 10)

    def test_max_concurrent(self):
        schedule = ChurnSchedule([Outage(1, 3, 6), Outage(0, 0, 5)])
        assert schedule.max_concurrent_outages(horizon=10) == 2
        assert schedule.max_concurrent_outages(horizon=3) == 1

    def test_outages_read_back_sorted_by_box_then_time(self):
        outages = [Outage(2, 0, 3), Outage(0, 4, 6), Outage(1, 1, 2), Outage(0, 0, 2)]
        schedule = ChurnSchedule(outages)
        assert schedule.outages == tuple(sorted(outages))
        assert schedule.offline_array(1).tolist() == [0, 1, 2]
        assert schedule.offline_array(4).tolist() == [0]

    @pytest.mark.parametrize(
        "schedule",
        [
            random_churn_schedule(200, 40, 0.05, 6, random_state=3),
            # Box 3's outages overlap (and one repeats), so it is offline
            # through more than one of them at rounds 2 to 5.
            ChurnSchedule([
                Outage(3, 0, 6), Outage(3, 2, 8), Outage(3, 2, 8), Outage(1, 1, 4),
                Outage(7, 4, 5), Outage(0, 3, 9), Outage(3, 8, 9),
            ]),
        ],
        ids=["random", "overlapping"],
    )
    def test_offline_array_is_the_sorted_distinct_offline_boxes(self, schedule):
        outages = schedule.outages
        horizon = max(o.end for o in outages) + 1
        for time in range(horizon):
            reference = np.unique(
                np.array([o.box_id for o in outages if o.covers(time)], dtype=np.int64)
            )
            offline = schedule.offline_array(time)
            assert offline.dtype == np.int64
            assert offline.tolist() == reference.tolist()

    def test_random_schedule_properties(self):
        schedule = random_churn_schedule(
            num_boxes=20, horizon=30, failure_probability=0.1, outage_duration=5,
            random_state=0, protected_boxes=[0, 1],
        )
        for outage in schedule.outages:
            assert outage.box_id not in (0, 1)
            assert outage.end - outage.start == 5
        # A box is never scheduled for two overlapping outages.
        for box in range(20):
            own = sorted(o for o in schedule.outages if o.box_id == box)
            for first, second in zip(own, own[1:]):
                assert second.start >= first.end

    def test_random_schedule_deterministic(self):
        a = random_churn_schedule(10, 20, 0.2, 3, random_state=5)
        b = random_churn_schedule(10, 20, 0.2, 3, random_state=5)
        assert a.outages == b.outages

    def test_zero_probability_gives_empty_schedule(self):
        schedule = random_churn_schedule(10, 20, 0.0, 3, random_state=5)
        assert len(schedule) == 0


class TestEngineWithChurn:
    def build(self, k=4, seed=0):
        catalog = Catalog(num_videos=15, num_stripes=4, duration=30)
        population = homogeneous_population(40, u=2.0, d=3.0)
        allocation = random_permutation_allocation(catalog, population, k, random_state=seed)
        return catalog, population, allocation

    def test_offline_boxes_do_not_demand(self):
        catalog, population, allocation = self.build()
        churn = ChurnSchedule([Outage(box_id=0, start=0, end=10)])
        sim = VodSimulator(allocation, mu=1.5, churn=churn)
        schedule = StaticDemandSchedule([Demand(time=1, box_id=0, video_id=2)])
        result = sim.run(schedule, num_rounds=5)
        assert result.metrics.total_demands == 0

    def test_offline_boxes_do_not_serve(self):
        catalog, population, allocation = self.build()
        # Take the holders of stripe 0 offline and let another box request it:
        holders = allocation.boxes_with_stripe(0)
        requester = next(b for b in range(population.n) if b not in set(holders.tolist()))
        churn = ChurnSchedule([Outage(int(b), 0, 20) for b in holders])
        sim = VodSimulator(allocation, mu=1.5, churn=churn, record_connections=True)
        video = catalog.video_of_stripe(0)
        schedule = StaticDemandSchedule([Demand(time=1, box_id=requester, video_id=video)])
        result = sim.run(schedule, num_rounds=5)
        # The stripe-0 request cannot be served while all its holders are down.
        assert not result.feasible
        for event in result.trace.connections():
            assert event.server_box not in set(int(b) for b in holders)

    def test_moderate_churn_is_tolerated(self):
        catalog, population, allocation = self.build(k=4, seed=2)
        churn = random_churn_schedule(
            num_boxes=population.n, horizon=12, failure_probability=0.02,
            outage_duration=3, random_state=3,
        )
        sim = VodSimulator(allocation, mu=1.5, churn=churn)
        result = sim.run(FlashCrowdWorkload(mu=1.5, random_state=3), num_rounds=12)
        assert result.feasible

    def test_massive_churn_breaks_the_system(self):
        catalog, population, allocation = self.build(k=2, seed=2)
        # Take 80% of the boxes down for the whole run.
        churn = ChurnSchedule([Outage(b, 0, 30) for b in range(8, population.n)])
        sim = VodSimulator(allocation, mu=2.0, churn=churn, stop_on_infeasible=True)
        result = sim.run(FlashCrowdWorkload(mu=2.0, random_state=4), num_rounds=10)
        assert not result.feasible

    def test_no_churn_argument_is_equivalent_to_empty_schedule(self):
        catalog, population, allocation = self.build(seed=5)
        workload_a = FlashCrowdWorkload(mu=1.5, random_state=6)
        workload_b = FlashCrowdWorkload(mu=1.5, random_state=6)
        plain = VodSimulator(allocation, mu=1.5).run(workload_a, num_rounds=8)
        empty = VodSimulator(allocation, mu=1.5, churn=ChurnSchedule()).run(
            workload_b, num_rounds=8
        )
        assert plain.metrics.describe() == empty.metrics.describe()
