"""Tests for the preloading request strategy (Section 3)."""

import numpy as np
import pytest

from repro.core.preloading import START_UP_DELAY_ROUNDS, Demand, PreloadingScheduler
from repro.core.video import Catalog


@pytest.fixture
def catalog():
    return Catalog(num_videos=5, num_stripes=4, duration=30)


class TestDemand:
    def test_validation(self):
        with pytest.raises(ValueError):
            Demand(time=-1, box_id=0, video_id=0)
        with pytest.raises(ValueError):
            Demand(time=0, box_id=-1, video_id=0)

    def test_ordering_by_time(self):
        assert Demand(1, 5, 2) < Demand(2, 0, 0)


def arrivals(*pairs):
    """``(video_ids, box_ids, demand_indices)`` for one round's (box, video) pairs.

    Demand indices count up from 100, so they cannot be mistaken for boxes.
    """
    boxes = np.array([b for b, _ in pairs], dtype=np.int64)
    videos = np.array([v for _, v in pairs], dtype=np.int64)
    return videos, boxes, np.arange(100, 100 + len(pairs), dtype=np.int64)


class TestPreloadingScheduler:
    def test_single_demand_issues_one_preload_now(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        stripes, boxes, demands, preload = scheduler.on_demand_arrays(
            *arrivals((0, 1)), time=3
        )
        assert stripes.size == 1
        assert preload.tolist() == [True]
        assert boxes.tolist() == [0]
        assert demands.tolist() == [100]
        assert catalog.video_of_stripe(int(stripes[0])) == 1
        # Nothing else is issued at the demand round itself.
        assert scheduler.due_arrays(3)[0].size == 0

    def test_postponed_requests_queued_for_next_round(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        scheduler.on_demand_arrays(*arrivals((0, 1)), time=3)
        stripes, boxes, demands, preload = scheduler.due_arrays(4)
        assert stripes.size == catalog.num_stripes_per_video - 1
        assert not preload.any()
        assert boxes.tolist() == [0] * 3
        # Each postponed request carries the index of its demand.
        assert demands.tolist() == [100] * 3
        # All c stripes of the video are covered exactly once in total.
        assert len(set(stripes.tolist())) == 3

    def test_requests_due_pops_only_once(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        scheduler.on_demand_arrays(*arrivals((0, 1)), time=3)
        assert scheduler.due_arrays(4)[0].size
        assert scheduler.due_arrays(4)[0].size == 0

    def test_preload_stripe_rotates_round_robin(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        c = catalog.num_stripes_per_video
        preloads = []
        # Half the joiners arrive in one round, the rest in the next: the
        # rotation continues across rounds and within one round.
        for time, boxes in ((0, range(c)), (1, range(c, 2 * c))):
            stripes, _, _, _ = scheduler.on_demand_arrays(
                *arrivals(*[(box, 2) for box in boxes]), time=time
            )
            preloads.extend(catalog.stripe_index_of(int(s)) for s in stripes)
        # The p-th box preloads stripe p mod c: indices cycle 0..c-1 twice.
        assert preloads == [p % c for p in range(2 * c)]

    def test_counters_are_per_video(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        stripes, _, _, _ = scheduler.on_demand_arrays(
            *arrivals((0, 0), (1, 1)), time=0
        )
        assert [catalog.stripe_index_of(int(s)) for s in stripes] == [0, 0]
        assert scheduler.swarm_entry_count(0) == 1
        assert scheduler.swarm_entry_count(1) == 1
        assert scheduler.swarm_entry_count(4) == 0

    def test_total_requests_per_demand_is_c(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        issued = scheduler.on_demand_arrays(*arrivals((0, 3)), time=5)[0]
        postponed = scheduler.due_arrays(6)[0]
        all_requests = issued.tolist() + postponed.tolist()
        assert len(all_requests) == catalog.num_stripes_per_video
        assert set(all_requests) == set(catalog.stripes_of_video(3).tolist())

    def test_object_batch_adapter_matches_the_array_form(self, catalog):
        pairs = [(0, 1), (1, 1), (2, 4)]
        by_arrays = PreloadingScheduler(catalog)
        by_objects = PreloadingScheduler(catalog)
        expected = by_arrays.on_demand_arrays(*arrivals(*pairs), time=2)
        got = by_objects.on_demands_batch(
            [
                (100 + j, Demand(time=2, box_id=box, video_id=video))
                for j, (box, video) in enumerate(pairs)
            ]
        )
        for left, right in zip(expected, got):
            assert left.tolist() == right.tolist()
        for left, right in zip(by_arrays.due_arrays(3), by_objects.due_arrays(3)):
            assert left.tolist() == right.tolist()

    def test_start_up_delay_constant(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        assert scheduler.start_up_delay == START_UP_DELAY_ROUNDS == 3
        demand = Demand(time=7, box_id=0, video_id=0)
        assert scheduler.playback_start_round(demand) == 9

    def test_pending_rounds_and_reset(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        scheduler.on_demand_arrays(*arrivals((0, 0)), time=2)
        scheduler.on_demand_arrays(*arrivals((1, 1)), time=5)
        assert scheduler.pending_rounds() == (3, 6)
        scheduler.reset()
        assert scheduler.pending_rounds() == ()
        assert scheduler.swarm_entry_count(0) == 0

    def test_demand_for_unknown_video_raises(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        with pytest.raises(ValueError):
            scheduler.on_demand_arrays(*arrivals((0, 99)), time=0)
