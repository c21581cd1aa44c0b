"""Tests for demand workloads (adversarial, flash crowd, popularity, sequential)."""

import numpy as np
import pytest

from repro.core.allocation import random_permutation_allocation
from repro.core.parameters import homogeneous_population
from repro.core.preloading import Demand
from repro.core.video import Catalog
from repro.sim.swarm import SwarmRegistry
from repro.workloads.adversarial import (
    ColdStartAdversary,
    LeastReplicatedAdversary,
    MissingVideoAdversary,
)
from repro.workloads.base import StaticDemandSchedule, SystemView
from repro.workloads.drift import DriftingZipfWorkload, FlashRotationWorkload
from repro.workloads.flashcrowd import FlashCrowdWorkload, StaggeredFlashCrowdWorkload
from repro.workloads.popularity import (
    UniformDemandWorkload,
    ZipfDemandWorkload,
    check_zipf_exponent,
    zipf_weights,
)
from repro.workloads.sequential import SequentialViewingWorkload
from repro.workloads.trace import TraceDemandWorkload, load_trace, resolve_trace_path


def make_view(time=0, n=30, m=20, c=4, u=1.5, d=3.0, k=3, mu=2.0, busy=(), seed=0):
    catalog = Catalog(num_videos=m, num_stripes=c, duration=25)
    population = homogeneous_population(n, u=u, d=d)
    allocation = random_permutation_allocation(catalog, population, k, random_state=seed)
    swarms = SwarmRegistry(mu=mu, duration=25)
    free = np.array([b for b in range(n) if b not in set(busy)], dtype=np.int64)
    return SystemView(
        time=time,
        catalog=catalog,
        allocation=allocation,
        population=population,
        swarms=swarms,
        free_boxes=free,
    )


def arrivals(workload, view):
    """One round's ``(box, video)`` pairs of ``workload``, in arrival order."""
    boxes, videos = workload.demand_arrays_for_round(view)
    return list(zip(boxes.tolist(), videos.tolist()))


class TestStaticSchedule:
    def test_demands_at_matching_round_only(self):
        schedule = StaticDemandSchedule(
            [Demand(0, 1, 2), Demand(2, 3, 4), Demand(2, 5, 6)]
        )
        assert arrivals(schedule, make_view(time=0)) == [(1, 2)]
        assert arrivals(schedule, make_view(time=1)) == []
        assert arrivals(schedule, make_view(time=2)) == [(3, 4), (5, 6)]
        assert schedule.total_demands == 3

    def test_busy_boxes_filtered(self):
        schedule = StaticDemandSchedule([Demand(0, 1, 2), Demand(0, 4, 5), Demand(0, 3, 1)])
        assert arrivals(schedule, make_view(time=0, busy=(1,))) == [(4, 5), (3, 1)]


class TestFlashCrowd:
    def test_growth_respects_mu(self):
        view = make_view(mu=1.5)
        workload = FlashCrowdWorkload(mu=1.5, random_state=0)
        demands = arrivals(workload, view)
        # Empty swarm: at most ceil(1.5) = 2 joiners.
        assert 1 <= len(demands) <= 2
        assert all(video == 0 for _, video in demands)

    def test_growth_uses_registry_state(self):
        view = make_view(mu=2.0)
        # Pretend 4 boxes already joined video 0 at round -? use time 1.
        for b in range(4):
            view.swarms.enter(0, b, time=0)
        view2 = SystemView(
            time=1,
            catalog=view.catalog,
            allocation=view.allocation,
            population=view.population,
            swarms=view.swarms,
            free_boxes=np.arange(4, 30, dtype=np.int64),
        )
        workload = FlashCrowdWorkload(mu=2.0, random_state=0)
        assert len(arrivals(workload, view2)) == 4  # swarm may double from 4 to 8

    def test_max_members_cap(self):
        view = make_view(mu=4.0)
        workload = FlashCrowdWorkload(mu=4.0, max_members=3, random_state=0)
        assert len(arrivals(workload, view)) <= 3

    def test_start_time(self):
        workload = FlashCrowdWorkload(mu=1.5, start_time=5, random_state=0)
        assert arrivals(workload, make_view(time=0)) == []
        assert arrivals(workload, make_view(time=5))

    def test_target_video_out_of_range(self):
        workload = FlashCrowdWorkload(mu=1.5, target_videos=(99,))
        with pytest.raises(ValueError):
            workload.demand_arrays_for_round(make_view())

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            FlashCrowdWorkload(mu=1.5, target_videos=())

    def test_negative_target_rejected_at_construction(self):
        with pytest.raises(ValueError, match="-1"):
            FlashCrowdWorkload(mu=1.5, target_videos=(-1,))
        with pytest.raises(ValueError, match="-1"):
            StaggeredFlashCrowdWorkload(
                mu=1.5, target_videos=(0, -1), start_times=(0, 1)
            )

    def test_staggered_crowds(self):
        workload = StaggeredFlashCrowdWorkload(
            mu=2.0, target_videos=(0, 1), start_times=(0, 3), random_state=0
        )
        early = arrivals(workload, make_view(time=0))
        assert {video for _, video in early} == {0}
        late = arrivals(workload, make_view(time=3))
        assert 1 in {video for _, video in late}

    def test_staggered_validation(self):
        with pytest.raises(ValueError):
            StaggeredFlashCrowdWorkload(mu=2.0, target_videos=(0,), start_times=(0, 1))


class TestAdversaries:
    def test_missing_video_adversary_targets_unstored_videos(self):
        view = make_view()
        adversary = MissingVideoAdversary(random_state=0)
        demands = arrivals(adversary, view)
        assert demands, "every box should miss some video in this configuration"
        c = view.catalog.num_stripes_per_video
        for box, video in demands:
            stored = view.allocation.stripes_on_box(box)
            stored_videos = set((stored // c).tolist())
            assert video not in stored_videos

    def test_missing_video_adversary_throttle(self):
        adversary = MissingVideoAdversary(max_demands_per_round=5, random_state=0)
        assert len(arrivals(adversary, make_view())) <= 5

    def test_missing_video_adversary_respect_growth(self):
        view = make_view(mu=1.5)
        adversary = MissingVideoAdversary(respect_growth=True, mu=1.5, random_state=0)
        demands = arrivals(adversary, view)
        # With growth respected, each video receives at most ceil(1.5)=2 joiners.
        per_video = {}
        for _, video in demands:
            per_video[video] = per_video.get(video, 0) + 1
        assert all(count <= 2 for count in per_video.values())

    def test_missing_video_adversary_start_time(self):
        adversary = MissingVideoAdversary(start_time=4, random_state=0)
        assert arrivals(adversary, make_view(time=0)) == []

    def test_least_replicated_adversary_targets_weakest_video(self):
        view = make_view(mu=2.0)
        adversary = LeastReplicatedAdversary(mu=2.0, num_target_videos=1, random_state=0)
        demands = arrivals(adversary, view)
        assert demands
        coverage = view.allocation.distinct_coverage()
        per_video = coverage.reshape(view.catalog.num_videos, -1).min(axis=1)
        target = demands[0][1]
        assert per_video[target] == per_video.min()

    def test_least_replicated_adversary_validation(self):
        with pytest.raises(ValueError):
            LeastReplicatedAdversary(mu=2.0, num_target_videos=0)

    def test_cold_start_adversary_targets_empty_swarms(self):
        view = make_view()
        view.swarms.enter(0, 0, time=0)
        adversary = ColdStartAdversary(random_state=0)
        demands = arrivals(
            adversary,
            SystemView(
                time=1,
                catalog=view.catalog,
                allocation=view.allocation,
                population=view.population,
                swarms=view.swarms,
                free_boxes=np.arange(1, 30, dtype=np.int64),
            ),
        )
        assert demands
        assert all(video != 0 for _, video in demands)
        # Each cold video receives at most one demand.
        videos = [video for _, video in demands]
        assert len(videos) == len(set(videos))

    def test_cold_start_adversary_throttle(self):
        adversary = ColdStartAdversary(max_demands_per_round=3, random_state=0)
        assert len(arrivals(adversary, make_view())) <= 3


class TestPopularity:
    def test_zipf_weights_normalized_and_decreasing(self):
        weights = zipf_weights(20, exponent=0.8)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) <= 0)

    def test_zipf_weights_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, exponent=0.0)

    def test_zipf_demand_counts_and_boxes(self):
        workload = ZipfDemandWorkload(arrival_rate=5.0, random_state=0)
        demands = arrivals(workload, make_view())
        assert all(0 <= video < 20 for _, video in demands)
        boxes = [box for box, _ in demands]
        assert len(boxes) == len(set(boxes))

    def test_zipf_demand_truncated_to_free_boxes(self):
        view = make_view(busy=tuple(range(28)))  # only 2 free boxes
        workload = ZipfDemandWorkload(arrival_rate=50.0, random_state=0)
        assert len(arrivals(workload, view)) <= 2

    def test_zipf_start_time(self):
        workload = ZipfDemandWorkload(arrival_rate=5.0, start_time=2, random_state=0)
        assert arrivals(workload, make_view(time=0)) == []

    def test_zipf_popularity_skew(self):
        # Over many rounds, video 0 must receive more demands than video 19.
        workload = ZipfDemandWorkload(arrival_rate=10.0, exponent=1.2, random_state=0)
        counts = np.zeros(20)
        for t in range(60):
            for _, video in arrivals(workload, make_view(time=t)):
                counts[video] += 1
        assert counts[0] > counts[19]

    def test_uniform_demands(self):
        workload = UniformDemandWorkload(arrival_rate=5.0, random_state=0)
        demands = arrivals(workload, make_view())
        assert all(0 <= video < 20 for _, video in demands)


class TestSequentialViewing:
    def test_every_free_box_demands(self):
        workload = SequentialViewingWorkload(random_state=0)
        view = make_view()
        assert len(arrivals(workload, view)) == view.free_boxes.size

    def test_playlist_is_cycled(self):
        workload = SequentialViewingWorkload(boxes=[0], playlist=[3, 7], random_state=0)
        videos = [arrivals(workload, make_view(time=t)) for t in range(3)]
        assert videos == [[(0, 3)], [(0, 7)], [(0, 3)]]

    def test_no_immediate_repeat_without_playlist(self):
        workload = SequentialViewingWorkload(boxes=[0], random_state=0)
        last = None
        for t in range(10):
            [(_, video)] = arrivals(workload, make_view(time=t))
            assert video != last
            last = video

    def test_participant_filter(self):
        workload = SequentialViewingWorkload(boxes=[2, 3], random_state=0)
        assert {box for box, _ in arrivals(workload, make_view())} == {2, 3}

    def test_empty_playlist_rejected(self):
        with pytest.raises(ValueError):
            SequentialViewingWorkload(playlist=[])


class TestDegenerateZipfParameters:
    """Typed, actionable rejections of degenerate popularity parameters."""

    @pytest.mark.parametrize("alpha", [0.0, -0.5, float("nan"), float("inf")])
    def test_check_zipf_exponent_rejects(self, alpha):
        with pytest.raises(ValueError, match="alpha > 0"):
            check_zipf_exponent(alpha)

    def test_check_zipf_exponent_message_names_the_parameter(self):
        with pytest.raises(ValueError, match="drift_exponent"):
            check_zipf_exponent(-1.0, name="drift_exponent")

    def test_zipf_weights_rejects_empty_catalog_with_value(self):
        with pytest.raises(ValueError, match="got -3"):
            zipf_weights(-3)

    def test_zipf_weights_rejects_single_video_catalog(self):
        with pytest.raises(ValueError, match="single-video catalog is degenerate"):
            zipf_weights(1)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, float("nan")])
    def test_zipf_workload_rejects_bad_exponent_at_construction(self, alpha):
        with pytest.raises(ValueError, match="alpha > 0"):
            ZipfDemandWorkload(arrival_rate=1.0, exponent=alpha)

    def test_drift_workload_rejects_bad_exponent_at_construction(self):
        with pytest.raises(ValueError, match="alpha > 0"):
            DriftingZipfWorkload(arrival_rate=1.0, exponent=-0.8)


class TestDriftWorkload:
    def test_same_seed_reproduces_sequence(self):
        runs = []
        for _ in range(2):
            workload = DriftingZipfWorkload(
                4.0, exponent=1.0, drift_period=3, random_state=17
            )
            runs.append(
                [
                    tuple(workload.demand_arrays_for_round(make_view(time=t))[1].tolist())
                    for t in range(12)
                ]
            )
        assert runs[0] == runs[1]

    def test_start_time_gates_arrivals(self):
        workload = DriftingZipfWorkload(4.0, start_time=3, random_state=0)
        assert arrivals(workload, make_view(time=2)) == []

    def test_prefix_stability_across_horizons(self):
        """Rounds [0, 8) are identical whether the run lasts 8 or 20 rounds."""
        short = DriftingZipfWorkload(4.0, exponent=1.0, drift_period=3, random_state=23)
        long = DriftingZipfWorkload(4.0, exponent=1.0, drift_period=3, random_state=23)
        short_seq = [
            short.demand_arrays_for_round(make_view(time=t))[1].tolist()
            for t in range(8)
        ]
        long_seq = [
            long.demand_arrays_for_round(make_view(time=t))[1].tolist()
            for t in range(20)
        ]
        assert long_seq[:8] == short_seq


class TestFlashRotationWorkload:
    def test_boost_must_exceed_one(self):
        with pytest.raises(ValueError, match="boost must exceed 1"):
            FlashRotationWorkload(arrival_rate=1.0, boost=1.0)

    def test_hot_window_must_fit_catalog(self):
        workload = FlashRotationWorkload(arrival_rate=1.0, hot_videos=50)
        with pytest.raises(ValueError, match="exceeds the catalog size"):
            workload.demand_arrays_for_round(make_view())

    def test_demand_concentrates_on_hot_window(self):
        workload = FlashRotationWorkload(
            10.0, hot_videos=2, rotation_period=100, boost=50.0, random_state=3
        )
        hits = hot_hits = 0
        for t in range(40):
            for _, video in arrivals(workload, make_view(time=t)):
                hits += 1
                hot_hits += video in (0, 1)
        assert hits > 0 and hot_hits / hits > 0.6

    def test_window_rotates(self):
        workload = FlashRotationWorkload(
            1.0, hot_videos=4, rotation_period=2, boost=8.0, random_state=3
        )
        assert workload.hot_set(0, 20).tolist() == [0, 1, 2, 3]
        assert workload.hot_set(2, 20).tolist() == [4, 5, 6, 7]
        assert workload.hot_set(9, 20).tolist() == [16, 17, 18, 19]
        assert workload.hot_set(10, 20).tolist() == [0, 1, 2, 3]


class TestTraceWorkload:
    def test_replays_fixture_videos_in_order(self):
        header, events = load_trace(resolve_trace_path("zipf_small"))
        workload = TraceDemandWorkload("zipf_small", random_state=1)
        replayed = []
        for t in range(25):
            _, videos = workload.demand_arrays_for_round(make_view(time=t, m=16, n=200))
            replayed.extend(videos.tolist())
        assert replayed == [v for _, v in events]

    def test_unknown_trace_is_actionable(self):
        with pytest.raises(FileNotFoundError, match="bundled traces: "):
            TraceDemandWorkload("no_such_trace")

    def test_catalog_smaller_than_trace_rejected(self):
        workload = TraceDemandWorkload("zipf_small", random_state=1)
        with pytest.raises(ValueError, match="at least 16 videos"):
            workload.demand_arrays_for_round(make_view(time=0, m=8))

    def test_surplus_events_drop_when_boxes_scarce(self):
        workload = TraceDemandWorkload("zipf_small", random_state=1)
        view = make_view(time=0, m=16, busy=tuple(range(29)))  # 1 free box
        assert len(arrivals(workload, view)) == 1

    def test_start_time_shifts_the_replay(self):
        workload = TraceDemandWorkload("zipf_small", start_time=5, random_state=1)
        assert arrivals(workload, make_view(time=4, m=16)) == []
        assert len(arrivals(workload, make_view(time=5, m=16))) > 0
