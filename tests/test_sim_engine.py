"""Integration tests for the round-based VoD simulator."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.allocation import random_permutation_allocation
from repro.core.heterogeneous import RelayedPreloadingScheduler, compute_compensation_plan
from repro.core.parameters import BoxPopulation, homogeneous_population
from repro.core.preloading import Demand
from repro.core.video import Catalog
from repro.sim.engine import VodSimulator
from repro.sim.events import ConnectionEvent, PlaybackStartEvent
from repro.workloads.base import StaticDemandSchedule
from repro.workloads.flashcrowd import FlashCrowdWorkload
from repro.workloads.adversarial import MissingVideoAdversary
from repro.workloads.popularity import ZipfDemandWorkload


def build_system(n=40, u=2.0, d=4.0, m=20, c=4, k=4, duration=30, seed=0):
    catalog = Catalog(num_videos=m, num_stripes=c, duration=duration)
    population = homogeneous_population(n, u=u, d=d)
    allocation = random_permutation_allocation(catalog, population, k, random_state=seed)
    return catalog, population, allocation


class TestBasicRuns:
    def test_single_demand_full_lifecycle(self):
        catalog, population, allocation = build_system()
        schedule = StaticDemandSchedule([Demand(time=1, box_id=0, video_id=3)])
        sim = VodSimulator(allocation, mu=1.5, record_connections=True)
        result = sim.run(schedule, num_rounds=6)
        assert result.feasible
        assert result.metrics.total_demands == 1
        # c requests total: 1 preload + (c-1) postponed.
        assert result.metrics.total_requests == catalog.num_stripes_per_video
        starts = result.trace.playback_starts()
        assert len(starts) == 1
        assert starts[0].box_id == 0
        assert starts[0].video_id == 3
        assert starts[0].startup_delay == 3
        # Connections only reference boxes that possess the stripes.
        for event in result.trace.connections():
            assert event.server_box != event.client_box

    def test_empty_workload(self):
        _, _, allocation = build_system()
        sim = VodSimulator(allocation, mu=1.5)
        result = sim.run(StaticDemandSchedule([]), num_rounds=5)
        assert result.feasible
        assert result.metrics.total_demands == 0
        assert result.metrics.total_requests == 0

    def test_startup_delay_is_three_rounds_for_all_boxes(self):
        catalog, population, allocation = build_system(n=60, m=30, k=4)
        sim = VodSimulator(allocation, mu=1.5)
        workload = FlashCrowdWorkload(mu=1.5, random_state=3)
        result = sim.run(workload, num_rounds=8)
        assert result.feasible
        assert result.metrics.max_startup_delay == 3
        assert result.metrics.mean_startup_delay == pytest.approx(3.0)

    def test_busy_box_demands_are_rejected(self):
        catalog, population, allocation = build_system(duration=20)
        schedule = StaticDemandSchedule(
            [Demand(time=1, box_id=0, video_id=3), Demand(time=3, box_id=0, video_id=4)]
        )
        sim = VodSimulator(allocation, mu=1.5)
        result = sim.run(schedule, num_rounds=6)
        # The schedule filters on free boxes, so the second demand is simply
        # not emitted; nothing is rejected and only one demand is accepted.
        assert result.metrics.total_demands == 1
        assert result.rejected_demands == 0

    @pytest.mark.parametrize(
        "box, video, message",
        [(-1, 0, "box -1 "), (40, 0, "box 40 "), (0, -1, "video -1 "), (0, 20, "video 20 ")],
        ids=["negative-box", "box-past-population", "negative-video", "video-past-catalog"],
    )
    def test_array_arrival_outside_the_system_raises(self, box, video, message):
        _, _, allocation = build_system(n=40, m=20)

        class BadArrays:
            def demand_arrays_for_round(self, view):
                return np.array([box], dtype=np.int64), np.array([video], dtype=np.int64)

        sim = VodSimulator(allocation, mu=1.5)
        with pytest.raises(ValueError, match=message):
            sim.run(BadArrays(), num_rounds=2)

    def test_num_rounds_validation(self):
        _, _, allocation = build_system()
        sim = VodSimulator(allocation, mu=1.5)
        with pytest.raises(ValueError):
            sim.run(StaticDemandSchedule([]), num_rounds=0)


class TestFeasibilityRegimes:
    def test_well_provisioned_system_serves_flash_crowd(self):
        catalog, population, allocation = build_system(n=60, u=2.0, m=30, k=4)
        sim = VodSimulator(allocation, mu=1.5)
        result = sim.run(FlashCrowdWorkload(mu=1.5, random_state=0), num_rounds=10)
        assert result.feasible
        assert result.metrics.swarm_growth_violations == 0
        assert result.metrics.total_demands > 10

    def test_zipf_workload_feasible_above_threshold(self):
        catalog, population, allocation = build_system(n=50, u=1.5, m=25, k=4, c=4)
        sim = VodSimulator(allocation, mu=2.0)
        result = sim.run(ZipfDemandWorkload(arrival_rate=4, random_state=1), num_rounds=12)
        assert result.feasible

    def test_under_provisioned_system_fails_under_adversary(self):
        # u = 0.5 < 1 with a large catalog: the missing-video adversary
        # must create an infeasible round quickly.
        catalog, population, allocation = build_system(
            n=40, u=0.5, d=2.0, m=26, c=4, k=3, seed=5
        )
        sim = VodSimulator(allocation, mu=1.5, stop_on_infeasible=True)
        result = sim.run(MissingVideoAdversary(random_state=0), num_rounds=6)
        assert not result.feasible
        assert result.stopped_early
        assert len(result.trace.infeasibilities()) >= 1

    def test_stop_on_infeasible_false_continues(self):
        catalog, population, allocation = build_system(
            n=40, u=0.5, d=2.0, m=26, c=4, k=3, seed=5
        )
        sim = VodSimulator(allocation, mu=1.5, stop_on_infeasible=False)
        result = sim.run(MissingVideoAdversary(random_state=0), num_rounds=6)
        assert not result.feasible
        assert not result.stopped_early
        assert result.metrics.rounds == 6

    def test_infeasibility_event_carries_witness(self):
        catalog, population, allocation = build_system(
            n=40, u=0.5, d=2.0, m=26, c=4, k=3, seed=5
        )
        sim = VodSimulator(allocation, mu=1.5, stop_on_infeasible=True)
        result = sim.run(MissingVideoAdversary(random_state=0), num_rounds=6)
        event = result.trace.infeasibilities()[0]
        assert event.unmatched > 0
        assert event.witness_requests is None or len(event.witness_requests) > 0


class TestCacheSwarming:
    def test_later_viewers_served_by_earlier_viewers(self):
        # Tiny allocation capacity but a growing swarm: the flash crowd can
        # only be served because earlier viewers cache and re-serve stripes.
        catalog = Catalog(num_videos=4, num_stripes=2, duration=30)
        population = homogeneous_population(30, u=1.5, d=1.0)
        allocation = random_permutation_allocation(catalog, population, 2, random_state=2)
        sim = VodSimulator(allocation, mu=2.0, record_connections=True)
        result = sim.run(
            FlashCrowdWorkload(mu=2.0, target_videos=(0,), random_state=4), num_rounds=8
        )
        assert result.feasible
        # Some connection must originate from a box that does NOT store the
        # stripe statically (i.e. it serves from its playback cache).
        cache_served = 0
        for event in result.trace.connections():
            holders = set(allocation.boxes_with_stripe(event.stripe_id).tolist())
            if event.server_box not in holders:
                cache_served += 1
        assert cache_served > 0

    def test_swarm_growth_violation_detected_for_unthrottled_adversary(self):
        catalog, population, allocation = build_system(n=40, u=2.0, m=20, k=4)
        sim = VodSimulator(allocation, mu=1.1)
        # The unthrottled missing-video adversary floods swarms faster than µ.
        result = sim.run(MissingVideoAdversary(random_state=1), num_rounds=3)
        assert result.metrics.swarm_growth_violations > 0


class TestHeterogeneousRuns:
    def test_relay_strategy_end_to_end(self):
        c = 8
        uploads = [4.0] * 10 + [0.5] * 10
        storages = [u * 2.5 for u in uploads]
        population = BoxPopulation(uploads, storages)
        catalog = Catalog(num_videos=10, num_stripes=c, duration=40)
        allocation = random_permutation_allocation(catalog, population, 4, random_state=3)
        plan = compute_compensation_plan(population, u_star=1.5)
        scheduler = RelayedPreloadingScheduler(catalog, population, plan, mu=1.1)
        sim = VodSimulator(
            allocation,
            mu=1.1,
            scheduler=scheduler,
            compensation_plan=plan,
        )
        result = sim.run(ZipfDemandWorkload(arrival_rate=2, random_state=2), num_rounds=12)
        assert result.feasible
        assert result.metrics.total_demands > 0

    def test_reserved_upload_reduces_matching_capacity(self):
        uploads = [4.0] * 5 + [0.5] * 5
        storages = [u * 2.5 for u in uploads]
        population = BoxPopulation(uploads, storages)
        catalog = Catalog(num_videos=5, num_stripes=4, duration=20)
        allocation = random_permutation_allocation(catalog, population, 3, random_state=1)
        plan = compute_compensation_plan(population, u_star=1.5)
        sim_plain = VodSimulator(allocation, mu=1.2)
        sim_reserved = VodSimulator(allocation, mu=1.2, compensation_plan=plan)
        assert (
            sim_reserved._upload_capacity_total < sim_plain._upload_capacity_total
        )



class TestPerRequestOutputPin:
    """The engine's per-request outputs: connection events and witness triples.

    The golden traces hash round records and the event count, not which
    request each connection serves or which requests a Hall witness names.
    These digests pin both on two seeded runs with connections recorded
    and the full trace on.
    """

    @staticmethod
    def _digest(result):
        """``(connections, infeasible rounds, witness triples, sha256)``."""
        connections = [
            [e.time, e.server_box, e.client_box, e.stripe_id]
            for e in result.trace.connections()
        ]
        infeasible = [
            [e.time, e.unmatched, e.witness_requests]
            for e in result.trace.infeasibilities()
        ]
        witnesses = sum(len(w or ()) for _, _, w in infeasible)
        digest = hashlib.sha256(json.dumps([connections, infeasible]).encode()).hexdigest()
        return len(connections), len(infeasible), witnesses, digest

    def test_missing_video_adversary_connections_and_witnesses(self):
        _, _, allocation = build_system(
            n=40, u=0.5, d=2.0, m=26, c=4, k=3, duration=20, seed=5
        )
        sim = VodSimulator(allocation, mu=1.5, record_connections=True, trace_level="full")
        result = sim.run(MissingVideoAdversary(random_state=0), num_rounds=6)
        assert self._digest(result) == (
            440,
            5,
            800,
            "d401a93ce0e530b0cb4349aa99db136e17c4de3e66350394cd517e665bf7775b",
        )

    def test_flash_crowd_connections(self):
        _, _, allocation = build_system(
            n=60, u=2.0, d=3.0, m=30, c=4, k=4, duration=20, seed=1
        )
        sim = VodSimulator(allocation, mu=1.5, record_connections=True, trace_level="full")
        workload = FlashCrowdWorkload(mu=1.5, target_videos=(0, 3), random_state=0)
        result = sim.run(workload, num_rounds=10)
        assert self._digest(result) == (
            1140,
            0,
            0,
            "25c96626425f6ba3e63b9156050410fc4c4378d4fe45928599aa38d690be1b1f",
        )
