"""Tests for the ImmediateRequestScheduler ablation and its use in the engine."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.allocation import random_permutation_allocation
from repro.core.parameters import homogeneous_population
from repro.core.preloading import Demand, ImmediateRequestScheduler, PreloadingScheduler
from repro.core.video import Catalog
from repro.scenarios.replay import _round_records
from repro.sim.engine import VodSimulator
from repro.sim.events import RequestEvent
from repro.workloads.base import StaticDemandSchedule
from repro.workloads.flashcrowd import FlashCrowdWorkload


@pytest.fixture
def catalog():
    return Catalog(num_videos=6, num_stripes=4, duration=30)


def one_demand(box, video, index=0):
    """``(video_ids, box_ids, demand_indices)`` of a single demand."""
    return (
        np.array([video], dtype=np.int64),
        np.array([box], dtype=np.int64),
        np.array([index], dtype=np.int64),
    )


class TestImmediateRequestScheduler:
    def test_all_stripes_requested_at_demand_round(self, catalog):
        scheduler = ImmediateRequestScheduler(catalog)
        stripes, boxes, demands, _ = scheduler.on_demand_arrays(
            *one_demand(2, 3, index=9), time=5
        )
        assert stripes.size == catalog.num_stripes_per_video
        assert boxes.tolist() == [2] * stripes.size
        assert demands.tolist() == [9] * stripes.size
        assert set(stripes.tolist()) == set(catalog.stripes_of_video(3).tolist())

    def test_no_postponed_requests(self, catalog):
        scheduler = ImmediateRequestScheduler(catalog)
        scheduler.on_demand_arrays(*one_demand(2, 3), time=5)
        assert scheduler.due_arrays(6)[0].size == 0
        assert scheduler.due_arrays(5)[0].size == 0

    def test_exactly_one_request_flagged_as_preload(self, catalog):
        scheduler = ImmediateRequestScheduler(catalog)
        preload = scheduler.on_demand_arrays(*one_demand(0, 0), time=0)[3]
        assert preload.tolist() == [True, False, False, False]

    def test_start_up_delay(self, catalog):
        scheduler = ImmediateRequestScheduler(catalog)
        assert scheduler.start_up_delay == 2

    def test_unknown_video_rejected(self, catalog):
        scheduler = ImmediateRequestScheduler(catalog)
        with pytest.raises(ValueError):
            scheduler.on_demand_arrays(*one_demand(0, 99), time=0)


class TestEngineWithImmediateScheduler:
    def build(self, u=2.0, seed=0):
        catalog = Catalog(num_videos=12, num_stripes=4, duration=30)
        population = homogeneous_population(36, u=u, d=3.0)
        allocation = random_permutation_allocation(catalog, population, 3, random_state=seed)
        return catalog, allocation

    def test_single_demand_served_with_two_round_delay(self):
        catalog, allocation = self.build()
        scheduler = ImmediateRequestScheduler(catalog)
        sim = VodSimulator(allocation, mu=1.5, scheduler=scheduler)
        result = sim.run(StaticDemandSchedule([Demand(time=1, box_id=0, video_id=2)]), 5)
        assert result.feasible
        starts = result.trace.playback_starts()
        assert len(starts) == 1
        assert starts[0].startup_delay == 2

    def test_ablation_is_never_better_under_flash_crowd(self):
        # On a thin allocation the immediate strategy leaves at least as
        # many requests unserved as the preloading strategy.
        catalog = Catalog(num_videos=10, num_stripes=4, duration=30)
        population = homogeneous_population(40, u=1.2, d=1.5)
        allocation = random_permutation_allocation(catalog, population, 2, random_state=4)
        results = {}
        for name, scheduler in (
            ("preloading", PreloadingScheduler(catalog)),
            ("immediate", ImmediateRequestScheduler(catalog)),
        ):
            sim = VodSimulator(allocation, mu=1.5, scheduler=scheduler)
            workload = FlashCrowdWorkload(mu=1.5, target_videos=(0,), random_state=4)
            results[name] = sim.run(workload, num_rounds=8).metrics.unmatched_requests
        assert results["immediate"] >= results["preloading"]

    def test_request_stream_under_flash_crowd_is_pinned(self):
        """The ablation's per-round records, recorded before its requests
        moved from per-demand objects to arrays.  The run has infeasible
        rounds, so a change of request order would show in the matched
        counts."""
        catalog = Catalog(num_videos=10, num_stripes=4, duration=30)
        population = homogeneous_population(40, u=1.2, d=1.5)
        allocation = random_permutation_allocation(catalog, population, 2, random_state=4)
        sim = VodSimulator(
            allocation, mu=1.5, scheduler=ImmediateRequestScheduler(catalog)
        )
        workload = FlashCrowdWorkload(mu=1.5, target_videos=(0,), random_state=4)
        result = sim.run(workload, num_rounds=8)
        records = json.dumps(
            _round_records(result), sort_keys=True, separators=(",", ":")
        )
        assert hashlib.sha256(records.encode()).hexdigest() == (
            "746a80e922226a3853a9f44747631c2c950d45494447a5f36530243c40e6b278"
        )
        assert result.metrics.infeasible_rounds == 3
        assert result.metrics.unmatched_requests == 72
        requests = [e for e in result.trace if isinstance(e, RequestEvent)]
        assert len(requests) == 160
        assert sum(e.is_preload for e in requests) == 40
        assert len(result.trace.playback_starts()) == 29
        assert len(result.trace) == 232
