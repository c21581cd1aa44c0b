"""Tests for repro.core.heterogeneous (Section 4: balance, compensation, relaying)."""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.core.allocation import random_permutation_allocation
from repro.core.heterogeneous import (
    RELAYED_START_UP_DELAY_ROUNDS,
    CompensationError,
    CompensationPlan,
    RelayedPreloadingScheduler,
    compute_compensation_plan,
    direct_stripe_budget,
    is_balanced,
    is_upload_compensable,
)
from repro.core.parameters import BoxPopulation, proportional_population, two_class_population
from repro.core.preloading import Demand
from repro.core.video import Catalog
from repro.scenarios.replay import _round_records
from repro.sim.engine import VodSimulator
from repro.workloads.base import StaticDemandSchedule
from repro.workloads.popularity import ZipfDemandWorkload


def rich_poor_population(n_rich=5, n_poor=5, u_rich=4.0, u_poor=0.5):
    uploads = [u_rich] * n_rich + [u_poor] * n_poor
    storages = [u * 2.5 for u in uploads]
    return BoxPopulation(uploads, storages)


class TestDirectStripeBudget:
    def test_formula(self):
        assert direct_stripe_budget(upload=0.8, c=100, mu=1.2) == int(
            math.floor(0.8 * 100 - 4 * 1.2**4)
        )

    def test_clamped_at_zero(self):
        assert direct_stripe_budget(upload=0.01, c=10, mu=1.5) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            direct_stripe_budget(-0.1, 10, 1.2)
        with pytest.raises(ValueError):
            direct_stripe_budget(0.5, 0, 1.2)


class TestCompensationPlan:
    def test_plan_structure(self):
        pop = rich_poor_population()
        plan = compute_compensation_plan(pop, u_star=1.5)
        assert plan.num_boxes == pop.n
        # Every poor box has a rich relay; every rich box has none.
        for b in range(pop.n):
            if pop.uploads[b] < 1.5:
                relay = plan.relay(b)
                assert relay is not None
                assert pop.uploads[relay] >= 1.5
                assert plan.is_poor(b)
            else:
                assert plan.relay(b) is None
                assert not plan.is_poor(b)

    def test_reservation_amounts(self):
        pop = rich_poor_population()
        u_star = 1.5
        plan = compute_compensation_plan(pop, u_star)
        # Total reserved equals the sum of per-poor-box needs (all positive here).
        expected = sum(
            u_star + 1 - 2 * u for u in pop.uploads if u < u_star
        )
        assert plan.reserved_upload.sum() == pytest.approx(expected)

    def test_rich_boxes_keep_u_star_after_reservation(self):
        pop = rich_poor_population()
        u_star = 1.5
        plan = compute_compensation_plan(pop, u_star)
        residual = plan.residual_uploads(pop)
        for a in range(pop.n):
            if pop.uploads[a] >= u_star:
                assert residual[a] >= u_star - 1e-9

    def test_backed_boxes_partition_poor_boxes(self):
        pop = rich_poor_population()
        plan = compute_compensation_plan(pop, u_star=1.5)
        backed = []
        for a in pop.rich_boxes(1.5):
            backed.extend(plan.backed_boxes(int(a)).tolist())
        assert sorted(backed) == pop.poor_boxes(1.5).tolist()

    def test_no_poor_boxes_gives_empty_plan(self):
        pop = proportional_population([2.0, 3.0, 4.0], 2.5)
        plan = compute_compensation_plan(pop, u_star=1.5)
        assert np.all(plan.relay_of == -1)
        assert plan.reserved_upload.sum() == 0

    def test_no_rich_boxes_raises(self):
        pop = proportional_population([0.5, 0.6], 2.5)
        with pytest.raises(CompensationError):
            compute_compensation_plan(pop, u_star=1.5)

    def test_insufficient_headroom_raises(self):
        # One rich box barely above u*, many poor boxes.
        pop = BoxPopulation([1.6] + [0.2] * 10, [4.0] + [0.5] * 10)
        with pytest.raises(CompensationError):
            compute_compensation_plan(pop, u_star=1.5)

    def test_is_upload_compensable(self):
        assert is_upload_compensable(rich_poor_population(), 1.5)
        assert not is_upload_compensable(
            BoxPopulation([1.6] + [0.2] * 10, [4.0] + [0.5] * 10), 1.5
        )

    def test_u_star_must_exceed_one(self):
        with pytest.raises(ValueError):
            compute_compensation_plan(rich_poor_population(), u_star=1.0)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            CompensationPlan(
                u_star=1.5,
                relay_of=np.array([1, -1]),
                reserved_upload=np.array([0.0]),
            )

    def test_is_balanced_combines_both_conditions(self):
        pop = rich_poor_population()  # proportional: d_b = 2.5 u_b
        assert is_balanced(pop, u_star=1.5)
        # Break storage balance: a box with d/u < 2.
        unbalanced = BoxPopulation([4.0, 0.5], [4.0, 1.25])
        assert not is_balanced(unbalanced, u_star=1.5)


def one_demand(box, video, index=0):
    """``(video_ids, box_ids, demand_indices)`` of a single demand."""
    return (
        np.array([video], dtype=np.int64),
        np.array([box], dtype=np.int64),
        np.array([index], dtype=np.int64),
    )


class TestRelayedPreloadingScheduler:
    def setup_scheduler(self, c=8, mu=1.1):
        catalog = Catalog(num_videos=4, num_stripes=c, duration=30)
        population = rich_poor_population(n_rich=4, n_poor=4, u_rich=4.0, u_poor=0.5)
        plan = compute_compensation_plan(population, u_star=1.5)
        scheduler = RelayedPreloadingScheduler(catalog, population, plan, mu=mu)
        return catalog, population, plan, scheduler

    def test_rich_box_follows_doubled_homogeneous_timeline(self):
        catalog, population, plan, scheduler = self.setup_scheduler()
        rich_box = int(population.rich_boxes(1.5)[0])
        _, boxes, _, preload = scheduler.on_demand_arrays(
            *one_demand(rich_box, 0), time=2
        )
        assert boxes.tolist() == [rich_box]
        assert preload.tolist() == [True]
        assert scheduler.due_arrays(3)[0].size == 0
        stripes, boxes, _, preload = scheduler.due_arrays(4)
        assert stripes.size == catalog.num_stripes_per_video - 1
        assert boxes.tolist() == [rich_box] * stripes.size
        assert not preload.any()

    def test_poor_box_preload_is_issued_by_relay(self):
        catalog, population, plan, scheduler = self.setup_scheduler()
        poor_box = int(population.poor_boxes(1.5)[0])
        relay = plan.relay(poor_box)
        _, boxes, _, preload = scheduler.on_demand_arrays(
            *one_demand(poor_box, 0), time=2
        )
        assert boxes.tolist() == [relay]
        assert preload.tolist() == [True]

    def test_poor_box_request_split_between_direct_and_relay(self):
        catalog, population, plan, scheduler = self.setup_scheduler()
        poor_box = int(population.poor_boxes(1.5)[0])
        relay = plan.relay(poor_box)
        c = catalog.num_stripes_per_video
        mu = 1.1
        preload_stripe = scheduler.on_demand_arrays(
            *one_demand(poor_box, 0, index=5), time=2
        )[0]
        direct, direct_boxes, direct_demands, _ = scheduler.due_arrays(4)
        via_relay, relay_boxes, relay_demands, _ = scheduler.due_arrays(5)
        c_b = direct_stripe_budget(0.5, c, mu)
        assert direct.size == min(c_b, c - 1)
        assert (direct_boxes == poor_box).all()
        assert via_relay.size == c - 1 - direct.size
        assert (relay_boxes == relay).all()
        # The relay's requests are credited to the demand they serve.
        assert direct_demands.tolist() + relay_demands.tolist() == [5] * (c - 1)
        # All c stripes are covered exactly once across the whole timeline.
        total = preload_stripe.tolist() + direct.tolist() + via_relay.tolist()
        assert sorted(total) == catalog.stripes_of_video(0).tolist()

    def test_relay_cache_events_cover_preload_and_forwarded_stripes(self):
        catalog, population, plan, scheduler = self.setup_scheduler()
        poor_box = int(population.poor_boxes(1.5)[0])
        relay = plan.relay(poor_box)
        preload_stripe = scheduler.on_demand_arrays(
            *one_demand(poor_box, 0), time=2
        )[0]
        relays, stripes = scheduler.relay_cache_events_due(3)
        assert relays.tolist() == [relay]
        assert stripes.tolist() == preload_stripe.tolist()
        relays, stripes = scheduler.relay_cache_events_due(5)
        assert (relays == relay).all()
        assert stripes.tolist() == scheduler.due_arrays(5)[0].tolist()

    def test_preload_counter_shared_across_rich_and_poor(self):
        catalog, population, plan, scheduler = self.setup_scheduler()
        c = catalog.num_stripes_per_video
        boxes = np.arange(population.n)
        stripes = scheduler.on_demand_arrays(
            np.ones(boxes.size, dtype=np.int64), boxes, boxes, time=0
        )[0]
        indices = [catalog.stripe_index_of(int(s)) for s in stripes]
        assert indices == [p % c for p in range(boxes.size)]

    def test_start_up_delay_constant(self):
        _, _, _, scheduler = self.setup_scheduler()
        assert scheduler.start_up_delay == RELAYED_START_UP_DELAY_ROUNDS

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_per_demand_reference(self, seed):
        """Request order, preload flags, demand tags and relay-cache order
        equal a per-demand loop over the Section 4 timeline."""
        c, mu = 12, 1.1
        uploads = [5.0] * 6 + [0.3, 0.5, 0.7, 0.9] * 3
        population = BoxPopulation(uploads, [u * 2.5 for u in uploads])
        plan = compute_compensation_plan(population, u_star=1.5)
        catalog = Catalog(num_videos=5, num_stripes=c, duration=30)
        scheduler = RelayedPreloadingScheduler(catalog, population, plan, mu=mu)

        rng = np.random.default_rng(seed)
        counter, pending, cache = {}, {}, {}
        index = 0
        for time in range(12):
            count = int(rng.integers(0, 8))
            boxes = rng.choice(population.n, size=count, replace=False)
            videos = rng.integers(0, catalog.num_videos, size=count)
            indices = np.arange(index, index + count)
            index += count
            expected = []
            for d, box, video in zip(indices.tolist(), boxes.tolist(), videos.tolist()):
                entry = counter.get(video, 0)
                counter[video] = entry + 1
                preload = video * c + entry % c
                others = [video * c + i for i in range(c) if i != entry % c]
                relay = plan.relay(box)
                if relay is None:
                    expected.append((preload, box, d, True))
                    pending.setdefault(time + 2, []).extend(
                        (s, box, d, False) for s in others
                    )
                    continue
                expected.append((preload, relay, d, True))
                cache.setdefault(time + 1, []).append((relay, preload))
                c_b = min(direct_stripe_budget(uploads[box], c, mu), c - 1)
                pending.setdefault(time + 2, []).extend(
                    (s, box, d, False) for s in others[:c_b]
                )
                pending.setdefault(time + 3, []).extend(
                    (s, relay, d, False) for s in others[c_b:]
                )
                cache.setdefault(time + 3, []).extend((relay, s) for s in others[c_b:])

            issued = scheduler.on_demand_arrays(videos, boxes, indices, time)
            assert list(zip(*(a.tolist() for a in issued))) == expected
            due = scheduler.due_arrays(time)
            assert list(zip(*(a.tolist() for a in due))) == pending.pop(time, [])
            events = scheduler.relay_cache_events_due(time)
            assert list(zip(*(a.tolist() for a in events))) == cache.pop(time, [])

    def test_reset(self):
        catalog, population, plan, scheduler = self.setup_scheduler()
        poor_box = int(population.poor_boxes(1.5)[0])
        scheduler.on_demand_arrays(*one_demand(poor_box, 0), time=0)
        scheduler.reset()
        assert scheduler.due_arrays(2)[0].size == 0
        assert scheduler.relay_cache_events_due(1)[0].size == 0
        assert scheduler.swarm_entry_count(0) == 0


def relayed_simulator():
    """Six rich boxes relaying for fourteen poor ones (relay 0 backs 6 and 12)."""
    uploads = [8.0] * 6 + [0.5] * 14
    population = BoxPopulation(uploads, [u * 2.5 for u in uploads])
    catalog = Catalog(num_videos=6, num_stripes=8, duration=40)
    allocation = random_permutation_allocation(catalog, population, 3, random_state=3)
    plan = compute_compensation_plan(population, u_star=1.5)
    scheduler = RelayedPreloadingScheduler(catalog, population, plan, mu=1.1)
    sim = VodSimulator(allocation, mu=1.1, scheduler=scheduler, compensation_plan=plan)
    return sim, plan


def round_records_sha256(result):
    records = json.dumps(_round_records(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(records.encode()).hexdigest()


class TestRelayedDemandAttribution:
    """Every relayed request is credited to the demand that issued it.

    Crediting a relay's requests to the most recent demand of the same
    video instead lets a newer demand steal them, so an older demand
    never starts and the newer one reports a delay below the strategy's
    minimum.
    """

    def assert_every_demand_starts_on_time(self, result, plan):
        starts = result.trace.playback_starts()
        assert len(starts) == result.metrics.total_demands
        for start in starts:
            expected = RELAYED_START_UP_DELAY_ROUNDS if plan.is_poor(start.box_id) else 4
            assert start.startup_delay == expected, start

    def test_two_poor_boxes_behind_one_relay(self):
        sim, plan = relayed_simulator()
        assert plan.relay(6) == plan.relay(12) == 0
        schedule = StaticDemandSchedule([Demand(0, 6, 3), Demand(1, 12, 3)])
        result = sim.run(schedule, num_rounds=10)
        assert result.metrics.total_demands == 2
        self.assert_every_demand_starts_on_time(result, plan)

    def test_zipf_arrivals(self):
        sim, plan = relayed_simulator()
        result = sim.run(ZipfDemandWorkload(arrival_rate=3, random_state=3), num_rounds=20)
        assert result.feasible
        assert result.metrics.total_demands == 20
        self.assert_every_demand_starts_on_time(result, plan)
        # Per-round records recorded before the relayed requests moved to
        # arrays; only the trace grew (by the three starts fixed above).
        assert round_records_sha256(result) == (
            "8853ca3d96e393acc264bce5608a44a3cc9be9572404ea44a2a95310e7014b2c"
        )
        assert len(result.trace) == 200

    def test_relay_strategy_end_to_end_records_are_pinned(self):
        c = 8
        uploads = [4.0] * 10 + [0.5] * 10
        population = BoxPopulation(uploads, [u * 2.5 for u in uploads])
        catalog = Catalog(num_videos=10, num_stripes=c, duration=40)
        allocation = random_permutation_allocation(catalog, population, 4, random_state=3)
        plan = compute_compensation_plan(population, u_star=1.5)
        scheduler = RelayedPreloadingScheduler(catalog, population, plan, mu=1.1)
        sim = VodSimulator(
            allocation, mu=1.1, scheduler=scheduler, compensation_plan=plan
        )
        result = sim.run(ZipfDemandWorkload(arrival_rate=2, random_state=2), num_rounds=12)
        assert round_records_sha256(result) == (
            "59471c64e2c7ab6070880e3da0bf754c9c69b37fbbb7cca1bd7c337fcedaec9c"
        )
