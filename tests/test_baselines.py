"""Tests for the baselines (full replication, sourcing-only, central server)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.central_server import CentralServerModel
from repro.baselines.full_replication import (
    full_replication_allocation,
    max_catalog_full_replication,
)
from repro.baselines.hierarchy import (
    hierarchical_cache_allocation,
    tier_layout,
    tiered_population,
)
from repro.baselines.sourcing_only import (
    SourcingOnlyPossessionIndex,
    sourcing_capacity_bound,
)
from repro.core.allocation import Allocation, AllocationError, random_permutation_allocation
from repro.core.matching import ConnectionMatcher
from repro.core.parameters import homogeneous_population
from repro.core.possession import NEVER_EXPIRES, PossessionIndex
from repro.core.requests import RequestSet
from repro.core.video import Catalog


class TestFullReplication:
    def test_catalog_cap_is_constant_in_n(self):
        assert max_catalog_full_replication(d=2.0, c=4) == 8
        # Independent of n: the cap depends only on per-box storage.
        assert max_catalog_full_replication(d=2.0, c=4) == max_catalog_full_replication(2.0, 4)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            max_catalog_full_replication(0.0, 4)
        with pytest.raises(ValueError):
            max_catalog_full_replication(2.0, 0)

    def test_every_box_stores_every_video(self):
        catalog = Catalog(num_videos=6, num_stripes=4, duration=20)
        population = homogeneous_population(12, u=0.8, d=2.0)
        allocation = full_replication_allocation(catalog, population, replicas_per_stripe=3)
        c = 4
        for box in range(population.n):
            videos = set((allocation.stripes_on_box(box) // c).tolist())
            assert videos == set(range(6))

    def test_catalog_exceeding_storage_rejected(self):
        catalog = Catalog(num_videos=10, num_stripes=4, duration=20)
        population = homogeneous_population(12, u=0.8, d=2.0)  # 8 slots < 10 videos
        with pytest.raises(AllocationError):
            full_replication_allocation(catalog, population)

    def test_replication_exceeding_population_rejected(self):
        catalog = Catalog(num_videos=4, num_stripes=4, duration=20)
        population = homogeneous_population(8, u=0.8, d=2.0)
        with pytest.raises(AllocationError):
            full_replication_allocation(catalog, population, replicas_per_stripe=20)

    def test_default_replication(self):
        catalog = Catalog(num_videos=4, num_stripes=4, duration=20)
        population = homogeneous_population(12, u=0.8, d=2.0)
        allocation = full_replication_allocation(catalog, population)
        assert allocation.replicas_per_stripe == 3  # n // c
        assert allocation.scheme == "full_replication"

    def test_stripe_distribution_rotates(self):
        catalog = Catalog(num_videos=4, num_stripes=4, duration=20)
        population = homogeneous_population(8, u=0.8, d=2.0)
        allocation = full_replication_allocation(catalog, population, replicas_per_stripe=2)
        # Every stripe has at least one distinct holder, loads are balanced.
        assert np.all(allocation.distinct_coverage() >= 1)
        loads = allocation.box_loads()
        assert loads.max() - loads.min() <= 4


class TestSourcingOnly:
    def test_cache_servers_always_empty(self):
        catalog = Catalog(num_videos=6, num_stripes=4, duration=20)
        population = homogeneous_population(12, u=1.5, d=3.0)
        allocation = random_permutation_allocation(catalog, population, 3, random_state=0)
        index = SourcingOnlyPossessionIndex(allocation, cache_window=20)
        index.record_download(stripe_id=0, box_id=5, time=0)
        # The cache entry is ignored; only allocation holders serve.
        servers = index.servers_for(0, request_time=3, current_time=3)
        assert servers == set(allocation.boxes_with_stripe(0).tolist())

    def test_sourcing_only_is_strictly_weaker(self):
        # A request profile feasible with swarming but not with sourcing only.
        catalog = Catalog(num_videos=2, num_stripes=2, duration=30)
        population = homogeneous_population(10, u=1.0, d=1.0)
        allocation = random_permutation_allocation(catalog, population, 2, random_state=1)
        matcher = ConnectionMatcher(population.upload_slots(2))
        swarming = PossessionIndex(allocation, cache_window=30)
        sourcing = SourcingOnlyPossessionIndex(allocation, cache_window=30)
        for index in (swarming, sourcing):
            for box in range(5):
                index.record_download(stripe_id=0, box_id=box, time=0)
        requests = RequestSet([0] * 5, [1] * 5, [5 + i for i in range(5)])
        assert matcher.match(requests, swarming, current_time=1).feasible
        assert not matcher.match(requests, sourcing, current_time=1).feasible

    def test_recorded_downloads_reach_no_query(self):
        """Downloads leave no cache edge in any possession query.

        The batched gather, the per-request row and the set query all see
        the static holders and the relay caches only.
        """
        catalog = Catalog(num_videos=6, num_stripes=4, duration=20)
        population = homogeneous_population(12, u=1.5, d=3.0)
        allocation = random_permutation_allocation(catalog, population, 3, random_state=0)
        index = SourcingOnlyPossessionIndex(allocation, cache_window=20)
        holders = set(allocation.boxes_with_stripe(0).tolist())
        outsiders = [b for b in range(population.n) if b not in holders]
        index.record_download(stripe_id=0, box_id=outsiders[0], time=0)
        index.record_downloads(
            np.zeros(3, dtype=np.int64), np.array(outsiders[1:4], dtype=np.int64), 1
        )
        relay = outsiders[4]
        index.record_relay_cache(0, relay)
        requester = outsiders[5]
        expected = sorted(holders | {relay})

        assert index.servers_for(0, 3, 3) == set(expected)
        boxes, expiry = index.row_with_expiry(0, requester, 3, 3)
        assert sorted(boxes.tolist()) == expected
        assert set(expiry.tolist()) == {NEVER_EXPIRES}
        requests = RequestSet([0], [3], [requester])
        indptr, indices, edge_expiry = index.adjacency_delta_for(requests, 3)
        assert indices.tolist() == boxes.tolist()
        assert edge_expiry.tolist() == expiry.tolist()

    def test_default_matcher_and_dinic_agree_on_a_cacheless_crowd(self):
        """A crowd feasible only with cache help is infeasible for both solvers."""
        # Stripe s is stored on boxes s and s+1 (mod 8), one slot each.
        catalog = Catalog(num_videos=3, num_stripes=2, duration=20)
        population = homogeneous_population(8, u=1.0, d=2.0)
        replica_box = np.array(
            [(s + j) % 8 for s in range(catalog.total_stripes) for j in range(2)],
            dtype=np.int64,
        )
        allocation = Allocation(catalog, population, 2, replica_box)
        index = SourcingOnlyPossessionIndex(allocation, cache_window=20)
        index.record_download(stripe_id=0, box_id=7, time=0)
        requests = RequestSet([0] * 5, [1] * 5, list(range(2, 7)))
        slots = population.upload_slots(2)
        fast = ConnectionMatcher(slots).match(requests, index, current_time=1)
        oracle = ConnectionMatcher(slots, solver="dinic").match(
            requests, index, current_time=1
        )
        assert not fast.feasible and not oracle.feasible
        assert fast.matched == oracle.matched == 4
        served = {int(b) for b in fast.assignment if b >= 0}
        assert 7 not in served

    def test_baseline_comparison_reproduces_the_stored_rows(self):
        """Every stored ``baseline_comparison`` cell reruns to its rows."""
        from repro.orchestrate.campaigns import run_baseline_comparison
        from repro.orchestrate.store import ResultsStore

        store = ResultsStore(Path(__file__).resolve().parents[1] / "results" / "store")
        cells = store.read_campaign_index("baseline_comparison")["cells"]
        assert len(cells) == 4
        for key in cells:
            record = store.get(key)
            rows = run_baseline_comparison(record["params"])
            assert json.loads(json.dumps(rows)) == record["rows"], record["params"]

    def test_sourcing_capacity_bound(self):
        catalog = Catalog(num_videos=6, num_stripes=4, duration=20)
        population = homogeneous_population(12, u=1.5, d=3.0)
        allocation = random_permutation_allocation(catalog, population, 3, random_state=0)
        assert sourcing_capacity_bound(allocation) == 12 * 6 // 4


class TestCentralServer:
    def test_pure_server_capacity(self):
        server = CentralServerModel(upload_capacity=100.0, storage_capacity=5000.0)
        assert server.max_concurrent_viewers() == pytest.approx(100.0)
        assert server.can_serve(100)
        assert not server.can_serve(101)
        # Peer upload does not help a non-assisted server.
        assert server.max_concurrent_viewers(peer_upload_total=500.0) == pytest.approx(100.0)

    def test_peer_assisted_capacity(self):
        server = CentralServerModel(
            upload_capacity=100.0, storage_capacity=5000.0, peer_assisted=True
        )
        assert server.max_concurrent_viewers(peer_upload_total=400.0) == pytest.approx(500.0)
        assert server.can_serve(450, peer_upload_total=400.0)

    def test_required_server_upload(self):
        server = CentralServerModel(
            upload_capacity=100.0, storage_capacity=5000.0, peer_assisted=True
        )
        assert server.required_server_upload(500, peer_upload_total=400.0) == pytest.approx(100.0)
        assert server.required_server_upload(300, peer_upload_total=400.0) == 0.0

    def test_catalog_bounded_by_server_storage(self):
        server = CentralServerModel(upload_capacity=10.0, storage_capacity=123.0)
        assert server.catalog_size == 123

    def test_validation(self):
        with pytest.raises(ValueError):
            CentralServerModel(upload_capacity=0.0, storage_capacity=10.0)
        server = CentralServerModel(upload_capacity=10.0, storage_capacity=10.0)
        with pytest.raises(ValueError):
            server.can_serve(-1)
        with pytest.raises(ValueError):
            server.required_server_upload(-1)

    def test_describe(self):
        server = CentralServerModel(upload_capacity=10.0, storage_capacity=10.0)
        assert server.describe()["catalog_size"] == 10


class TestHierarchicalCdn:
    PARAMS = {"cdn_count": 2, "vcdn_count": 4, "mucdn_count": 8, "client_count": 10}

    def _population(self):
        return tiered_population(self.PARAMS)

    def test_tiered_population_layout_is_deterministic(self):
        pop = self._population()
        layout = tier_layout(self.PARAMS)
        assert pop.n == layout.n == 24
        # CDN boxes come first, then vCDN, then muCDN, then clients.
        assert pop.storages[layout.slice_of("cdn")].min() > pop.storages[
            layout.slice_of("vcdn")
        ].max()
        assert np.all(pop.storages[layout.slice_of("client")] == 0.0)
        np.testing.assert_array_equal(layout.boxes_of("cdn"), [0, 1])
        np.testing.assert_array_equal(layout.boxes_of("vcdn"), [2, 3, 4, 5])

    def test_tier_parameter_overrides(self):
        pop = tiered_population({**self.PARAMS, "vcdn_u": 9.0, "client_count": 0})
        assert pop.n == 14
        assert np.all(pop.uploads[2:6] == 9.0)

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError, match="every <tier>_count is 0"):
            tiered_population(
                {"cdn_count": 0, "vcdn_count": 0, "mucdn_count": 0, "client_count": 0}
            )

    def test_allocation_places_origin_copies_on_cdn(self):
        catalog = Catalog(num_videos=10, num_stripes=4, duration=10)
        pop = self._population()
        alloc = hierarchical_cache_allocation(
            catalog, pop, 3, params=self.PARAMS, random_state=5
        )
        assert alloc.scheme == "hierarchical_cache"
        assert alloc.respects_storage()
        replicas = alloc.replica_box.reshape(catalog.total_stripes, 3)
        layout = tier_layout(self.PARAMS)
        cdn = set(layout.boxes_of("cdn").tolist())
        assert set(replicas[:, 0].tolist()) <= cdn

    def test_helper_replicas_cache_whole_videos(self):
        catalog = Catalog(num_videos=10, num_stripes=4, duration=10)
        alloc = hierarchical_cache_allocation(
            catalog, self._population(), 3, params=self.PARAMS, random_state=5
        )
        replicas = alloc.replica_box.reshape(catalog.num_videos, 4, 3)
        for v in range(catalog.num_videos):
            for j in range(3):
                # Each replica slot holds all c stripes of the video on one box.
                assert np.unique(replicas[v, :, j]).size == 1
            # And no box carries two replicas of the same video.
            assert np.unique(replicas[v, 0, :]).size == 3

    def test_allocation_is_deterministic_per_rng(self):
        catalog = Catalog(num_videos=10, num_stripes=4, duration=10)
        pop = self._population()
        a = hierarchical_cache_allocation(catalog, pop, 3, params=self.PARAMS, random_state=5)
        b = hierarchical_cache_allocation(catalog, pop, 3, params=self.PARAMS, random_state=5)
        np.testing.assert_array_equal(a.replica_box, b.replica_box)

    def test_layout_population_mismatch_rejected(self):
        catalog = Catalog(num_videos=4, num_stripes=4, duration=10)
        pop = homogeneous_population(8, u=2.0, d=3.0)
        with pytest.raises(AllocationError, match="same <tier>_count"):
            hierarchical_cache_allocation(catalog, pop, 2, params=self.PARAMS)

    def test_origin_tier_required(self):
        params = {**self.PARAMS, "cdn_count": 0}
        catalog = Catalog(num_videos=4, num_stripes=4, duration=10)
        with pytest.raises(AllocationError, match="at least one CDN origin box"):
            hierarchical_cache_allocation(
                catalog, tiered_population(params), 2, params=params
            )

    def test_cdn_overflow_is_actionable(self):
        params = {
            "cdn_count": 1,
            "cdn_d": 1.0,
            "vcdn_count": 4,
            "mucdn_count": 4,
            "client_count": 0,
        }
        catalog = Catalog(num_videos=10, num_stripes=4, duration=10)
        with pytest.raises(AllocationError, match="CDN tier overflow"):
            hierarchical_cache_allocation(
                catalog, tiered_population(params), 2, params=params, random_state=0
            )

    def test_helper_overflow_is_actionable(self):
        params = {
            "cdn_count": 2,
            "vcdn_count": 1,
            "vcdn_d": 1.0,
            "mucdn_count": 0,
            "client_count": 0,
        }
        catalog = Catalog(num_videos=8, num_stripes=4, duration=10)
        with pytest.raises(AllocationError, match="helper tiers overflow"):
            hierarchical_cache_allocation(
                catalog, tiered_population(params), 3, params=params, random_state=0
            )

    def test_hot_videos_prefer_vcdn_caches(self):
        """Popularity-first fill: the hottest videos land on the vCDN tier."""
        params = {
            "cdn_count": 2,
            "vcdn_count": 2,
            "vcdn_d": 8.0,
            "mucdn_count": 8,
            "mucdn_d": 8.0,
            "client_count": 0,
        }
        catalog = Catalog(num_videos=12, num_stripes=4, duration=10)
        alloc = hierarchical_cache_allocation(
            catalog, tiered_population(params), 2, params=params, random_state=1
        )
        layout = tier_layout(params)
        vcdn = set(layout.boxes_of("vcdn").tolist())
        replicas = alloc.replica_box.reshape(catalog.num_videos, 4, 2)
        # Each vCDN box holds 8 video-cache slots (d=8, c=4 -> 32 slots / 4);
        # the first 2*8=16 helper replicas, i.e. the hottest videos, fill
        # them before any muCDN box is touched.
        helpers = [int(replicas[v, 0, 1]) for v in range(catalog.num_videos)]
        assert all(h in vcdn for h in helpers[:4])
