"""Cross-module property-based tests (hypothesis) on the core invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import thresholds as th
from repro.core.allocation import random_permutation_allocation
from repro.core.matching import ConnectionMatcher
from repro.core.obstruction import first_moment_bound_paper, lemma4_log_probability
from repro.core.parameters import homogeneous_population
from repro.core.possession import PossessionIndex
from repro.core.preloading import PreloadingScheduler
from repro.core.requests import RequestSet
from repro.core.video import Catalog
from repro.sim.swarm import max_new_members

slow_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAllocationInvariants:
    @slow_settings
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(2, 12),
        c=st.integers(1, 6),
        k=st.integers(1, 4),
        n=st.integers(4, 40),
    )
    def test_permutation_allocation_structural_invariants(self, seed, m, c, k, n):
        catalog = Catalog(num_videos=m, num_stripes=c, duration=10)
        # Size storage generously so the allocation always fits.
        d = max(2.0, (m * c * k) / (n * c) * 2.0)
        population = homogeneous_population(n, u=1.0, d=d)
        allocation = random_permutation_allocation(catalog, population, k, random_state=seed)
        # Exactly k replicas per stripe, total replicas conserved.
        assert allocation.total_replicas == m * c * k
        assert int(allocation.box_loads().sum()) == m * c * k
        # Distinct coverage between 1 and k.
        coverage = allocation.distinct_coverage()
        assert np.all((coverage >= 1) & (coverage <= k))
        # Storage never exceeded.
        assert allocation.respects_storage()

    @slow_settings
    @given(seed=st.integers(0, 10_000))
    def test_permutation_allocation_deterministic_in_seed(self, seed):
        catalog = Catalog(num_videos=5, num_stripes=3, duration=10)
        population = homogeneous_population(15, u=1.0, d=3.0)
        a = random_permutation_allocation(catalog, population, 2, random_state=seed)
        b = random_permutation_allocation(catalog, population, 2, random_state=seed)
        np.testing.assert_array_equal(a.replica_box, b.replica_box)


class TestPreloadingInvariants:
    @slow_settings
    @given(
        c=st.integers(1, 10),
        num_demands=st.integers(1, 20),
        seed=st.integers(0, 1000),
    )
    def test_every_demand_generates_exactly_c_requests_covering_all_stripes(
        self, c, num_demands, seed
    ):
        rng = np.random.default_rng(seed)
        catalog = Catalog(num_videos=6, num_stripes=c, duration=20)
        scheduler = PreloadingScheduler(catalog)
        for i in range(num_demands):
            box = i
            video = int(rng.integers(6))
            time = int(rng.integers(10))
            stripes, boxes, demands, preload = scheduler.on_demand_arrays(
                np.array([video]), np.array([box]), np.array([i]), time
            )
            due_stripes, due_boxes, due_demands, due_preload = scheduler.due_arrays(
                time + 1
            )
            own = due_demands == i
            assert (due_boxes[own] == box).all()
            all_stripes = stripes.tolist() + due_stripes[own].tolist()
            assert len(all_stripes) == c
            assert set(all_stripes) == set(catalog.stripes_of_video(video).tolist())
            assert int(preload.sum()) + int(due_preload[own].sum()) == 1

    @slow_settings
    @given(c=st.integers(1, 8), joiners=st.integers(1, 30))
    def test_preload_stripes_balanced_within_one(self, c, joiners):
        catalog = Catalog(num_videos=2, num_stripes=c, duration=20)
        scheduler = PreloadingScheduler(catalog)
        counts = np.zeros(c, dtype=int)
        stripes = scheduler.on_demand_arrays(
            np.zeros(joiners, dtype=np.int64),
            np.arange(joiners),
            np.arange(joiners),
            0,
        )[0]
        for stripe in stripes.tolist():
            counts[catalog.stripe_index_of(stripe)] += 1
        assert counts.max() - counts.min() <= 1


class TestMatchingInvariants:
    @slow_settings
    @given(seed=st.integers(0, 5000), num_requests=st.integers(0, 12))
    def test_matching_never_exceeds_capacities_and_respects_possession(
        self, seed, num_requests
    ):
        rng = np.random.default_rng(seed)
        c = 3
        catalog = Catalog(num_videos=6, num_stripes=c, duration=20)
        population = homogeneous_population(12, u=1.0, d=3.0)
        allocation = random_permutation_allocation(catalog, population, 2, random_state=seed)
        index = PossessionIndex(allocation, cache_window=20)
        matcher = ConnectionMatcher(population.upload_slots(c))
        triples = [
            (int(rng.integers(catalog.total_stripes)), int(rng.integers(3)), int(rng.integers(12)))
            for _ in range(num_requests)
        ]
        requests = RequestSet(*np.array(triples, dtype=np.int64).reshape(-1, 3).T)
        result = matcher.match(requests, index, current_time=3)
        # Per-box load never exceeds ⌊u·c⌋.
        assert np.all(result.box_load <= population.upload_slots(c))
        # Matched count consistent with the assignment vector.
        assert (result.assignment >= 0).sum() == result.matched
        # Every assignment is a possessing box other than the requester.
        for idx, box in enumerate(result.assignment):
            if box < 0:
                continue
            stripe, time, client = triples[idx]
            assert int(box) != client
            assert int(box) in index.servers_for(stripe, time, current_time=3)
        # Feasible iff everything matched.
        assert result.feasible == (result.matched == len(requests))


class TestSwarmGrowthInvariants:
    @given(size=st.integers(0, 10_000), mu=st.floats(1.0, 4.0, allow_nan=False))
    def test_max_new_members_respects_ceiling(self, size, mu):
        joiners = max_new_members(size, mu)
        assert size + joiners <= math.ceil(max(size, 1) * mu)
        # Adding one more would break the bound (when the bound binds).
        assert size + joiners + 1 > math.ceil(max(size, 1) * mu)


class TestBoundInvariants:
    @slow_settings
    @given(
        u=st.floats(1.1, 4.0, allow_nan=False),
        d=st.floats(1.0, 16.0, allow_nan=False),
        mu=st.floats(1.0, 2.0, allow_nan=False),
    )
    def test_theorem1_design_internal_consistency(self, u, d, mu):
        design = th.design_homogeneous(n=1000, u=u, d=d, mu=mu)
        assert design.c > (2 * mu**2 - 1) / (u - 1) - 1e-9
        assert design.nu > 0
        assert design.u_prime > 1
        assert design.k >= 1
        assert design.catalog_size == int(d * 1000 // design.k)

    @slow_settings
    @given(
        i=st.integers(1, 200),
        i1_frac=st.floats(0.0, 1.0),
        k=st.integers(1, 10),
    )
    def test_lemma4_log_probability_is_a_log_probability(self, i, i1_frac, k):
        i1 = max(1, int(i * i1_frac))
        value = lemma4_log_probability(
            i=i, i1=min(i1, i), n=100, c=5, u_prime=2.0, k=k, nu=0.05
        )
        assert value <= 0.0

    @slow_settings
    @given(k=st.integers(1, 500))
    def test_first_moment_bound_is_probability(self, k):
        bound = first_moment_bound_paper(n=50, c=5, u_prime=2.0, d_prime=4.0, k=k, nu=0.0355)
        assert 0.0 <= bound <= 1.0
