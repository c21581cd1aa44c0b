"""Tests for repro.core.matching (requests, possession, Lemma 1 matching)."""

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.matching import (
    _MAX_KEYABLE_STRIPE,
    ConnectionMatcher,
    MatchDelta,
    PossessionIndex,
    RequestSet,
    SortKeyOverflowError,
    StripeRequest,
    check_feasibility_hall,
)
from repro.core.parameters import homogeneous_population
from repro.core.video import Catalog


def crafted_allocation(num_boxes=6, num_videos=3, c=2, k=2, duration=20):
    """A deterministic allocation: stripe s is stored on boxes (s, s+1) mod n."""
    catalog = Catalog(num_videos=num_videos, num_stripes=c, duration=duration)
    population = homogeneous_population(num_boxes, u=1.0, d=max(2.0, num_videos * c * k / num_boxes / c + 1))
    replica_box = np.empty(num_videos * c * k, dtype=np.int64)
    for stripe_id in range(num_videos * c):
        for j in range(k):
            replica_box[stripe_id * k + j] = (stripe_id + j) % num_boxes
    return Allocation(catalog, population, k, replica_box)


class TestStripeRequestAndRequestSet:
    def test_request_validation(self):
        with pytest.raises(ValueError):
            StripeRequest(stripe_id=-1, request_time=0, box_id=0)
        with pytest.raises(ValueError):
            StripeRequest(stripe_id=0, request_time=-1, box_id=0)

    def test_request_set_operations(self):
        rs = RequestSet()
        rs.add(StripeRequest(1, 0, 0))
        rs.extend([StripeRequest(1, 0, 1), StripeRequest(2, 0, 2)])
        assert len(rs) == 3
        assert rs.stripe_multiset() == [1, 1, 2]
        assert rs.distinct_stripes() == {1, 2}
        assert rs[0].stripe_id == 1

    def test_by_video_grouping(self):
        rs = RequestSet(
            [StripeRequest(0, 0, 0), StripeRequest(1, 0, 1), StripeRequest(4, 0, 2)]
        )
        groups = rs.by_video(num_stripes_per_video=2)
        assert set(groups) == {0, 2}
        assert len(groups[0]) == 2

    def test_preload_flag_not_part_of_identity(self):
        a = StripeRequest(1, 0, 0, is_preload=True)
        b = StripeRequest(1, 0, 0, is_preload=False)
        assert a == b


class TestPossessionIndex:
    def test_allocation_servers(self):
        alloc = crafted_allocation()
        index = PossessionIndex(alloc, cache_window=20)
        request = StripeRequest(stripe_id=0, request_time=0, box_id=5)
        servers = index.servers_for(request, current_time=0)
        assert servers == {0, 1}

    def test_cache_servers_require_earlier_request(self):
        alloc = crafted_allocation()
        index = PossessionIndex(alloc, cache_window=20)
        index.record_download(stripe_id=0, box_id=4, time=3)
        late = StripeRequest(stripe_id=0, request_time=5, box_id=5)
        early = StripeRequest(stripe_id=0, request_time=3, box_id=5)
        assert 4 in index.servers_for(late, current_time=5)
        assert 4 not in index.servers_for(early, current_time=5)

    def test_cache_eviction(self):
        alloc = crafted_allocation(duration=5)
        index = PossessionIndex(alloc, cache_window=5)
        index.record_download(stripe_id=0, box_id=4, time=0)
        index.evict_before(current_time=6)
        request = StripeRequest(stripe_id=0, request_time=5, box_id=5)
        assert 4 not in index.servers_for(request, current_time=6)

    def test_relay_cache_servers(self):
        alloc = crafted_allocation()
        index = PossessionIndex(alloc, cache_window=20)
        index.record_relay_cache(stripe_id=3, box_id=2)
        request = StripeRequest(stripe_id=3, request_time=0, box_id=5)
        assert 2 in index.servers_for(request, current_time=0)

    def test_swarm_size(self):
        alloc = crafted_allocation(c=2)
        index = PossessionIndex(alloc, cache_window=20)
        index.record_download(0, box_id=1, time=0)
        index.record_download(1, box_id=1, time=0)
        index.record_download(0, box_id=2, time=1)
        assert index.swarm_size(video_id=0, num_stripes_per_video=2) == 2
        assert index.swarm_size(video_id=1, num_stripes_per_video=2) == 0


class TestConnectionMatcher:
    def test_upload_slots_validation(self):
        with pytest.raises(ValueError):
            ConnectionMatcher([])
        with pytest.raises(ValueError):
            ConnectionMatcher([-1, 2])

    def test_empty_request_set_is_feasible(self):
        alloc = crafted_allocation()
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        result = matcher.match(RequestSet(), index, current_time=0)
        assert result.feasible
        assert result.matched == 0

    def test_single_request_is_matched_to_a_holder(self):
        alloc = crafted_allocation()
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        requests = RequestSet([StripeRequest(stripe_id=0, request_time=0, box_id=5)])
        result = matcher.match(requests, index, current_time=0)
        assert result.feasible
        assert int(result.assignment[0]) in {0, 1}
        assert result.box_load.sum() == 1

    def test_requesting_box_never_serves_itself(self):
        alloc = crafted_allocation()
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        # Box 0 stores stripe 0 but also requests it.
        requests = RequestSet([StripeRequest(stripe_id=0, request_time=0, box_id=0)])
        result = matcher.match(requests, index, current_time=0)
        assert result.feasible
        assert int(result.assignment[0]) == 1

    def test_capacity_exhaustion_is_infeasible_with_witness(self):
        # Each box can upload 2 stripes per round (u=1, c=2).  Stripe 0 is
        # held by boxes 0 and 1 only → at most 4 requests can be served.
        alloc = crafted_allocation(num_boxes=6, c=2, k=2)
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        requests = RequestSet(
            [StripeRequest(stripe_id=0, request_time=0, box_id=b) for b in range(2, 6)]
            + [StripeRequest(stripe_id=0, request_time=1, box_id=b) for b in range(2, 6)]
        )
        result = matcher.match(requests, index, current_time=1)
        assert not result.feasible
        assert result.matched == 4
        assert result.obstruction_witness is not None
        assert len(result.obstruction_witness) >= 1

    def test_busy_slots_reduce_capacity(self):
        alloc = crafted_allocation()
        slots = alloc.population.upload_slots(2)
        matcher = ConnectionMatcher(slots)
        index = PossessionIndex(alloc, cache_window=20)
        requests = RequestSet(
            [
                StripeRequest(stripe_id=0, request_time=0, box_id=3),
                StripeRequest(stripe_id=0, request_time=0, box_id=4),
                StripeRequest(stripe_id=0, request_time=0, box_id=5),
                StripeRequest(stripe_id=0, request_time=1, box_id=2),
            ]
        )
        # Without busy slots: boxes 0 and 1 can serve 2 each → feasible.
        assert matcher.match(requests, index, current_time=1).feasible
        # Mark box 0 fully busy: only box 1 remains with 2 slots → infeasible.
        busy = np.zeros(alloc.population.n, dtype=np.int64)
        busy[0] = slots[0]
        result = matcher.match(requests, index, current_time=1, busy_slots=busy)
        assert not result.feasible

    def test_busy_slots_validation(self):
        alloc = crafted_allocation()
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        with pytest.raises(ValueError):
            matcher.match(RequestSet(), index, 0, busy_slots=[1, 2])

    def test_delta_requires_the_warm_start_it_extends(self):
        alloc = crafted_allocation()
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        requests = RequestSet([StripeRequest(stripe_id=0, request_time=0, box_id=3)])
        with pytest.raises(ValueError, match="warm_start"):
            matcher.match(requests, index, 0, delta=MatchDelta(keep_mask=None, num_new=1))

    def test_cache_server_expands_capacity(self):
        # With only the allocation, 5 concurrent viewers of stripe 0 are
        # infeasible; a cache server (earlier viewer) makes them feasible.
        alloc = crafted_allocation(num_boxes=8, c=2, k=2)
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        requests = RequestSet(
            [StripeRequest(stripe_id=0, request_time=1, box_id=b) for b in range(2, 7)]
        )
        assert not matcher.match(requests, index, current_time=1).feasible
        index.record_download(stripe_id=0, box_id=7, time=0)
        assert matcher.match(requests, index, current_time=1).feasible


class TestHallOracle:
    def test_flow_matcher_agrees_with_hall_oracle(self):
        alloc = crafted_allocation(num_boxes=6, c=2, k=2)
        c = 2
        uploads = alloc.population.uploads
        matcher = ConnectionMatcher(alloc.population.upload_slots(c))
        index = PossessionIndex(alloc, cache_window=20)
        rng = np.random.default_rng(0)
        for trial in range(15):
            num_requests = int(rng.integers(1, 7))
            requests = RequestSet(
                [
                    StripeRequest(
                        stripe_id=int(rng.integers(alloc.num_stripes)),
                        request_time=0,
                        box_id=int(rng.integers(alloc.num_boxes)),
                    )
                    for _ in range(num_requests)
                ]
            )
            flow_feasible = matcher.match(requests, index, current_time=0).feasible
            hall_feasible, witness = check_feasibility_hall(
                requests, index, uploads, c, current_time=0
            )
            assert flow_feasible == hall_feasible
            if not hall_feasible:
                assert witness is not None

    def test_hall_witness_is_a_real_violation(self):
        alloc = crafted_allocation(num_boxes=4, c=2, k=1)
        index = PossessionIndex(alloc, cache_window=20)
        uploads = alloc.population.uploads
        # Six requests for stripe 0 (held by box 0 only, capacity 2 stripes).
        requests = RequestSet(
            [StripeRequest(stripe_id=0, request_time=t, box_id=(t % 3) + 1) for t in range(6)]
        )
        feasible, witness = check_feasibility_hall(requests, index, uploads, 2, current_time=6)
        assert not feasible
        assert witness is not None
        assert len(witness) >= 3


class TestSortKeyOverflowGuards:
    """Packed ``(stripe, time)`` sort keys must never wrap int64 silently."""

    def _index(self):
        return PossessionIndex(crafted_allocation(), cache_window=20)

    def test_cached_keys_built_at_the_stripe_boundary(self):
        index = self._index()
        index._log.append(_MAX_KEYABLE_STRIPE, 1, 3)
        keys = index._log.view_keys()
        assert keys is not None
        assert int(keys[-1]) == (_MAX_KEYABLE_STRIPE << 21) + 3

    def test_cached_keys_fall_back_just_past_the_stripe_boundary(self):
        index = self._index()
        index._log.append(_MAX_KEYABLE_STRIPE + 1, 1, 3)
        assert index._log.view_keys() is None

    def test_incremental_patch_drops_keys_past_the_boundary(self):
        index = self._index()
        index._log.append(0, 1, 0)
        assert index._log.view_keys() is not None
        # Appending an oversized stripe patches the existing view; the
        # cached keys must be dropped rather than wrapped.
        index._log.append(_MAX_KEYABLE_STRIPE + 1, 2, 1)
        assert index._log.view_keys() is None

    def test_cache_windows_correct_past_the_boundary(self):
        """The dynamic-key fallback still finds the cache server."""
        big = _MAX_KEYABLE_STRIPE + 1
        index = self._index()
        index._log.append(big, 4, 3)
        stripes = np.array([big], dtype=np.int64)
        times = np.array([5], dtype=np.int64)
        _, sorted_boxes, win_lo, win_hi = index._cache_windows(
            stripes, times, current_time=5
        )
        assert list(sorted_boxes[int(win_lo[0]): int(win_hi[0])]) == [4]

    def test_fast_path_skips_oversized_request_stripes(self):
        """Keyable log + oversized *request* stripe routes to the fallback."""
        big = _MAX_KEYABLE_STRIPE + 1
        index = self._index()
        index.record_download(stripe_id=0, box_id=4, time=3)
        assert index._log.view_keys() is not None
        stripes = np.array([0, big], dtype=np.int64)
        times = np.array([5, 5], dtype=np.int64)
        _, sorted_boxes, win_lo, win_hi = index._cache_windows(
            stripes, times, current_time=5
        )
        assert list(sorted_boxes[int(win_lo[0]): int(win_hi[0])]) == [4]
        assert int(win_hi[1]) - int(win_lo[1]) <= 0

    def test_dynamic_scale_overflow_raises_typed_error(self):
        index = self._index()
        index._log.append(2**62, 1, 3)
        stripes = np.array([2**62], dtype=np.int64)
        times = np.array([5], dtype=np.int64)
        with pytest.raises(SortKeyOverflowError, match="stripe"):
            index._cache_windows(stripes, times, current_time=5)
