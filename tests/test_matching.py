"""Tests for repro.core.matching (requests, possession, Lemma 1 matching)."""

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.allocation import random_permutation_allocation
from repro.core.matching import ConnectionMatcher, check_feasibility_hall
from repro.core.parameters import homogeneous_population
from repro.core.possession import PossessionIndex
from repro.core.requests import RequestSet
from repro.core.video import Catalog


def crafted_allocation(num_boxes=6, num_videos=3, c=2, k=2, duration=20, u=1.0):
    """A deterministic allocation: stripe s is stored on boxes (s, s+1) mod n."""
    catalog = Catalog(num_videos=num_videos, num_stripes=c, duration=duration)
    population = homogeneous_population(num_boxes, u=u, d=max(2.0, num_videos * c * k / num_boxes / c + 1))
    replica_box = np.empty(num_videos * c * k, dtype=np.int64)
    for stripe_id in range(num_videos * c):
        for j in range(k):
            replica_box[stripe_id * k + j] = (stripe_id + j) % num_boxes
    return Allocation(catalog, population, k, replica_box)


def requests_of(triples):
    """A :class:`RequestSet` of ``(stripe, request_time, box)`` triples."""
    stripes, times, boxes = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return RequestSet(stripes, times, boxes)


class TestStripeRequestAndRequestSet:
    def test_request_validation(self):
        with pytest.raises(ValueError, match="stripe_id"):
            RequestSet([1, -1], [0, 0], [0, 0])
        with pytest.raises(ValueError, match="request_time"):
            RequestSet([0], [-1], [0])
        with pytest.raises(ValueError, match="box_id"):
            RequestSet([0], [0], [-2])
        with pytest.raises(ValueError, match="identical shapes"):
            RequestSet([0, 1], [0, 0], [0])
        requests = RequestSet([1, 1, 2], [0, 3, 0], [0, 1, 2])
        assert len(requests) == 3
        assert requests.stripe_id_array.dtype == np.int64
        assert requests.request_time_array.tolist() == [0, 3, 0]
        assert len(RequestSet([], [], [])) == 0


class TestPossessionIndex:
    def test_allocation_servers(self):
        alloc = crafted_allocation()
        index = PossessionIndex(alloc, cache_window=20)
        servers = index.servers_for(stripe_id=0, request_time=0, current_time=0)
        assert servers == {0, 1}

    def test_cache_servers_require_earlier_request(self):
        alloc = crafted_allocation()
        index = PossessionIndex(alloc, cache_window=20)
        index.record_download(stripe_id=0, box_id=4, time=3)
        assert 4 in index.servers_for(0, request_time=5, current_time=5)
        assert 4 not in index.servers_for(0, request_time=3, current_time=5)

    def test_cache_eviction(self):
        alloc = crafted_allocation(duration=5)
        index = PossessionIndex(alloc, cache_window=5)
        index.record_download(stripe_id=0, box_id=4, time=0)
        index.evict_before(current_time=6)
        assert 4 not in index.servers_for(0, request_time=5, current_time=6)

    def test_relay_cache_servers(self):
        alloc = crafted_allocation()
        index = PossessionIndex(alloc, cache_window=20)
        index.record_relay_cache(stripe_id=3, box_id=2)
        assert 2 in index.servers_for(3, request_time=0, current_time=0)


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
        result = matcher.match(requests_of([]), index, current_time=0)
        assert result.feasible
        assert result.matched == 0

    def test_single_request_is_matched_to_a_holder(self):
        alloc = crafted_allocation()
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        requests = requests_of([(0, 0, 5)])
        result = matcher.match(requests, index, current_time=0)
        assert result.feasible
        assert int(result.assignment[0]) in {0, 1}
        assert result.box_load.sum() == 1

    def test_requesting_box_never_serves_itself(self):
        alloc = crafted_allocation()
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        # Box 0 stores stripe 0 but also requests it.
        requests = requests_of([(0, 0, 0)])
        result = matcher.match(requests, index, current_time=0)
        assert result.feasible
        assert int(result.assignment[0]) == 1

    def test_capacity_exhaustion_is_infeasible_with_witness(self):
        # Each box can upload 2 stripes per round (u=1, c=2).  Stripe 0 is
        # held by boxes 0 and 1 only → at most 4 requests can be served.
        alloc = crafted_allocation(num_boxes=6, c=2, k=2)
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        requests = requests_of(
            [(0, 0, b) for b in range(2, 6)] + [(0, 1, b) for b in range(2, 6)]
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
        requests = requests_of([(0, 0, 3), (0, 0, 4), (0, 0, 5), (0, 1, 2)])
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
            matcher.match(requests_of([]), index, 0, busy_slots=[1, 2])

    def test_pair_expiry_requires_the_warm_start_it_dates(self):
        alloc = crafted_allocation()
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        requests = requests_of([(0, 0, 3)])
        with pytest.raises(ValueError, match="warm_start"):
            matcher.match(requests, index, 0, pair_expiry=[-1])

    @pytest.mark.parametrize("length", [1, 3])
    def test_pair_expiry_of_another_length_raises(self, length):
        """A misaligned ``pair_expiry`` is an error, not a full-kernel round."""
        alloc = crafted_allocation()
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        requests = requests_of([(0, 0, 3), (0, 0, 4)])
        with pytest.raises(ValueError, match="pair_expiry"):
            matcher.match(
                requests, index, 0, warm_start=[-1, -1], pair_expiry=[-1] * length
            )

    def test_repair_retires_over_capacity_pairs_in_request_order(self):
        """A box whose capacity drops keeps its first pairs in request order.

        Three requests for stripe 0, held by boxes 0 and 1 with 2 slots
        each: one holder serves two of them.  When busy slots cut it to
        one slot, the repair keeps the earlier request there and moves the
        later one to the other holder, without the full kernel.
        """
        alloc = crafted_allocation()
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        requests = requests_of([(0, 0, 2), (0, 0, 3), (0, 0, 4)])
        first = matcher.match(requests, index, 0, warm_start=np.full(3, -1))
        full = int(np.argmax(first.box_load))
        assert first.box_load[full] == 2
        earlier, later = np.flatnonzero(first.assignment == full)
        busy = np.zeros(alloc.num_boxes, dtype=np.int64)
        busy[full] = 1
        repairs = matcher.repair_rounds
        second = matcher.match(
            requests, index, 0, busy_slots=busy, warm_start=first.assignment,
            pair_expiry=first.pair_expiry,
        )
        assert matcher.repair_rounds == repairs + 1
        assert second.feasible
        assert np.all(second.box_load <= second.capacities)
        assert second.assignment[earlier] == full
        assert second.assignment[later] == 1 - full

    def test_cache_server_expands_capacity(self):
        # With only the allocation, 5 concurrent viewers of stripe 0 are
        # infeasible; a cache server (earlier viewer) makes them feasible.
        alloc = crafted_allocation(num_boxes=8, c=2, k=2)
        matcher = ConnectionMatcher(alloc.population.upload_slots(2))
        index = PossessionIndex(alloc, cache_window=20)
        requests = requests_of([(0, 1, b) for b in range(2, 7)])
        assert not matcher.match(requests, index, current_time=1).feasible
        index.record_download(stripe_id=0, box_id=7, time=0)
        assert matcher.match(requests, index, current_time=1).feasible


class TestHallOracle:
    def test_flow_matcher_agrees_with_hall_oracle(self):
        """Random instances at ``u = 1`` and at ``u = 1.3`` (``c = 2``).

        At ``u = 1.3`` each box has ``⌊2.6⌋ = 2`` slots.  Up to 7 requests
        fall on the first video's two stripes there, so that some instances
        are infeasible in slots although the fractional uploads would pass.
        """
        c = 2
        rng = np.random.default_rng(0)
        infeasible = 0
        for u, stripes, max_requests, trials in ((1.0, None, 6, 15), (1.3, 2, 7, 30)):
            alloc = crafted_allocation(num_boxes=6, c=c, k=2, u=u)
            slots = alloc.population.upload_slots(c)
            matcher = ConnectionMatcher(slots)
            index = PossessionIndex(alloc, cache_window=20)
            for trial in range(trials):
                num_requests = int(rng.integers(1, max_requests + 1))
                requests = requests_of(
                    [
                        (
                            int(rng.integers(stripes or alloc.num_stripes)),
                            0,
                            int(rng.integers(alloc.num_boxes)),
                        )
                        for _ in range(num_requests)
                    ]
                )
                flow_feasible = matcher.match(requests, index, current_time=0).feasible
                hall_feasible, witness = check_feasibility_hall(
                    requests, index, slots, current_time=0
                )
                assert flow_feasible == hall_feasible
                if not hall_feasible:
                    assert witness is not None
                    infeasible += u != 1.0
        assert infeasible > 0

    def test_fractional_upload_is_compared_in_slots(self):
        """``u = 1.3, c = 2``: boxes 0 and 1 hold stripe 0 with 2 slots each.

        Five requests for it are infeasible (the matcher serves 4), while
        the fractional uploads would sum to ``2.6 ≥ 5/2``.
        """
        alloc = crafted_allocation(num_boxes=6, c=2, k=2, u=1.3)
        slots = alloc.population.upload_slots(2)
        assert slots.tolist() == [2] * 6
        index = PossessionIndex(alloc, cache_window=20)
        requests = requests_of([(0, 0, b) for b in (2, 3, 4, 5, 2)])
        result = ConnectionMatcher(slots).match(requests, index, current_time=0)
        assert result.matched == 4
        feasible, witness = check_feasibility_hall(requests, index, slots, current_time=0)
        assert not feasible
        assert len(witness) == 5

    def test_hall_witness_is_a_real_violation(self):
        alloc = crafted_allocation(num_boxes=4, c=2, k=1)
        index = PossessionIndex(alloc, cache_window=20)
        slots = alloc.population.upload_slots(2)
        # Six requests for stripe 0 (held by box 0 only, capacity 2 stripes).
        requests = requests_of([(0, t, (t % 3) + 1) for t in range(6)])
        feasible, witness = check_feasibility_hall(requests, index, slots, current_time=6)
        assert not feasible
        assert witness is not None
        assert len(witness) >= 3


class TestAdoptAllocation:
    """One setter adopts a grown allocation: it rebuilds the static index
    only when the replica placement changed, and keeps the downloads."""

    def _index(self):
        catalog = Catalog(num_videos=3, num_stripes=2, duration=5)
        population = homogeneous_population(8, u=1.0, d=2.0)
        allocation = random_permutation_allocation(
            catalog, population, replicas_per_stripe=2, random_state=0
        )
        index = PossessionIndex(allocation, cache_window=5)
        index.record_downloads([1], [7], 2)
        return index

    def test_a_grown_population_with_the_same_placement_keeps_the_static_index(self):
        index = self._index()
        before = index.allocation
        static = (index._static_indptr, index._static_boxes)
        grown = Allocation(
            before.catalog, homogeneous_population(10, u=1.0, d=2.0), 2,
            before.replica_box.copy(),
        )
        index.adopt_allocation(grown)
        assert index.allocation is grown
        assert index._static_indptr is static[0] and index._static_boxes is static[1]
        index.record_downloads([1], [9], 3)  # a joined box
        assert index.cache_servers(1, 4, 4) == {7, 9}

    def test_a_grown_catalog_rebuilds_the_static_index(self):
        index = self._index()
        before = index.allocation
        grown = Allocation(
            Catalog(num_videos=4, num_stripes=2, duration=5), before.population, 2,
            np.concatenate([before.replica_box, [3, 0, 2, 2]]),
        )
        index.adopt_allocation(grown)
        assert index.allocation is grown
        for stripe in range(6):
            expected = np.unique(before.replica_box[2 * stripe: 2 * stripe + 2])
            assert index.static_servers(stripe).tolist() == expected.tolist()
        assert index.static_servers(6).tolist() == [0, 3]
        assert index.static_servers(7).tolist() == [2]
        assert index.cache_servers(1, 3, 3) == {7}


class TestDownloadWriterAndQueryChecks:
    """The download log has one writer, :meth:`record_downloads`, fed one
    round at a time in order.  Stripe ids and rounds are checked where
    they enter the log or a query, so the sort key
    ``(stripe << 31) + round`` never leaves int64 and a malformed id
    raises instead of reading another stripe's row."""

    #: First round outside the sort key's 31-bit round field.
    ROUND_LIMIT = 2**31

    def _index(self):
        """Catalog of 3 videos × 2 stripes on 8 boxes, k = 2, seed 0."""
        catalog = Catalog(num_videos=3, num_stripes=2, duration=5)
        population = homogeneous_population(8, u=1.0, d=2.0)
        allocation = random_permutation_allocation(
            catalog, population, replicas_per_stripe=2, random_state=0
        )
        return PossessionIndex(allocation, cache_window=5)

    @staticmethod
    def _log_state(index):
        """The live entries as ``(stripes, boxes, rounds)``, in key order."""
        keys, boxes = index._log.sorted_view()
        return (keys >> 31).tolist(), boxes.tolist(), (keys & (2**31 - 1)).tolist()

    def test_out_of_order_block_raises_and_leaves_the_log_unchanged(self):
        index = self._index()
        index.record_downloads([0, 1], [2, 3], 4)
        before = self._log_state(index)
        with pytest.raises(ValueError, match="precedes"):
            index.record_downloads([2], [5], 3)
        with pytest.raises(ValueError, match="precedes"):
            index.record_download(2, 5, 3)
        assert self._log_state(index) == before
        index.record_downloads([2], [5], 4)  # the same round is in order
        assert self._log_state(index)[2] == [4, 4, 4]

    def test_eviction_drops_folded_and_queued_entries(self):
        index = self._index()
        log = index._log
        log.extend(np.array([0, 1]), np.array([2, 3]), 1)
        log.extend(np.array([2]), np.array([4]), 3)
        assert len(log) == 3  # a query folds rounds 1 and 3 into the columns
        log.extend(np.array([1]), np.array([5]), 3)
        log.extend(np.array([0]), np.array([6]), 4)
        log.evict_before(4)  # the folded rounds 1 and 3, the queued round 3
        log.evict_before(3)  # a lower horizon evicts no less
        assert self._log_state(index) == ([0], [6], [4])
        log.evict_before(5)  # an empty log takes any round again
        log.extend(np.array([1]), np.array([7]), 0)
        assert self._log_state(index) == ([1], [7], [0])

    def test_largest_stripe_and_round_are_found_by_the_cache_window(self):
        index = self._index()
        top_stripe = index.allocation.num_stripes - 1
        top_round = self.ROUND_LIMIT - 1
        # Round 3 and the last round share the live log (nothing evicts),
        # so the view holds both ends of the round field.
        index.record_downloads([top_stripe], [5], 3)
        index.record_downloads([0, top_stripe], [4, 6], top_round - 1)
        for stripe, round_, expected in [
            (top_stripe, 4, [5]),
            (0, top_round, [4]),
            (top_stripe, top_round, [6]),
        ]:
            _, sorted_boxes, win_lo, win_hi = index._cache_windows(
                np.array([stripe]), np.array([round_]), current_time=round_
            )
            window = sorted_boxes[int(win_lo[0]): int(win_hi[0])].tolist()
            assert window == expected, (stripe, round_)
            boxes, _ = index.row_with_expiry(stripe, 7, round_, round_)
            assert set(expected) <= set(boxes.tolist())

    def test_unequal_lengths_raise_instead_of_broadcasting(self):
        index = self._index()
        with pytest.raises(ValueError, match="equal lengths"):
            index.record_downloads([0, 1, 2], [5], 0)
        assert len(index._log) == 0

    @pytest.mark.parametrize("stripe", [-3, 6])
    def test_writer_rejects_stripe_ids_outside_the_catalog(self, stripe):
        index = self._index()
        with pytest.raises(ValueError, match="stripe ids"):
            index.record_downloads([stripe], [2], 0)
        assert len(index._log) == 0

    @pytest.mark.parametrize("round_", [-1, 2**31])
    def test_writer_rejects_rounds_outside_the_key(self, round_):
        index = self._index()
        with pytest.raises(ValueError, match="round"):
            index.record_downloads([0], [2], round_)
        assert len(index._log) == 0

    @pytest.mark.parametrize("box", [-1, 8])
    def test_writer_rejects_box_ids_outside_the_population(self, box):
        index = self._index()
        with pytest.raises(ValueError, match="box ids"):
            index.record_downloads([0, 1], [2, box], 0)
        assert len(index._log) == 0

    @pytest.mark.parametrize("box", [-1, 8])
    def test_relay_writer_rejects_box_ids_outside_the_population(self, box):
        index = self._index()
        with pytest.raises(ValueError, match="box ids"):
            index.record_relay_cache(0, box)
        assert index._relays == {}

    @pytest.mark.parametrize("stripe", [-1, 6])
    def test_relay_writer_rejects_stripe_ids_outside_the_catalog(self, stripe):
        index = self._index()
        with pytest.raises(ValueError, match="stripe ids"):
            index.record_relay_cache(stripe, 2)
        assert index._relays == {}

    def test_a_download_by_box_minus_one_cannot_reach_the_repair(self):
        """Box −1 once entered the log and served a request from the repair.

        Two videos × two stripes on 6 boxes, one holder per stripe, 4 slots
        per box.  Stripe 0's only holder requests it along with four other
        boxes; an accepted write of ``(stripe 0, box −1)`` made the repair
        hand the holder's own request to ``residual[-1]``, box 5's slot,
        and report 6 matched requests against a load of 5.
        """
        catalog = Catalog(num_videos=2, num_stripes=2, duration=6)
        population = homogeneous_population(6, u=2.0, d=2.0)
        allocation = random_permutation_allocation(
            catalog, population, replicas_per_stripe=1, random_state=0
        )
        index = PossessionIndex(allocation, cache_window=6)
        (holder,) = index.static_servers(0).tolist()
        matcher = ConnectionMatcher(np.full(6, 4))
        first = matcher.match(requests_of([(1, 1, 0)]), index, 1, warm_start=[-1])
        with pytest.raises(ValueError, match="box ids"):
            index.record_downloads([0], [-1], 1)
        assert len(index._log) == 0
        # Request b (for b = 1..5) is box b's request for stripe 0.
        requests = requests_of([(1, 1, 0)] + [(0, 2, b) for b in range(1, 6)])
        second = matcher.match(
            requests, index, 2,
            warm_start=np.concatenate([first.assignment, np.full(5, -1)]),
            pair_expiry=np.concatenate([first.pair_expiry, np.full(5, -1)]),
        )
        assert second.matched == int(second.box_load.sum()) == 5
        assert second.assignment[holder] == -1  # the holder cannot serve itself
        assert np.all(second.box_load <= second.capacities)

    @pytest.mark.parametrize("stripe", [-2, -1, 6])
    def test_queries_reject_stripe_ids_outside_the_catalog(self, stripe):
        index = self._index()
        if stripe < 0:
            with pytest.raises(ValueError, match="stripe_id"):
                RequestSet([stripe], [0], [7])
        else:
            with pytest.raises(ValueError, match="stripe ids"):
                index.adjacency_for(RequestSet([stripe], [0], [7]), 1)
            with pytest.raises(ValueError, match="stripe ids"):
                index.delta_rows(RequestSet([stripe], [0], [7]), 1, [0], 4)
            # The round's row source checks every request up front.
            with pytest.raises(ValueError, match="stripe ids"):
                index.round_rows(RequestSet([stripe], [0], [7]), 1)
        with pytest.raises(ValueError, match="stripe ids"):
            index.row_with_expiry(stripe, 7, 0, 1)
        with pytest.raises(ValueError, match="stripe ids"):
            index.static_servers(stripe)
        with pytest.raises(ValueError, match="stripe ids"):
            index.cache_servers(stripe, 0, 1)
        with pytest.raises(ValueError, match="stripe ids"):
            index.servers_for(stripe, 0, 1)

    @pytest.mark.parametrize("round_", [-1, 2**31])
    def test_queries_reject_rounds_outside_the_key(self, round_):
        index = self._index()
        index.record_downloads([0], [2], 0)
        if round_ < 0:
            with pytest.raises(ValueError, match="request_time"):
                RequestSet([0], [round_], [7])
        else:
            with pytest.raises(ValueError, match="request rounds"):
                index.adjacency_for(RequestSet([0], [round_], [7]), 1)
            with pytest.raises(ValueError, match="request rounds"):
                index.delta_rows(RequestSet([0], [round_], [7]), 1, [0], 4)
            with pytest.raises(ValueError, match="request rounds"):
                index.round_rows(RequestSet([0], [round_], [7]), 1)
        with pytest.raises(ValueError, match="request rounds"):
            index.row_with_expiry(0, 7, round_, 1)
        with pytest.raises(ValueError, match="request rounds"):
            index.cache_servers(0, round_, 1)
        with pytest.raises(ValueError, match="request rounds"):
            index.servers_for(0, round_, 1)
        with pytest.raises(ValueError, match="current_time"):
            index.row_with_expiry(0, 7, 0, round_)
        with pytest.raises(ValueError, match="current_time"):
            index.round_rows(RequestSet([0], [0], [7]), round_)
        with pytest.raises(ValueError, match="current_time"):
            index.cache_servers(0, 0, round_)
        with pytest.raises(ValueError, match="current_time"):
            index.servers_for(0, 0, round_)

    def test_a_round_past_the_key_cannot_read_the_next_stripe(self):
        """Round ``2**31 + 5`` of stripe 0 would be key ``(1 << 31) + 5``,
        inside stripe 1's run, where box 7 cached stripe 1 at round 0."""
        index = self._index()
        index.record_downloads([1], [7], 0)
        with pytest.raises(ValueError, match="request rounds"):
            index.cache_servers(0, 2**31 + 5, 4)
        assert index.cache_servers(1, 4, 4) == {7}
