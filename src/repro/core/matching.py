"""Connection matching: requests, possession index and Lemma 1 feasibility.

At every round ``t`` the set of *stripe requests* not yet wired,
``Y = {(s_1, t_1, b_1), …, (s_p, t_p, b_p)}``, must be matched against the
boxes that possess the corresponding data so that each box ``b`` serves at
most ``⌊u_b·c⌋`` stripes (Section 2.2).  Wiring connections according to
such a matching serves every request at round ``t+1``, since each stripe
has rate ``1/c``.

This module provides:

* :class:`RequestSet` — the request multiset ``Y`` as three int64 columns;
* :class:`PossessionIndex` — the "who possesses what" relation ``B(·)``,
  combining the static allocation with playback caches and relay caches;
* :class:`ConnectionMatcher` — builds the bipartite graph ``G`` from ``Y``
  to the boxes and solves the connection matching through max flow;
* :func:`check_feasibility_hall` — the direct (exponential) form of
  Lemma 1's condition ``∀X ⊆ Y : U_{B(X)} ≥ |X|/c`` over the matcher's
  per-box slots ``⌊u_b·c⌋``, used on small instances to validate the
  flow-based answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.video import StripeId
from repro.flow.dinic import dinic_matching
from repro.flow.hopcroft_karp import (
    AugmentationBudgetExceeded,
    HKMatchingResult,
    _rank_among_equal,
    _stable_right_order,
    hopcroft_karp_matching,
    repair_matching,
)
from repro.util.validation import check_positive_integer

__all__ = [
    "RequestSet",
    "MatchDelta",
    "NEVER_EXPIRES",
    "PossessionIndex",
    "ConnectionMatching",
    "ConnectionMatcher",
    "MATCHING_SOLVERS",
    "check_feasibility_hall",
]

#: Edge-expiry sentinel for edges that never age out (static replicas and
#: relay caches).  Playback-cache edges expire after ``entry_time + T``.
NEVER_EXPIRES: int = int(np.iinfo(np.int64).max)


class RequestSet:
    """The multiset ``Y`` of stripe requests ``(s_i, t_i, b_i)`` of one round.

    Three parallel int64 columns: request ``i`` is for stripe
    ``stripe_id_array[i]``, issued at round ``request_time_array[i]`` by
    box ``box_id_array[i]``.  The columns are shared with the caller (the
    engine's request pool hands over copies), so they are read-only by
    convention.  A negative stripe id, round or box, or columns of unequal
    shape, raise ``ValueError``.
    """

    def __init__(self, stripe_ids, request_times, box_ids):
        self._stripes = np.asarray(stripe_ids, dtype=np.int64)
        self._times = np.asarray(request_times, dtype=np.int64)
        self._boxes = np.asarray(box_ids, dtype=np.int64)
        if not self._stripes.shape == self._times.shape == self._boxes.shape:
            raise ValueError("request columns must have identical shapes")
        for name, column in (
            ("stripe_id", self._stripes),
            ("request_time", self._times),
            ("box_id", self._boxes),
        ):
            if column.size and int(column.min()) < 0:
                raise ValueError(
                    f"{name} must be a non-negative integer, got {int(column.min())}"
                )

    @property
    def stripe_id_array(self) -> np.ndarray:
        """Per-request stripe identifiers."""
        return self._stripes

    @property
    def request_time_array(self) -> np.ndarray:
        """Per-request issue rounds."""
        return self._times

    @property
    def box_id_array(self) -> np.ndarray:
        """Per-request requesting boxes."""
        return self._boxes

    def __len__(self) -> int:
        return int(self._stripes.size)


_EMPTY_INT64 = np.empty(0, dtype=np.int64)

#: Cache-block clip for the repair greedy's delta gather: per row, only
#: the newest this-many playback-cache edges are materialized (plus all
#: static/relay edges).  Heuristic only — exact searches use full rows.
_GREEDY_MAX_CACHE_EDGES = 48

#: Bits of the round field in the download log's sort key
#: ``(stripe << _KEY_SHIFT) + round``.  Rounds lie in ``[0, 2**31)`` and
#: stripe ids in ``[0, num_stripes)``, far below ``2**32``, so no key
#: leaves int64.  The writer and the queries check both where they enter.
_KEY_SHIFT = 31
_ROUND_LIMIT = 1 << _KEY_SHIFT


def _check_span(name: str, low: int, high: int, limit: int) -> None:
    """Raise ``ValueError`` unless ``0 <= low`` and ``high < limit``."""
    if low < 0 or high >= limit:
        got = low if low < 0 else high
        raise ValueError(f"{name} must lie in [0, {limit}), got {got}")


@dataclass(frozen=True)
class MatchDelta:
    """The inter-round change of the active request multiset.

    Produced by the engine each round and handed to
    :meth:`ConnectionMatcher.match`: the new request set equals the
    previous one filtered by ``keep_mask`` (order preserved) followed by
    ``num_new`` appended arrivals.  ``keep_mask`` is ``None`` when no
    request expired.  Capacity changes (churn, faults, joins) need no
    explicit feed — the matcher compares its own load bookkeeping against
    the capacities of the current round.
    """

    #: Boolean mask over the *previous* round's requests (``None`` = all kept).
    keep_mask: Optional[np.ndarray]
    #: Number of requests appended after the survivors.
    num_new: int


class _DownloadLog:
    """Global time-ordered playback-cache log, struct-of-arrays.

    :meth:`extend` is the only writer.  It appends one round's block of
    ``(stripe, box)`` entries and rejects a round earlier than the last
    live entry, so the live segment is always sorted by time and
    eviction advances a head offset in O(expired).  Adjacency queries go
    through a per-generation *sorted view* (stable-sorted by stripe,
    hence sorted by ``(stripe, time, arrival)``) with cached sort keys,
    which turns the whole round's playback-cache gather into a pair of
    ``searchsorted`` calls.
    """

    __slots__ = (
        "stripes",
        "boxes",
        "times",
        "head",
        "tail",
        "_view_stripes",
        "_view_boxes",
        "_view_times",
        "_view_stale",
        "_append_total",
        "_view_append_total",
        "_evict_horizon",
        "_view_keys",
    )

    def __init__(self):
        self.stripes = np.empty(64, dtype=np.int64)
        self.boxes = np.empty(64, dtype=np.int64)
        self.times = np.empty(64, dtype=np.int64)
        self.head = 0
        self.tail = 0
        self._reset_view()

    def _reset_view(self) -> None:
        self._view_stripes: np.ndarray = _EMPTY_INT64
        self._view_boxes: np.ndarray = _EMPTY_INT64
        self._view_times: np.ndarray = _EMPTY_INT64
        self._view_keys: np.ndarray = _EMPTY_INT64
        self._view_stale = True
        # Incremental-view bookkeeping: total entries ever appended, the
        # total as of the last view build (-1 = view unusable as a merge
        # base), and the strictest eviction horizon since that build.
        self._append_total = self.tail - self.head
        self._view_append_total = -1
        self._evict_horizon: Optional[int] = None

    def __len__(self) -> int:
        return self.tail - self.head

    def __getstate__(self):
        live = slice(self.head, self.tail)
        return (
            self.stripes[live].copy(),
            self.boxes[live].copy(),
            self.times[live].copy(),
        )

    def __setstate__(self, state):
        # Format-3 snapshots from older builds carry a trailing order flag,
        # always true in engine sessions; it is ignored.
        self.stripes, self.boxes, self.times = state[:3]
        self.head, self.tail = 0, self.stripes.size
        self._reset_view()

    def extend(self, stripes: np.ndarray, boxes: np.ndarray, time: int) -> None:
        """Append one round's block of entries, all dated ``time``."""
        if self.tail > self.head and time < self.times[self.tail - 1]:
            raise ValueError(
                f"download round {time} precedes the log's last entry "
                f"(round {int(self.times[self.tail - 1])})"
            )
        count = int(stripes.size)
        if count == 0:
            return
        while self.tail + count > self.stripes.size:
            self._grow()
        lo, hi = self.tail, self.tail + count
        self.stripes[lo:hi] = stripes
        self.boxes[lo:hi] = boxes
        self.times[lo:hi] = time
        self.tail = hi
        self._append_total += count
        self._view_stale = True

    def _grow(self) -> None:
        live = self.tail - self.head
        if self.head > 0 and live <= self.stripes.size // 2:
            # Enough slack at the head: compact instead of reallocating.
            for arr in (self.stripes, self.boxes, self.times):
                arr[:live] = arr[self.head: self.tail]
        else:
            new_size = max(64, 2 * self.stripes.size)
            for name in ("stripes", "boxes", "times"):
                old = getattr(self, name)
                new = np.empty(new_size, dtype=np.int64)
                new[:live] = old[self.head: self.tail]
                setattr(self, name, new)
        self.head, self.tail = 0, live

    def evict_before(self, horizon: int) -> None:
        """Drop every live entry with time < ``horizon``."""
        if self.head == self.tail:
            return
        live_times = self.times[self.head: self.tail]
        advance = int(np.searchsorted(live_times, horizon, side="left"))
        if advance:
            self.head += advance
            self._view_stale = True
            if self._evict_horizon is None or horizon > self._evict_horizon:
                self._evict_horizon = horizon
        if self.head > 4096 and self.head > (self.tail - self.head):
            self._grow()  # reclaim the dead prefix

    def sorted_view(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live entries stable-sorted by stripe: ``(stripes, times, boxes)``.

        Within a stripe the order is by time then arrival — exactly the
        order the old per-stripe ring buffers exposed.
        """
        if self._view_stale:
            if not self._patch_view_incremental():
                live = slice(self.head, self.tail)
                stripes = self.stripes[live]
                order = np.argsort(stripes, kind="stable")
                self._view_stripes = stripes[order]
                self._view_times = self.times[live][order]
                self._view_boxes = self.boxes[live][order]
                self._view_keys = (self._view_stripes << _KEY_SHIFT) + self._view_times
            self._view_append_total = self._append_total
            self._evict_horizon = None
            self._view_stale = False
        return self._view_stripes, self._view_times, self._view_boxes

    def view_keys(self) -> np.ndarray:
        """``(stripe << _KEY_SHIFT) + time`` per sorted-view entry, cached."""
        self.sorted_view()
        return self._view_keys

    def _patch_view_incremental(self) -> bool:
        """Rebuild the sorted view from the previous one plus the delta.

        Head evictions map to a time filter on the cached view, and the
        entries appended since the last build sit at the tail with times
        no earlier than any cached entry, so one ``searchsorted`` places
        each new entry after its stripe's existing run.  Returns ``False``
        (caller does a full rebuild) whenever the cached view cannot be
        proven to match the live segment exactly.
        """
        if self._view_append_total < 0:
            return False
        new_k = self._append_total - self._view_append_total
        live_n = self.tail - self.head
        if new_k < 0 or new_k > live_n:
            return False
        old_s, old_t, old_b = self._view_stripes, self._view_times, self._view_boxes
        old_k = self._view_keys
        if self._evict_horizon is not None:
            keep = old_t >= self._evict_horizon
            old_s, old_t, old_b = old_s[keep], old_t[keep], old_b[keep]
            old_k = old_k[keep]
        if old_s.size + new_k != live_n:
            return False
        if new_k == 0:
            self._view_stripes, self._view_times, self._view_boxes = old_s, old_t, old_b
            self._view_keys = old_k
            return True
        lo = self.tail - new_k
        order = np.argsort(self.stripes[lo: self.tail], kind="stable")
        add_s = self.stripes[lo: self.tail][order]
        add_t = self.times[lo: self.tail][order]
        add_b = self.boxes[lo: self.tail][order]
        idx = np.searchsorted(old_s, add_s, side="right")
        idx += np.arange(new_k, dtype=np.int64)
        old_slots = np.ones(live_n, dtype=bool)
        old_slots[idx] = False
        add_k = (add_s << _KEY_SHIFT) + add_t
        merged = []
        for old, add in zip((old_s, old_t, old_b, old_k), (add_s, add_t, add_b, add_k)):
            column = np.empty(live_n, dtype=np.int64)
            column[idx] = add
            column[old_slots] = old
            merged.append(column)
        self._view_stripes, self._view_times, self._view_boxes, self._view_keys = merged
        return True

    def live_stripes(self) -> np.ndarray:
        """Stripe column of the live segment (unsorted, may repeat)."""
        return self.stripes[self.head: self.tail]

    def live_boxes(self) -> np.ndarray:
        """Box column of the live segment (unsorted, may repeat)."""
        return self.boxes[self.head: self.tail]


class PossessionIndex:
    """The relation "box ``b`` possesses the data needed by request ``x``".

    A box possesses the data needed by request ``(s, t_i, b_i)`` at the
    current round ``t`` when any of the following holds (Section 2.2 and
    the relay extension of Section 4):

    * it statically stores a replica of ``s`` (random allocation);
    * it caches ``s`` as the relay of a poor box;
    * it itself requested ``s`` at some ``t_j`` with ``t − T ≤ t_j < t_i``
      (playback cache: it is further ahead in the same stripe).

    The static stripe→boxes relation is precomputed once from the
    allocation as a CSR (``indptr``/``indices``) index; the dynamic caches
    live in one global struct-of-arrays download log (O(expired)
    eviction, whole-round batched queries).  The batched
    :meth:`adjacency_delta_for` emits the round's bipartite adjacency as
    CSR arrays with per-edge expiries, which is what the Hopcroft–Karp
    matching kernel and the incremental repair consume.

    Every query — :meth:`adjacency_delta_for`, :meth:`row_with_expiry`,
    :meth:`servers_for` — reads the same recorded state, so a subclass
    changes possession by changing what it records, never by overriding
    one query.  :meth:`record_downloads` is the one download writer to
    override (the sourcing-only baseline records nothing);
    :meth:`record_download` calls it.
    """

    def __init__(self, allocation: Allocation, cache_window: int):
        self._allocation = allocation
        self._window = check_positive_integer(cache_window, "cache_window")
        # Static stripe -> sorted distinct holder boxes, in CSR form.
        self._rebuild_static()
        # Global struct-of-arrays log of (stripe, box, time) downloads.
        self._log = _DownloadLog()
        # stripe_id -> set of boxes relay-caching it (Section 4).
        self._relays: Dict[int, Set[int]] = {}
        self._relay_arrays: Dict[int, np.ndarray] = {}

    @property
    def allocation(self) -> Allocation:
        """The underlying static allocation."""
        return self._allocation

    @property
    def cache_window(self) -> int:
        """Playback-cache window ``T`` in rounds."""
        return self._window

    def _rebuild_static(self) -> None:
        allocation = self._allocation
        k = allocation.replicas_per_stripe
        num_stripes = allocation.num_stripes
        if num_stripes and k:
            grid = np.sort(allocation.replica_box.reshape(num_stripes, k), axis=1)
            keep = np.ones_like(grid, dtype=bool)
            if k > 1:
                keep[:, 1:] = grid[:, 1:] != grid[:, :-1]
            counts = keep.sum(axis=1)
            self._static_indptr = np.zeros(num_stripes + 1, dtype=np.int64)
            np.cumsum(counts, out=self._static_indptr[1:])
            self._static_boxes = grid[keep].astype(np.int64)
        else:
            self._static_indptr = np.zeros(num_stripes + 1, dtype=np.int64)
            self._static_boxes = _EMPTY_INT64

    def set_allocation(self, allocation: Allocation) -> None:
        """Swap the allocation reference without rebuilding the static index.

        Only valid when the replica placement is unchanged (e.g. the
        population grew around the same ``replica_box`` array); use
        :meth:`refresh_allocation` after placements changed.
        """
        if allocation.replica_box is not self._allocation.replica_box and not (
            allocation.replica_box.shape == self._allocation.replica_box.shape
            and np.array_equal(allocation.replica_box, self._allocation.replica_box)
        ):
            raise ValueError(
                "set_allocation requires an identical replica placement; "
                "use refresh_allocation for changed placements"
            )
        self._allocation = allocation

    def refresh_allocation(self, allocation: Allocation) -> None:
        """Adopt a new allocation, rebuilding the static stripe→boxes index.

        The dynamic state — playback-cache swarms, eviction timeline and
        relay caches — is preserved, which is what the live ``add_videos``
        reconfiguration needs: existing downloads keep serving while the
        static index grows.
        """
        self._allocation = allocation
        self._rebuild_static()

    # ------------------------------------------------------------------ #
    # Dynamic state maintenance
    # ------------------------------------------------------------------ #
    def record_download(self, stripe_id: StripeId, box_id: int, time: int) -> None:
        """Record that ``box_id`` requested/downloads ``stripe_id`` starting at ``time``."""
        self.record_downloads(np.array([stripe_id]), np.array([box_id]), time)

    def record_downloads(
        self, stripe_ids: np.ndarray, box_ids: np.ndarray, time: int
    ) -> None:
        """Record a block of downloads all starting at round ``time``.

        Rounds are written in order, as the engine does: a round earlier
        than the last live download, a stripe id outside the catalog, a
        round outside the sort key or unequal lengths raise ``ValueError``.
        """
        stripe_ids = np.asarray(stripe_ids, dtype=np.int64)
        box_ids = np.asarray(box_ids, dtype=np.int64)
        if stripe_ids.shape != box_ids.shape:
            raise ValueError("stripe_ids and box_ids must have equal lengths")
        time = int(time)
        _check_span("round", time, time, _ROUND_LIMIT)
        if stripe_ids.size:
            self._check_stripes(int(stripe_ids.min()), int(stripe_ids.max()))
        self._log.extend(stripe_ids, box_ids, time)

    def record_relay_cache(self, stripe_id: StripeId, box_id: int) -> None:
        """Record that ``box_id`` relay-caches ``stripe_id`` for a poor box."""
        stripe_id = int(stripe_id)
        self._relays.setdefault(stripe_id, set()).add(int(box_id))
        self._relay_arrays.pop(stripe_id, None)

    def evict_before(self, current_time: int) -> None:
        """Drop cache entries older than ``current_time − T``."""
        self._log.evict_before(current_time - self._window)

    # ------------------------------------------------------------------ #
    # Possession queries
    # ------------------------------------------------------------------ #
    def _check_stripes(self, low: int, high: int) -> None:
        _check_span("stripe ids", low, high, self._allocation.num_stripes)

    def static_servers(self, stripe_id: StripeId) -> np.ndarray:
        """Sorted distinct boxes statically holding ``stripe_id`` (CSR slice)."""
        stripe_id = int(stripe_id)
        return self._static_boxes[
            self._static_indptr[stripe_id]: self._static_indptr[stripe_id + 1]
        ]

    def _cache_slice(
        self, stripe_id: int, request_time: int, current_time: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Playback-cache servers and their entry times for one request."""
        if not len(self._log):
            return _EMPTY_INT64, _EMPTY_INT64
        stripes, times, boxes = self._log.sorted_view()
        stripe_id = int(stripe_id)
        lo = int(np.searchsorted(stripes, stripe_id, side="left"))
        hi = int(np.searchsorted(stripes, stripe_id, side="right"))
        if lo == hi:
            return _EMPTY_INT64, _EMPTY_INT64
        horizon = current_time - self._window
        segment = times[lo:hi]
        a = int(np.searchsorted(segment, horizon, side="left"))
        b = int(np.searchsorted(segment, request_time, side="left"))
        return boxes[lo + a: lo + b], segment[a:b]

    def _cache_boxes_array(
        self, stripe_id: int, request_time: int, current_time: int
    ) -> np.ndarray:
        """Playback-cache servers as an array slice (may contain duplicates)."""
        return self._cache_slice(stripe_id, request_time, current_time)[0]

    def _relay_array(self, stripe_id: int) -> np.ndarray:
        relays = self._relays.get(stripe_id)
        if not relays:
            return _EMPTY_INT64
        cached = self._relay_arrays.get(stripe_id)
        if cached is None or cached.size != len(relays):
            cached = np.fromiter(relays, dtype=np.int64, count=len(relays))
            self._relay_arrays[stripe_id] = cached
        return cached

    def cache_servers(
        self, stripe_id: StripeId, request_time: int, current_time: int
    ) -> Set[int]:
        """Boxes able to serve ``stripe_id`` from their playback cache."""
        return {
            int(b)
            for b in self._cache_boxes_array(int(stripe_id), request_time, current_time)
        }

    def servers_for(
        self, stripe_id: StripeId, request_time: int, current_time: int
    ) -> Set[int]:
        """The neighbourhood ``B(x)`` of a request in the bipartite graph ``G``.

        The request is for ``stripe_id``, issued at round ``request_time``;
        the requesting box itself is not excluded.
        """
        servers: Set[int] = set(self.static_servers(stripe_id).tolist())
        servers |= self._relays.get(int(stripe_id), set())
        servers |= self.cache_servers(stripe_id, request_time, current_time)
        return servers

    def _cache_windows(
        self, stripes: np.ndarray, times: np.ndarray, current_time: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-request playback-cache windows into the log's sorted view.

        Returns ``(sorted_times, sorted_boxes, win_lo, win_hi)`` where
        ``[win_lo[i], win_hi[i])`` slices request ``i``'s cache window —
        entries of its stripe with time in ``[current_time − T,
        request_time)`` — found in the view's cached sort keys.
        """
        _, sorted_times, sorted_boxes = self._log.sorted_view()
        keys = self._log.view_keys()
        lo = max(current_time - self._window, 0)
        shifted = stripes << _KEY_SHIFT
        win_lo = np.searchsorted(keys, shifted + lo, side="left")
        win_hi = np.searchsorted(keys, shifted + times, side="left")
        return sorted_times, sorted_boxes, win_lo, win_hi

    def adjacency_for(
        self,
        requests: RequestSet,
        current_time: int,
        exclude_self: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency (requests → candidate server boxes) for one round.

        Row ``i`` lists the boxes that possess the data of ``requests[i]``
        — excluding the requesting box itself unless ``exclude_self`` is
        disabled.  Rows may contain duplicates (a box can hold a stripe
        statically *and* cache it); the matching kernel tolerates them.
        The output feeds
        :func:`repro.flow.hopcroft_karp.hopcroft_karp_matching` directly;
        it is :meth:`adjacency_delta_for` over every row, without the
        expiries.
        """
        return self.adjacency_delta_for(
            requests, current_time, exclude_self=exclude_self
        )[:2]

    def row_with_expiry(
        self,
        stripe_id: int,
        box_id: int,
        request_time: int,
        current_time: int,
        exclude_self: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One request's candidate boxes plus per-edge expiry rounds.

        The lazily materialized row the incremental repair augments
        through: parallel int64 arrays of candidate boxes and the last
        round each edge stays valid (:data:`NEVER_EXPIRES` for static
        and relay edges, ``entry_time + T`` for playback-cache edges).
        A stripe id outside the catalog or a round outside ``[0, 2**31)``
        raises ``ValueError``.
        """
        stripe_id, request_time = int(stripe_id), int(request_time)
        self._check_stripes(stripe_id, stripe_id)
        _check_span("request rounds", request_time, request_time, _ROUND_LIMIT)
        _check_span("current_time", current_time, current_time, _ROUND_LIMIT)
        static = self.static_servers(stripe_id)
        parts = [static]
        exp_parts = [np.full(static.size, NEVER_EXPIRES, dtype=np.int64)]
        cache_boxes, cache_times = self._cache_slice(
            stripe_id, request_time, current_time
        )
        if cache_boxes.size:
            parts.append(cache_boxes)
            exp_parts.append(cache_times + self._window)
        if self._relays:
            relay = self._relay_array(stripe_id)
            if relay.size:
                parts.append(relay)
                exp_parts.append(
                    np.full(relay.size, NEVER_EXPIRES, dtype=np.int64)
                )
        if len(parts) == 1:
            boxes_arr, expiry_arr = parts[0], exp_parts[0]
        else:
            boxes_arr = np.concatenate(parts)
            expiry_arr = np.concatenate(exp_parts)
        if exclude_self:
            mask = boxes_arr != box_id
            if not mask.all():
                boxes_arr = boxes_arr[mask]
                expiry_arr = expiry_arr[mask]
        return boxes_arr, expiry_arr

    def adjacency_delta_for(
        self,
        requests: RequestSet,
        current_time: int,
        rows: Optional[np.ndarray] = None,
        exclude_self: bool = True,
        max_cache_edges: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR adjacency restricted to ``rows``, with per-edge expiries.

        The incremental round path never re-gathers the full instance:
        pairs carried over from the previous round's CSR stay valid until
        their recorded expiry, so only the *delta rows* (arrivals plus
        requests whose pair was retired) need fresh adjacency.  ``rows``
        selects those request indices (``None`` = all of them); the result
        is ``(indptr, indices, expiry)`` over ``len(rows)`` rows, where
        ``expiry[e]`` is the last round edge ``e`` remains valid
        (:data:`NEVER_EXPIRES` for static/relay edges, ``entry_time + T``
        for playback-cache edges).

        ``max_cache_edges`` clips every row's playback-cache block to its
        *newest* that-many entries (popular stripes accumulate thousands
        of cachers per window; the newest expire last, so the kept pairs
        survive longest).  Clipped rows are **incomplete** — valid for
        heuristic passes like the repair greedy, never for an exact
        solve.

        A stripe id outside the catalog or a round outside ``[0, 2**31)``
        raises ``ValueError`` before anything is gathered.
        """
        stripes = requests.stripe_id_array
        boxes = requests.box_id_array
        times = requests.request_time_array
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            stripes = stripes[rows]
            boxes = boxes[rows]
            times = times[rows]
        num = int(stripes.size)
        if num == 0:
            return np.zeros(1, dtype=np.int64), _EMPTY_INT64, _EMPTY_INT64
        self._check_stripes(int(stripes.min()), int(stripes.max()))
        _check_span("request rounds", int(times.min()), int(times.max()), _ROUND_LIMIT)
        _check_span("current_time", current_time, current_time, _ROUND_LIMIT)

        # Static block: one fancy-index gather over the stripe CSR.
        row_starts = self._static_indptr[stripes]
        lens = self._static_indptr[stripes + 1] - row_starts
        total = int(lens.sum())
        offsets = np.zeros(num + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        gather = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets[:-1], lens)
            + np.repeat(row_starts, lens)
        )
        all_vals = self._static_boxes[gather]
        all_rows = np.repeat(np.arange(num, dtype=np.int64), lens)
        all_expiry = np.full(total, NEVER_EXPIRES, dtype=np.int64)

        extra_vals: List[np.ndarray] = []
        extra_rows: List[np.ndarray] = []
        extra_expiry: List[np.ndarray] = []
        if len(self._log):
            sorted_times, sorted_boxes, win_lo, win_hi = self._cache_windows(
                stripes, times, current_time
            )
            if max_cache_edges is not None:
                win_lo = np.maximum(win_lo, win_hi - max_cache_edges)
            counts_cache = np.maximum(win_hi - win_lo, 0)
            total_cache = int(counts_cache.sum())
            if total_cache:
                cache_offsets = np.zeros(num + 1, dtype=np.int64)
                np.cumsum(counts_cache, out=cache_offsets[1:])
                gather_cache = (
                    np.arange(total_cache, dtype=np.int64)
                    - np.repeat(cache_offsets[:-1], counts_cache)
                    + np.repeat(win_lo, counts_cache)
                )
                cache_vals = sorted_boxes[gather_cache]
                cache_expiry = sorted_times[gather_cache] + self._window
                if not self._relays:
                    # Static + caches only: positional merge, no edge sort.
                    row_counts = lens + counts_cache
                    indptr_merged = np.zeros(num + 1, dtype=np.int64)
                    np.cumsum(row_counts, out=indptr_merged[1:])
                    merged = np.empty(total + total_cache, dtype=np.int64)
                    merged_expiry = np.empty(total + total_cache, dtype=np.int64)
                    static_pos = (
                        np.repeat(indptr_merged[:-1], lens)
                        + (gather - np.repeat(row_starts, lens))
                    )
                    cache_pos = (
                        np.repeat(indptr_merged[:-1] + lens, counts_cache)
                        + (gather_cache - np.repeat(win_lo, counts_cache))
                    )
                    merged[static_pos] = all_vals
                    merged[cache_pos] = cache_vals
                    merged_expiry[static_pos] = all_expiry
                    merged_expiry[cache_pos] = cache_expiry
                    all_vals = merged
                    all_expiry = merged_expiry
                    all_rows = np.repeat(np.arange(num, dtype=np.int64), row_counts)
                else:
                    extra_vals.append(cache_vals)
                    extra_rows.append(
                        np.repeat(np.arange(num, dtype=np.int64), counts_cache)
                    )
                    extra_expiry.append(cache_expiry)
        if self._relays:
            relay_stripes = np.fromiter(
                self._relays.keys(), dtype=np.int64, count=len(self._relays)
            )
            for i in np.flatnonzero(np.isin(stripes, relay_stripes)).tolist():
                relay = self._relay_array(int(stripes[i]))
                if relay.size:
                    extra_vals.append(relay)
                    extra_rows.append(np.full(relay.size, i, dtype=np.int64))
                    extra_expiry.append(
                        np.full(relay.size, NEVER_EXPIRES, dtype=np.int64)
                    )
        if extra_vals:
            all_vals = np.concatenate([all_vals] + extra_vals)
            all_rows = np.concatenate([all_rows] + extra_rows)
            all_expiry = np.concatenate([all_expiry] + extra_expiry)
            order = np.argsort(all_rows, kind="stable")
            all_vals = all_vals[order]
            all_rows = all_rows[order]
            all_expiry = all_expiry[order]

        if exclude_self:
            mask = all_vals != boxes[all_rows]
            if not mask.all():
                all_vals = all_vals[mask]
                all_rows = all_rows[mask]
                all_expiry = all_expiry[mask]
        counts = np.bincount(all_rows, minlength=num)
        indptr = np.zeros(num + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, all_vals, all_expiry

    def swarm_size(self, video_id: int, num_stripes_per_video: int) -> int:
        """Number of distinct boxes currently downloading any stripe of a video."""
        base = video_id * num_stripes_per_video
        stripes = self._log.live_stripes()
        if not stripes.size:
            return 0
        mask = (stripes >= base) & (stripes < base + num_stripes_per_video)
        if not mask.any():
            return 0
        return int(np.unique(self._log.live_boxes()[mask]).size)


@dataclass(frozen=True)
class ConnectionMatching:
    """Result of wiring the requests of one round.

    Attributes
    ----------
    feasible:
        Whether every request could be assigned a server.
    assignment:
        For each request (in the order of the request set), the box serving
        it, or ``-1`` when infeasible and left unmatched.
    matched:
        Number of matched requests.
    obstruction_witness:
        When infeasible, indices (into the request set) of a subset ``X``
        violating the Lemma 1 condition ``U_{B(X)} ≥ |X|/c``.
    box_load:
        Per-box number of stripes served under the returned assignment.
    capacities:
        Effective per-box capacities the matching was solved against
        (upload slots minus any ``busy_slots``, clipped at zero) — the
        exact right-hand side of the solved instance, reused by the
        differential solver oracle.
    degraded:
        ``True`` when the primary solver ran out of its augmentation
        budget and the round was re-solved by the Dinic fallback.  The
        matching is still a maximum matching of the same instance; the
        flag only records that the fast path gave up.
    repair_fallback:
        ``True`` when the incremental repair path exceeded its search
        budget and the round was re-solved by the full Hopcroft–Karp
        kernel.  Like ``degraded``, a pure provenance flag: the matching
        itself is identical to what the repair would have produced.
    """

    feasible: bool
    assignment: np.ndarray
    matched: int
    obstruction_witness: Optional[Tuple[int, ...]]
    box_load: np.ndarray
    capacities: np.ndarray
    degraded: bool = False
    repair_fallback: bool = False


#: Matching kernels a :class:`ConnectionMatcher` (and so a scenario, the
#: CLI and the component registry) accepts by name: the Hopcroft–Karp
#: production path and the in-house Dinic max-flow reduction, its cold twin.
MATCHING_SOLVERS: Tuple[str, ...] = ("hopcroft_karp", "dinic")


class ConnectionMatcher:
    """Builds the bipartite graph ``G`` and solves the connection matching.

    Parameters
    ----------
    upload_slots:
        Per-box number of stripes uploadable per round, ``⌊u_b·c⌋``,
        possibly already reduced by statically reserved relay capacity
        (Section 4).
    solver:
        ``"hopcroft_karp"`` (default) repairs the previous round's
        matching when the call carries a :class:`MatchDelta` and falls
        back to the full kernel on the CSR adjacency emitted by
        :meth:`PossessionIndex.adjacency_delta_for`;
        ``"dinic"`` solves every round cold with the in-house Dinic max
        flow (:func:`repro.flow.dinic.dinic_matching`) on the same CSR
        adjacency, and serves as the cold twin in cross-validation tests
        and benchmarks.
    augmentation_budget:
        Optional per-round cap on the Hopcroft–Karp kernel's
        augmenting-path searches.  When the kernel exceeds it the round
        is transparently re-solved with the Dinic fallback and the
        returned matching carries ``degraded=True`` — graceful
        degradation instead of an unbounded solve.  Ignored by the
        Dinic solver (it has no augmentation budget).
    """

    def __init__(
        self,
        upload_slots: Sequence[int],
        solver: str = "hopcroft_karp",
        augmentation_budget: Optional[int] = None,
    ):
        slots = np.asarray(upload_slots, dtype=np.int64)
        if slots.ndim != 1 or slots.size == 0:
            raise ValueError("upload_slots must be a non-empty 1-D sequence")
        if np.any(slots < 0):
            raise ValueError("upload_slots must be non-negative")
        if solver not in MATCHING_SOLVERS:
            known = ", ".join(MATCHING_SOLVERS)
            raise ValueError(f"solver must be one of {known}, got {solver!r}")
        self._slots = slots
        self._solver = solver
        self._augmentation_budget: Optional[int] = None
        self.set_augmentation_budget(augmentation_budget)
        # Incremental round state: per previous-round request, the last
        # round its matched pair stays valid (meaningless where unmatched).
        # ``None`` means "no usable state" — the next delta round runs the
        # full kernel once and rebuilds it.
        self._pair_expiry: Optional[np.ndarray] = None
        self._partial_repair: Optional[np.ndarray] = None
        self._repair_search_budget: Optional[int] = None
        self._repair_rounds = 0

    @property
    def upload_slots(self) -> np.ndarray:
        """Per-box stripe-upload capacity used for the matching."""
        return self._slots

    @property
    def solver(self) -> str:
        """Name of the matching kernel in use."""
        return self._solver

    @property
    def augmentation_budget(self) -> Optional[int]:
        """Current per-round augmentation budget (``None`` = unlimited)."""
        return self._augmentation_budget

    def set_augmentation_budget(self, budget: Optional[int]) -> None:
        """Set (or clear, with ``None``) the per-round augmentation budget."""
        if budget is not None:
            budget = int(budget)
            if budget < 0:
                raise ValueError("augmentation_budget must be non-negative")
        self._augmentation_budget = budget

    @property
    def repair_search_budget(self) -> Optional[int]:
        """Search cap of the incremental repair (``None`` = size heuristic)."""
        return self._repair_search_budget

    def set_repair_search_budget(self, budget: Optional[int]) -> None:
        """Cap the incremental repair's augmenting-path searches.

        When a round's repair would exceed the cap it re-runs the full
        Hopcroft–Karp kernel instead (counted via
        :attr:`ConnectionMatching.repair_fallback`).  ``None`` restores
        the default ``max(256, 2·⌈√n⌉)`` heuristic.
        """
        if budget is not None:
            budget = int(budget)
            if budget < 0:
                raise ValueError("repair_search_budget must be non-negative")
        self._repair_search_budget = budget

    @property
    def repair_rounds(self) -> int:
        """Rounds solved entirely by the incremental repair (no full kernel)."""
        return self._repair_rounds

    def reset_incremental_state(self) -> None:
        """Drop the incremental pair bookkeeping.

        The next round has nothing to repair and runs the full kernel,
        which rebuilds the bookkeeping.
        """
        self._pair_expiry = None
        self._partial_repair = None

    def update_upload_slots(self, upload_slots: Sequence[int]) -> None:
        """Replace the per-box capacities (live capacity reconfiguration).

        The new vector may be longer than the old one (boxes joined) but
        never shorter; it takes effect from the next :meth:`match` call.
        """
        slots = np.asarray(upload_slots, dtype=np.int64)
        if slots.ndim != 1 or slots.size < self._slots.size:
            raise ValueError(
                "upload_slots must be a 1-D sequence at least as long as the "
                f"current population ({self._slots.size})"
            )
        if np.any(slots < 0):
            raise ValueError("upload_slots must be non-negative")
        self._slots = slots

    def match(
        self,
        requests: RequestSet,
        possession: PossessionIndex,
        current_time: int,
        busy_slots: Optional[Sequence[int]] = None,
        warm_start: Optional[Sequence[int]] = None,
        delta: Optional[MatchDelta] = None,
    ) -> ConnectionMatching:
        """Wire the requests of round ``current_time``.

        ``busy_slots`` optionally gives, per box, the number of upload
        slots already consumed by connections carried over from previous
        rounds (ongoing stripe transfers); they are subtracted from the
        capacity available to new requests.

        ``warm_start`` optionally seeds the matching with a previous
        round's request→box assignment (``-1`` = unmatched).  Stale pairs
        (departed boxes, evicted caches, exhausted capacity) are dropped
        during validation, so the result is always a maximum matching of
        the *current* instance; only the solve gets cheaper.  Ignored by
        the Dinic solver.

        ``delta`` additionally describes how the request set evolved from
        the previous ``match`` call (see :class:`MatchDelta`) and enables
        the incremental path: instead of re-gathering the full adjacency,
        the matcher retires only the pairs invalidated by the delta
        (expired cache edges, over-capacity boxes) and repairs the small
        deficit against delta-only adjacency rows.  A repaired-to-perfect
        matching is maximum by construction; any other outcome falls back
        to the full kernel, so results are bit-compatible with a full
        solve.  ``delta`` requires ``warm_start``.  Without a delta, or
        with an ``augmentation_budget`` set (budgeted rounds must charge
        the full kernel so degradation fires identically), the round runs
        the full kernel and drops the pair bookkeeping.  Both routes
        gather adjacency through
        :meth:`PossessionIndex.adjacency_delta_for`.
        """
        n = self._slots.size
        capacities = self._slots.copy()
        if busy_slots is not None:
            busy = np.asarray(busy_slots, dtype=np.int64)
            if busy.shape != capacities.shape:
                raise ValueError("busy_slots must have one entry per box")
            if np.any(busy < 0):
                raise ValueError("busy_slots must be non-negative")
            capacities = np.maximum(capacities - busy, 0)

        num_requests = len(requests)
        if not num_requests:
            if self._solver == "hopcroft_karp":
                self._pair_expiry = _EMPTY_INT64
            return ConnectionMatching(
                feasible=True,
                assignment=np.empty(0, dtype=np.int64),
                matched=0,
                obstruction_witness=None,
                box_load=np.zeros(n, dtype=np.int64),
                capacities=capacities,
            )

        degraded = False
        repair_fallback = False
        if self._solver == "dinic":
            indptr, indices = possession.adjacency_for(requests, current_time)
            result = dinic_matching(num_requests, n, indptr, indices, capacities)
        else:
            if warm_start is not None and len(warm_start) != num_requests:
                raise ValueError("warm_start must have one entry per request")
            if delta is not None and warm_start is None:
                raise ValueError("delta requires the warm_start assignment it extends")
            # A budgeted round skips the repair: the full kernel must do
            # the searching so AugmentationBudgetExceeded → degraded fires
            # exactly as without the incremental layer.
            incremental_ctx = delta is not None and self._augmentation_budget is None
            repaired: Optional[Tuple[np.ndarray, np.ndarray]] = None
            warm_seed = warm_start
            if incremental_ctx:
                try:
                    repaired = self._try_repair(
                        requests, possession, current_time, capacities,
                        warm_start, delta,
                    )
                except AugmentationBudgetExceeded:
                    repair_fallback = True
                if repaired is None and self._partial_repair is not None:
                    # The partially repaired assignment only holds valid
                    # pairs within capacity — a strictly better warm seed.
                    warm_seed = self._partial_repair
            else:
                self._pair_expiry = None
            if repaired is not None:
                assignment, self._pair_expiry = repaired
                result = HKMatchingResult(
                    feasible=True,
                    assignment=assignment,
                    matched=num_requests,
                    deficient_left=(),
                    unsatisfied_witness=None,
                )
                self._repair_rounds += 1
            else:
                indptr, indices, edge_expiry = possession.adjacency_delta_for(
                    requests, current_time
                )
                try:
                    result = hopcroft_karp_matching(
                        num_left=num_requests,
                        num_right=n,
                        indptr=indptr,
                        indices=indices,
                        right_capacities=capacities,
                        initial_assignment=warm_seed,
                        augmentation_budget=self._augmentation_budget,
                    )
                except AugmentationBudgetExceeded:
                    # Graceful degradation: re-solve the identical instance
                    # (same CSR adjacency, same capacities) with the Dinic
                    # max-flow kernel.  Maximum-matching cardinality is
                    # solver-independent, so feasibility and per-round metrics
                    # are unchanged; only the degraded flag records the event.
                    result = dinic_matching(num_requests, n, indptr, indices, capacities)
                    degraded = True
                if incremental_ctx:
                    self._pair_expiry = self._pair_expiry_from_csr(
                        result.assignment, indptr, indices, edge_expiry
                    )

        assignment = result.assignment
        served = assignment[assignment >= 0]
        box_load = np.bincount(served, minlength=n).astype(np.int64)
        return ConnectionMatching(
            feasible=result.feasible,
            assignment=assignment,
            matched=result.matched,
            obstruction_witness=result.unsatisfied_witness,
            box_load=box_load,
            capacities=capacities,
            degraded=degraded,
            repair_fallback=repair_fallback,
        )

    # ------------------------------------------------------------------ #
    # Incremental round path
    # ------------------------------------------------------------------ #
    def _pair_expiry_from_csr(
        self,
        assignment: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_expiry: np.ndarray,
    ) -> np.ndarray:
        """Per-request expiry of the matched pair, from a full expiry CSR.

        Duplicate ``(request, box)`` edges (static holder that also
        caches) take the *latest* expiry — exactly the round after which
        the classic validation would drop the pair.
        """
        num = assignment.size
        pair_expiry = np.full(num, -1, dtype=np.int64)
        if num and indices.size:
            rows_of = np.repeat(
                np.arange(num, dtype=np.int64), np.diff(indptr)
            )
            hit = indices == assignment[rows_of]
            if hit.any():
                np.maximum.at(pair_expiry, rows_of[hit], edge_expiry[hit])
        return pair_expiry

    def _try_repair(
        self,
        requests: RequestSet,
        possession: PossessionIndex,
        current_time: int,
        capacities: np.ndarray,
        warm_start: Sequence[int],
        delta: MatchDelta,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Attempt the incremental repair of one round.

        Returns ``(assignment, pair_expiry)`` when the delta was repaired
        to a perfect — hence maximum — matching, ``None`` when the round
        must run the full kernel (no usable state, or some request has no
        augmenting path, i.e. the round is infeasible and needs the
        kernel's Hall witness).  Raises
        :class:`~repro.flow.hopcroft_karp.AugmentationBudgetExceeded`
        when the repair search budget runs out; the caller counts that as
        a *repair fallback* and re-solves with the full kernel.
        """
        self._partial_repair: Optional[np.ndarray] = None
        pair_expiry_prev = self._pair_expiry
        if pair_expiry_prev is None:
            return None
        num_requests = len(requests)
        num_new = int(delta.num_new)
        num_survivors = num_requests - num_new
        if num_survivors < 0:
            return None
        keep = delta.keep_mask
        if keep is not None:
            if (
                keep.size != pair_expiry_prev.size
                or int(keep.sum()) != num_survivors
            ):
                return None
            pair_expiry_prev = pair_expiry_prev[keep]
        elif pair_expiry_prev.size != num_survivors:
            return None

        warm = np.asarray(warm_start, dtype=np.int64)
        n = capacities.size
        assignment = warm.copy()
        pair_expiry = np.empty(num_requests, dtype=np.int64)
        pair_expiry[:num_survivors] = pair_expiry_prev
        pair_expiry[num_survivors:] = -1

        # Retire pairs whose backing cache edge aged out of the window.
        active = assignment >= 0
        stale = active & (pair_expiry < current_time)
        if stale.any():
            assignment[stale] = -1
            active &= ~stale
        # Retire pairs on boxes whose capacity dropped below their load
        # (churn outages, fault brownouts/crashes, busy slots) — keeping,
        # per box, the first ``cap`` pairs in request order, mirroring the
        # classic warm validation.
        load = np.bincount(
            assignment[active], minlength=n
        ).astype(np.int64)
        over = load > capacities
        if over.any():
            # Mask lookup instead of np.isin: assignment == -1 reads the
            # last slot of ``over``, which the active filter discards.
            affected = np.flatnonzero(active & over[assignment])
            ab = assignment[affected]
            assignment[affected[_rank_among_equal(ab) >= capacities[ab]]] = -1
            load = np.bincount(
                assignment[assignment >= 0], minlength=n
            ).astype(np.int64)

        deficit = np.flatnonzero(assignment < 0)
        if not deficit.size:
            return assignment, pair_expiry

        # Fresh adjacency for the delta rows only, then a vectorized
        # multi-pass greedy against the residual capacities.  The cache
        # blocks are clipped (greedy is a heuristic filler — leftovers go
        # to the exact search): popular-stripe rows would otherwise carry
        # thousands of cache edges and dominate the gather.
        indptr_d, indices_d, expiry_d = possession.adjacency_delta_for(
            requests, current_time, rows=deficit,
            max_cache_edges=_GREEDY_MAX_CACHE_EDGES,
        )
        residual = capacities - load
        ptr = indptr_d[:-1].copy()
        ends = indptr_d[1:]
        unresolved = np.arange(deficit.size, dtype=np.int64)
        leftovers: List[np.ndarray] = []
        while unresolved.size:
            has_edge = ptr[unresolved] < ends[unresolved]
            if not has_edge.all():
                leftovers.append(unresolved[~has_edge])
                unresolved = unresolved[has_edge]
                if not unresolved.size:
                    break
            cand = indices_d[ptr[unresolved]]
            order = _stable_right_order(cand)
            sc = cand[order]
            new_group = np.empty(sc.size, dtype=bool)
            new_group[0] = True
            new_group[1:] = sc[1:] != sc[:-1]
            group_start = np.flatnonzero(new_group)
            group_id = np.cumsum(new_group) - 1
            rank = np.arange(sc.size, dtype=np.int64) - group_start[group_id]
            ok = np.empty(sc.size, dtype=bool)
            ok[order] = rank < residual[sc]  # back to row order: stays sorted
            accepted = unresolved[ok]
            if accepted.size:
                acc_boxes = cand[ok]
                assignment[deficit[accepted]] = acc_boxes
                pair_expiry[deficit[accepted]] = expiry_d[ptr[accepted]]
                # Per-box acceptance counts straight from the group
                # structure: each group takes min(size, residual) rows —
                # an O(n)-boxes bincount per pass would dwarf the pass.
                group_sizes = np.empty(group_start.size, dtype=np.int64)
                group_sizes[:-1] = group_start[1:] - group_start[:-1]
                group_sizes[-1] = sc.size - group_start[-1]
                group_boxes = sc[group_start]
                residual[group_boxes] -= np.minimum(
                    group_sizes, residual[group_boxes]
                )
            rejected = unresolved[~ok]
            ptr[rejected] += 1
            # Fast-forward rejected rows past runs of saturated boxes:
            # residual never grows within a round, so such edges can
            # never be taken and an argsort pass each is wasted on them.
            check = rejected
            while check.size:
                check = check[ptr[check] < ends[check]]
                if not check.size:
                    break
                check = check[residual[indices_d[ptr[check]]] <= 0]
                ptr[check] += 1
            unresolved = rejected

        budget = self._repair_search_budget
        if budget is None:
            budget = max(256, 2 * math.isqrt(num_requests), num_requests // 64)
        if leftovers:
            remaining = deficit[np.sort(np.concatenate(leftovers))]
        else:
            remaining = _EMPTY_INT64
        if not remaining.size:
            return assignment, pair_expiry
        if remaining.size > budget:
            self._partial_repair = assignment
            raise AugmentationBudgetExceeded(
                f"incremental repair budget of {budget} searches exhausted "
                f"with a deficit of {remaining.size}"
            )

        # Exhaustive augmentation for the stragglers, over lazily
        # materialized rows.  Each flipped pair records its edge expiry.
        stripes = requests.stripe_id_array
        boxes = requests.box_id_array
        times = requests.request_time_array
        row_cache: Dict[int, Tuple[np.ndarray, List[int], List[int]]] = {}

        def get_row(i: int) -> Tuple[np.ndarray, List[int], List[int]]:
            row = row_cache.get(i)
            if row is None:
                arr, exp = possession.row_with_expiry(
                    int(stripes[i]), int(boxes[i]), int(times[i]), current_time
                )
                row = row_cache[i] = (arr, arr.tolist(), exp.tolist())
            return row

        load = capacities - residual
        complete = repair_matching(
            num_requests,
            n,
            get_row,
            capacities,
            assignment,
            load,
            pair_expiry,
            remaining.tolist(),
            search_budget=budget,
        )
        if not complete:
            # Some request has no augmenting path: the round is infeasible
            # and the full kernel must run for the Hall witness.  Not a
            # budget event — the partial matching still seeds the kernel.
            self._partial_repair = assignment
            return None
        return assignment, pair_expiry


def check_feasibility_hall(
    requests: RequestSet,
    possession: PossessionIndex,
    upload_slots: Sequence[int],
    current_time: int,
    max_subset_size: Optional[int] = None,
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Direct check of Lemma 1: ``∀ X ⊆ Y, U_{B(X)} ≥ |X|/c``.

    Takes the per-box slots ``⌊u_b·c⌋`` the matcher takes, so the
    condition reads ``Σ_{b ∈ B(X)} ⌊u_b·c⌋ ≥ |X|`` in integers.
    Exhaustive over subsets of the request set (exponential); only usable
    on small instances, where it serves as an oracle for the flow-based
    matcher.  Returns ``(feasible, witness)`` where ``witness`` is a
    violating subset of request indices (or ``None``).
    """
    slots = np.asarray(upload_slots, dtype=np.int64)
    neighbourhoods: List[Set[int]] = []
    for stripe, time, box in zip(
        requests.stripe_id_array.tolist(),
        requests.request_time_array.tolist(),
        requests.box_id_array.tolist(),
    ):
        servers = possession.servers_for(stripe, time, current_time)
        servers.discard(box)
        neighbourhoods.append(servers)
    num = len(requests)
    limit = num if max_subset_size is None else min(max_subset_size, num)
    for size in range(1, limit + 1):
        for subset in combinations(range(num), size):
            neighbourhood: Set[int] = set()
            for idx in subset:
                neighbourhood |= neighbourhoods[idx]
            if int(slots[list(neighbourhood)].sum()) < size:
                return False, subset
    return True, None
