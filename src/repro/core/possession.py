"""The possession relation ``B(·)`` (Sections 2.2 and 4) and its rows.

:class:`PossessionIndex` holds the static stripe CSR, the relay caches and
the playback-cache download log (:class:`_DownloadLog`), and turns them
into the rows the matching kernel and the incremental repair read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.requests import RequestSet
from repro.core.video import StripeId
from repro.flow.hopcroft_karp import _stable_right_order
from repro.util.validation import check_positive_integer

__all__ = ["NEVER_EXPIRES", "PossessionIndex"]

#: Edge-expiry sentinel for edges that never age out (static replicas and
#: relay caches).  Playback-cache edges expire after ``entry_time + T``.
NEVER_EXPIRES: int = int(np.iinfo(np.int64).max)

_EMPTY_INT64 = np.empty(0, dtype=np.int64)

#: Bits of the round field in the download log's sort key
#: ``(stripe << _KEY_SHIFT) + round``.  Rounds lie in ``[0, 2**31)`` and
#: stripe ids in ``[0, num_stripes)``, far below ``2**32``, so no key
#: leaves int64.  The writer and the queries check both where they enter.
_KEY_SHIFT = 31
_ROUND_LIMIT = 1 << _KEY_SHIFT
_ROUND_MASK = _ROUND_LIMIT - 1


def _check_span(name: str, low: int, high: int, limit: int) -> None:
    """Raise ``ValueError`` unless ``0 <= low`` and ``high < limit``."""
    if low < 0 or high >= limit:
        got = low if low < 0 else high
        raise ValueError(f"{name} must lie in [0, {limit}), got {got}")


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


class _DeltaRows:
    """Cursors over one round's delta rows, from :meth:`PossessionIndex.delta_rows`.

    Row ``i`` lists request ``rows[i]``'s static holders, the newest entries
    of its clipped cache window and its relays, *with* the requester
    ``requesters[i]``, whom a reader skips.  Block ``k`` of row ``i``
    (static, cache, relay) is ``source[starts[k, i]:][:lengths[k, i]]``,
    as :meth:`PossessionIndex._row_blocks` lays it out, and ``keys`` are
    the sort keys of the source's cache edges.  A cursor holds its source
    index and its block's end, so a read costs one gather.
    """

    def __init__(self, requesters, source, starts, lengths, keys, window):
        self.requesters, self._source, self._keys = requesters, source, keys
        self._window = window
        # Block k of row i ends at row position bounds[k, i]; position p
        # in it reads source[bases[k, i] + p].  (A cumsum along the blocks
        # axis would take ten times as long: it loops over the rows.)
        self._bounds = lengths.copy()
        self._bounds[1] += self._bounds[0]
        self._bounds[2] += self._bounds[1]
        self._bases = starts - (self._bounds - lengths)
        start = np.zeros(requesters.size, dtype=np.int64)
        self._base, limit = self._locate(np.arange(requesters.size), start)
        self._at, self._end = self._base.copy(), self._base + limit

    def _locate(self, rows: np.ndarray, pos: np.ndarray):
        block = (pos >= self._bounds[0, rows]).astype(np.intp)
        block += pos >= self._bounds[1, rows]
        return self._bases[block, rows], self._bounds[block, rows]

    def live(self, rows: np.ndarray) -> np.ndarray:
        """The rows whose cursor still points at an edge."""
        return rows[self._at[rows] < self._end[rows]]

    def heads(self, rows: np.ndarray) -> np.ndarray:
        """The box under each live row's cursor."""
        return self._source[self._at[rows]]

    def step(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Move the rows' cursors one edge on; returns the live ones and their heads."""
        at = self._at[rows] + 1
        self._at[rows] = at
        done = at >= self._end[rows]
        if done.any():
            crossed = rows[done]
            pos = at[done] - self._base[crossed]
            base, limit = self._locate(crossed, pos)
            self._base[crossed], self._at[crossed], self._end[crossed] = (
                base, base + pos, base + limit
            )
            rows = self.live(rows)
            at = self._at[rows]
        return rows, self._source[at]

    def expiries(self, rows: np.ndarray) -> np.ndarray:
        """Expiry of the edges under the cursors (cache edges come first)."""
        at = self._at[rows]
        expiry = np.full(rows.size, NEVER_EXPIRES, dtype=np.int64)
        cached = at < self._keys.size
        expiry[cached] = (self._keys[at[cached]] & _ROUND_MASK) + self._window
        return expiry


class _DownloadLog:
    """Global time-ordered playback-cache log, struct-of-arrays.

    :meth:`extend` is the only writer.  It appends one round's block of
    ``(stripe, box)`` entries and rejects a round earlier than the last
    live entry, so the live segment is always sorted by time and
    eviction advances a head offset in O(expired).  Adjacency queries go
    through a per-generation *sorted view* (stable-sorted by stripe,
    hence sorted by ``(stripe, time, arrival)``) of two columns: each
    entry's sort key ``(stripe << _KEY_SHIFT) + time`` and its box.  The
    whole round's playback-cache gather is then a pair of ``searchsorted``
    calls into the keys.
    """

    __slots__ = (
        "stripes",
        "boxes",
        "times",
        "head",
        "tail",
        "_view_keys",
        "_view_boxes",
        "_view_stale",
        "_append_total",
        "_view_append_total",
        "_evict_horizon",
    )

    def __init__(self):
        self.stripes = np.empty(64, dtype=np.int64)
        self.boxes = np.empty(64, dtype=np.int64)
        self.times = np.empty(64, dtype=np.int64)
        self.head = 0
        self.tail = 0
        self._reset_view()

    def _reset_view(self) -> None:
        self._view_keys: np.ndarray = _EMPTY_INT64
        self._view_boxes: np.ndarray = _EMPTY_INT64
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

    def sorted_view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Live entries stable-sorted by stripe: ``(keys, boxes)``.

        ``keys >> _KEY_SHIFT`` is an entry's stripe and ``keys & _ROUND_MASK``
        its round.  Within a stripe the order is by time then arrival, so
        the keys are sorted.
        """
        if self._view_stale:
            if not self._patch_view_incremental():
                live = slice(self.head, self.tail)
                self._view_keys, self._view_boxes = self._sorted_block(live)
            self._view_append_total = self._append_total
            self._evict_horizon = None
            self._view_stale = False
        return self._view_keys, self._view_boxes

    def _sorted_block(self, block: slice) -> Tuple[np.ndarray, np.ndarray]:
        """A block of the log stable-sorted by stripe, as view columns."""
        stripes = self.stripes[block]
        order = _stable_right_order(stripes)
        keys = stripes[order] << _KEY_SHIFT
        keys += self.times[block][order]
        return keys, self.boxes[block][order]

    def _patch_view_incremental(self) -> bool:
        """Rebuild the sorted view from the previous one plus the delta.

        Head evictions map to a round filter on the cached view, and the
        entries appended since the last build sit at the tail with times
        no earlier than any cached entry, so one ``searchsorted`` of their
        keys places each new entry after its stripe's existing run.
        Returns ``False`` (caller does a full rebuild) whenever the cached
        view cannot be proven to match the live segment exactly.
        """
        if self._view_append_total < 0:
            return False
        new_k = self._append_total - self._view_append_total
        live_n = self.tail - self.head
        if new_k < 0 or new_k > live_n:
            return False
        old_k, old_b = self._view_keys, self._view_boxes
        if self._evict_horizon is not None:
            keep = (old_k & _ROUND_MASK) >= self._evict_horizon
            old_k, old_b = old_k[keep], old_b[keep]
        if old_k.size + new_k != live_n:
            return False
        if new_k:
            add_k, add_b = self._sorted_block(slice(self.tail - new_k, self.tail))
            idx = np.searchsorted(old_k, add_k, side="right")
            idx += np.arange(new_k, dtype=np.int64)
            old_slots = np.ones(live_n, dtype=bool)
            old_slots[idx] = False
            merged = []
            for old, add in ((old_k, add_k), (old_b, add_b)):
                column = np.empty(live_n, dtype=np.int64)
                column[idx] = add
                column[old_slots] = old
                merged.append(column)
            old_k, old_b = merged
        self._view_keys, self._view_boxes = old_k, old_b
        return True


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
    :meth:`adjacency_for` emits the round's bipartite adjacency as CSR
    arrays, which the Hopcroft–Karp matching kernel consumes, and
    :meth:`adjacency_delta_for` the same CSR of any rows with per-edge
    expiries; the incremental repair's greedy reads the heads of its
    delta rows on demand through :meth:`delta_rows`.  All read one block
    layout: per row, the static holders, then the playback-cache window,
    then the relays.

    Every query — :meth:`adjacency_for`, :meth:`adjacency_delta_for`,
    :meth:`delta_rows`, :meth:`row_with_expiry`, :meth:`servers_for` —
    reads the same recorded state, so a subclass changes possession by
    changing what it records, never by overriding one query.
    :meth:`record_downloads` is the one download writer to override (the
    sourcing-only baseline records nothing); :meth:`record_download`
    calls it.
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
        box id outside the population, a round outside the sort key or
        unequal lengths raise ``ValueError`` before anything is written.
        """
        stripe_ids = np.asarray(stripe_ids, dtype=np.int64)
        box_ids = np.asarray(box_ids, dtype=np.int64)
        if stripe_ids.shape != box_ids.shape:
            raise ValueError("stripe_ids and box_ids must have equal lengths")
        time = int(time)
        _check_span("round", time, time, _ROUND_LIMIT)
        if stripe_ids.size:
            self._check_stripes(int(stripe_ids.min()), int(stripe_ids.max()))
            self._check_boxes(int(box_ids.min()), int(box_ids.max()))
        self._log.extend(stripe_ids, box_ids, time)

    def record_relay_cache(self, stripe_id: StripeId, box_id: int) -> None:
        """Record that ``box_id`` relay-caches ``stripe_id`` for a poor box.

        A stripe id outside the catalog or a box id outside the population
        raises ``ValueError`` before anything is written.
        """
        stripe_id, box_id = int(stripe_id), int(box_id)
        self._check_stripes(stripe_id, stripe_id)
        self._check_boxes(box_id, box_id)
        self._relays.setdefault(stripe_id, set()).add(box_id)
        self._relay_arrays.pop(stripe_id, None)

    def evict_before(self, current_time: int) -> None:
        """Drop cache entries older than ``current_time − T``."""
        self._log.evict_before(current_time - self._window)

    # ------------------------------------------------------------------ #
    # Possession queries
    # ------------------------------------------------------------------ #
    def _check_stripes(self, low: int, high: int) -> None:
        _check_span("stripe ids", low, high, self._allocation.num_stripes)

    def _check_boxes(self, low: int, high: int) -> None:
        _check_span("box ids", low, high, self._allocation.num_boxes)

    def _check_one_request(
        self, stripe_id: int, request_time: int, current_time: int
    ) -> None:
        self._check_stripes(stripe_id, stripe_id)
        _check_span("request rounds", request_time, request_time, _ROUND_LIMIT)
        _check_span("current_time", current_time, current_time, _ROUND_LIMIT)

    def _static_block(self, stripe_id: int) -> np.ndarray:
        return self._static_boxes[
            self._static_indptr[stripe_id]: self._static_indptr[stripe_id + 1]
        ]

    def static_servers(self, stripe_id: StripeId) -> np.ndarray:
        """Sorted distinct boxes statically holding ``stripe_id`` (CSR slice).

        A stripe id outside the catalog raises ``ValueError``.
        """
        stripe_id = int(stripe_id)
        self._check_stripes(stripe_id, stripe_id)
        return self._static_block(stripe_id)

    def _cache_slice(
        self, stripe_id: int, request_time: int, current_time: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Playback-cache servers and their entry rounds for one checked request."""
        if not len(self._log):
            return _EMPTY_INT64, _EMPTY_INT64
        keys, boxes = self._log.sorted_view()
        base = stripe_id << _KEY_SHIFT
        lo = int(np.searchsorted(keys, base + max(current_time - self._window, 0)))
        hi = int(np.searchsorted(keys, base + request_time))
        return boxes[lo:hi], keys[lo:hi] & _ROUND_MASK

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
        """Boxes able to serve ``stripe_id`` from their playback cache.

        A stripe id outside the catalog or a round outside ``[0, 2**31)``
        raises ``ValueError``.
        """
        stripe_id, request_time = int(stripe_id), int(request_time)
        self._check_one_request(stripe_id, request_time, current_time)
        boxes, _ = self._cache_slice(stripe_id, request_time, current_time)
        return set(boxes.tolist())

    def servers_for(
        self, stripe_id: StripeId, request_time: int, current_time: int
    ) -> Set[int]:
        """The neighbourhood ``B(x)`` of a request in the bipartite graph ``G``.

        The request is for ``stripe_id``, issued at round ``request_time``;
        the requesting box itself is not excluded.  A stripe id outside
        the catalog or a round outside ``[0, 2**31)`` raises ``ValueError``.
        """
        stripe_id, request_time = int(stripe_id), int(request_time)
        self._check_one_request(stripe_id, request_time, current_time)
        servers: Set[int] = set(self._static_block(stripe_id).tolist())
        servers |= self._relays.get(stripe_id, set())
        boxes, _ = self._cache_slice(stripe_id, request_time, current_time)
        servers.update(boxes.tolist())
        return servers

    def _cache_windows(
        self, stripes: np.ndarray, times: np.ndarray, current_time: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-request playback-cache windows into the log's sorted view.

        Returns ``(sorted_keys, sorted_boxes, win_lo, win_hi)`` where
        ``[win_lo[i], win_hi[i])`` slices request ``i``'s cache window —
        entries of its stripe with time in ``[current_time − T,
        request_time)`` — found in the view's sort keys.  The needles are
        searched in key order, so each search starts where the last ended,
        and the bounds are scattered back to request order.
        """
        keys, boxes = self._log.sorted_view()
        horizon = max(current_time - self._window, 0)
        base = stripes << _KEY_SHIFT
        upper = base + times
        # Sorting the upper needles sorts them by stripe, so the lower
        # needles, all the same round past their stripe's base, follow.
        order = np.argsort(upper)
        win_lo = np.empty(stripes.size, dtype=np.int64)
        win_hi = np.empty(stripes.size, dtype=np.int64)
        win_lo[order] = np.searchsorted(keys, base[order] + horizon)
        win_hi[order] = np.searchsorted(keys, upper[order])
        return keys, boxes, win_lo, win_hi

    def _check_requests(
        self, stripes: np.ndarray, times: np.ndarray, current_time: int
    ) -> None:
        self._check_stripes(int(stripes.min()), int(stripes.max()))
        _check_span("request rounds", int(times.min()), int(times.max()), _ROUND_LIMIT)
        _check_span("current_time", current_time, current_time, _ROUND_LIMIT)

    def _row_blocks(
        self,
        stripes: np.ndarray,
        times: np.ndarray,
        current_time: int,
        max_cache_edges: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The block layout of a batch of rows: static, cache, relay.

        Row ``i``, the request for ``stripes[i]`` issued at ``times[i]``,
        is its stripe's static holders, its playback-cache window (oldest
        entry first; with ``max_cache_edges``, only the newest that-many
        entries) and its stripe's relays, requester kept.  Returns
        ``(source, starts, lengths, cache_keys)``: block ``k`` of row ``i``
        is ``source[starts[k, i]:][:lengths[k, i]]``.  The source is the
        download log's sorted view, then the rows' static blocks copied
        from the static CSR, then one relay array per distinct relayed
        stripe.  Source entry ``j`` is a cache edge exactly when ``j <
        cache_keys.size``, and entered the cache at round ``cache_keys[j]
        & _ROUND_MASK``.  This is the one place that orders a batched row
        or clips its cache block.
        """
        starts = np.zeros((3, stripes.size), dtype=np.int64)
        lengths = np.zeros((3, stripes.size), dtype=np.int64)
        # An empty log (the sourcing-only baseline) gives empty windows.
        cache_keys, cache_boxes, win_lo, win_hi = self._cache_windows(
            stripes, times, current_time
        )
        if max_cache_edges is not None:
            win_lo = np.maximum(win_lo, win_hi - max_cache_edges)
        starts[1] = win_lo
        np.maximum(win_hi - win_lo, 0, out=lengths[1])
        first = self._static_indptr[stripes]
        lengths[0] = self._static_indptr[stripes + 1] - first
        static = self._static_boxes[_concat_ranges(first, lengths[0])]
        starts[0] = cache_boxes.size + np.cumsum(lengths[0]) - lengths[0]
        relay_blocks: List[np.ndarray] = []
        if self._relays:
            relayed = np.fromiter(self._relays, dtype=np.int64, count=len(self._relays))
            held = np.flatnonzero(np.isin(stripes, relayed))
            distinct, inverse = np.unique(stripes[held], return_inverse=True)
            relay_blocks = [self._relay_array(s) for s in distinct.tolist()]
            sizes = np.array([block.size for block in relay_blocks], dtype=np.int64)
            offsets = cache_boxes.size + static.size + np.cumsum(sizes) - sizes
            starts[2, held], lengths[2, held] = offsets[inverse], sizes[inverse]
        source = np.concatenate([cache_boxes, static] + relay_blocks)
        return source, starts, lengths, cache_keys

    def delta_rows(
        self,
        requests: RequestSet,
        current_time: int,
        rows: Sequence[int],
        max_cache_edges: int,
    ) -> _DeltaRows:
        """A reader over the rows of requests ``rows``, for the repair greedy.

        Row ``i`` is :meth:`row_with_expiry` of request ``rows[i]`` with the
        requester kept and the cache block clipped to its *newest*
        ``max_cache_edges`` entries, which expire last.  Clipped rows are
        **incomplete**: never valid for an exact solve.  Only the static
        and relay blocks are copied; cache edges are read from the log's
        sorted view.  Malformed stripes or rounds raise ``ValueError``, as
        in :meth:`adjacency_delta_for`, before anything is read.
        """
        rows = np.asarray(rows, dtype=np.int64)
        stripes = requests.stripe_id_array[rows]
        times = requests.request_time_array[rows]
        if rows.size:
            self._check_requests(stripes, times, current_time)
        return _DeltaRows(
            requests.box_id_array[rows],
            *self._row_blocks(stripes, times, current_time, max_cache_edges),
            self._window,
        )

    def _gather_csr(
        self, requests: RequestSet, current_time: int, with_expiry: bool
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The CSR of :meth:`adjacency_delta_for` and :meth:`adjacency_for`.

        One gather reads every row's blocks of :meth:`_row_blocks`, in row
        order; only cache edges expire; the requester's entries are dropped.
        The expiry column is built only ``with_expiry`` (else ``None``).
        """
        stripes = requests.stripe_id_array
        num = int(stripes.size)
        if num == 0:
            return np.zeros(1, dtype=np.int64), _EMPTY_INT64, _EMPTY_INT64
        times = requests.request_time_array
        self._check_requests(stripes, times, current_time)
        source, starts, lengths, cache_keys = self._row_blocks(
            stripes, times, current_time
        )
        at = _concat_ranges(starts.T.ravel(), lengths.T.ravel())
        indices = source[at]
        expiry = None
        if with_expiry:
            expiry = np.full(source.size, NEVER_EXPIRES, dtype=np.int64)
            expiry[: cache_keys.size] = (cache_keys & _ROUND_MASK) + self._window
            expiry = expiry[at]
        row_len = lengths.sum(axis=0)
        indptr = np.zeros(num + 1, dtype=np.int64)
        np.cumsum(row_len, out=indptr[1:])
        own = indices == np.repeat(requests.box_id_array, row_len)
        dropped = np.flatnonzero(own)
        if dropped.size:
            # Each row boundary moves back by the requester entries before it.
            indptr -= np.searchsorted(dropped, indptr)
            kept = ~own
            indices = indices[kept]
            if with_expiry:
                expiry = expiry[kept]
        return indptr, indices, expiry

    def adjacency_for(
        self, requests: RequestSet, current_time: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency (requests → candidate server boxes) for one round.

        Row ``i`` lists the boxes that possess the data of ``requests[i]``,
        excluding the requesting box itself.  Rows may contain duplicates
        (a box can hold a stripe statically *and* cache it); the matching
        kernels tolerate them.  It is :meth:`adjacency_delta_for` without
        the expiry column, which it never builds: the kernel's gather and
        the cold Dinic twin take this one, and the matcher looks up the
        expiries of only the pairs the kernel made through
        :meth:`adjacency_delta_for`.
        """
        indptr, indices, _ = self._gather_csr(requests, current_time, False)
        return indptr, indices

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
        raises ``ValueError``.  It is the scalar twin of one row of
        :meth:`adjacency_delta_for`, and the reference the tests compare
        that CSR against.
        """
        stripe_id, request_time = int(stripe_id), int(request_time)
        self._check_one_request(stripe_id, request_time, current_time)
        static = self._static_block(stripe_id)
        cache_boxes, cache_times = self._cache_slice(
            stripe_id, request_time, current_time
        )
        boxes = np.concatenate((static, cache_boxes, self._relay_array(stripe_id)))
        expiry = np.full(boxes.size, NEVER_EXPIRES, dtype=np.int64)
        expiry[static.size: static.size + cache_times.size] = cache_times + self._window
        if exclude_self:
            kept = boxes != box_id
            boxes, expiry = boxes[kept], expiry[kept]
        return boxes, expiry

    def adjacency_delta_for(
        self, requests: RequestSet, current_time: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The round's CSR adjacency with per-edge expiries.

        The result is ``(indptr, indices, expiry)`` over every request,
        where row ``i`` is :meth:`row_with_expiry` of ``requests[i]``: its
        static holders, its playback-cache window and its relays, without
        the requester, and ``expiry[e]`` is the last round edge ``e``
        remains valid (:data:`NEVER_EXPIRES` for static/relay edges,
        ``entry_time + T`` for playback-cache edges).  The matcher calls
        it on a request set of just the rows whose pair the full kernel
        made, and takes each pair's latest edge expiry as the pair's
        expiry; the kernel itself solves on :meth:`adjacency_for`.

        A stripe id outside the catalog or a round outside ``[0, 2**31)``
        raises ``ValueError`` before anything is gathered.
        """
        return self._gather_csr(requests, current_time, True)
