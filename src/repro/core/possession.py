"""The possession relation ``B(·)`` (Sections 2.2 and 4) and its rows.

:class:`PossessionIndex` holds each part of the relation once — the static
stripe CSR, the relay sets and the playback-cache download log
(:class:`_DownloadLog`, two key-sorted columns) — and turns them into the
rows the matching kernel and the incremental repair read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.requests import RequestSet
from repro.core.video import StripeId
from repro.util.soa import stable_argsort
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


def _cache_bounds(keys: np.ndarray, stripe: int, request_time: int, horizon: int):
    """``(lo, hi)``: one request's playback-cache window in the log's sort keys.

    ``keys[lo:hi]`` are the entries of ``stripe`` with round in ``[horizon,
    request_time)``, as :meth:`PossessionIndex._cache_windows` finds them
    for a batch.
    """
    base = stripe << _KEY_SHIFT
    return keys.searchsorted(base + horizon), keys.searchsorted(base + request_time)


def _int_array(boxes) -> np.ndarray:
    """A collection of box ids as an int64 array, in its iteration order."""
    return np.fromiter(boxes, dtype=np.int64, count=len(boxes))


def _request_blocks(index: PossessionIndex, view, horizon: int, stripe: int, time: int):
    """One request's row blocks from the index: ``(static, cache, lo, relays)``.

    The row is ``static``, the stripe's slice of the static CSR, then
    ``cache``, its playback-cache window oldest entry first (entries
    ``lo`` on of the log's sorted ``view``, whose keys date them; see
    :func:`_cache_bounds`), then ``relays``, the stripe's relay set in its
    own iteration order, as :meth:`PossessionIndex._relay_array` reads it
    (``()`` when none), with the requester kept: one row of
    :meth:`PossessionIndex._row_blocks`, unclipped.  The one scalar copy
    of that order: every row built alone, for the kernel, the exact
    searches or :meth:`PossessionIndex.row_with_expiry`, reads it.
    """
    indptr = index._static_indptr
    static = index._static_boxes[indptr.item(stripe):indptr.item(stripe + 1)]
    keys, boxes = view
    lo, hi = _cache_bounds(keys, stripe, time, horizon)
    return static, boxes[lo:hi], lo, index._relays.get(stripe, ())


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


#: A kernel round's row source builds its first ``len(requests) >>
#: _LAYOUT_SHIFT`` rows one at a time, then lays out every row at its next
#: miss, or at once when ``heads`` asks about more rows than that.  On one
#: core of a 2-CPU host a row built alone costs 3.4–4.0 µs (5.5–6.2 µs on
#: ``flashcrowd_50k``'s long rows), one cut from the layout 1.3–2.3 µs
#: (4.2–4.7 µs), and the layout 0.2 µs a row, so a round that touches
#: less than about a tenth of its rows is cheaper built alone.  The budget
#: sits below that because a round that touches every row pays it on top
#: of the layout: the cold-start rounds near u' = 1 (80,000 rows, 18
#: ``heads`` lefts) read 11–13 ms slower than laid out at once with a
#: 16th, 6–10 ms with a 32nd and 1–3 ms with a 64th.  A 32nd is the
#: smallest budget at which no ``churn_20k`` call lays its round out
#: (they touch 0.8% of the rows in the median, 2.6% at most; a 64th lays
#: out 5 of 70); a 16th would save ``flashcrowd_50k`` 5 ms more a 2.2 s
#: loop.
_LAYOUT_SHIFT = 5


#: The longest row :meth:`_KernelRows.first_fit` converts: a row of at
#: most this many entries is converted, cached and scanned as a list, a
#: longer one is scanned on its arrays and left unconverted.  On one core
#: of a 2-CPU host a row slice's array scan costs 0.6–1.3 µs whatever its
#: length (2 to 461 entries), and converting it and scanning the list to
#: its end against the kernel's free slots 0.1 µs plus 0.03 µs an entry:
#: the two meet near 16 entries.  A row without room is walked by the
#: searches, which then find it converted: one the source builds from the
#: index costs them about 3.5 µs more, so rows up to twice that length
#: are converted.  The greedy's rows hold 4 entries in the median on
#: ``churn_20k`` (2,669 of 2,679 without room at seed 7) and 182 to 764
#: (tenth to ninetieth percentile, every one with room) on
#: ``flashcrowd_50k``, whose long playback-cache windows it reads only up
#: to the first box with room.
_LIST_SCAN_MAX = 32


def _first_in_blocks(blocks, requester: int, room: np.ndarray) -> int:
    """The first entry of ``blocks``, in order, with ``room`` that is not the requester.

    ``blocks`` are int64 arrays, ``room`` a boolean mask over the boxes;
    ``-1`` when no entry qualifies.  A block costs one gather and one
    ``argmax``: on a short row a comparison ufunc would cost more than
    both together.
    """
    for block in blocks:
        if block.size:
            hits = room[block]
            k = hits.argmax()
            while hits[k]:
                j = block.item(k)
                if j != requester:
                    return j
                hits[k] = False  # the requester's own entry
                k = hits.argmax()
    return -1


class _KernelRows(dict):
    """A round's rows for the full kernel, from :meth:`PossessionIndex.kernel_rows`.

    The row source the kernel's seeded entry
    :func:`repro.flow.hopcroft_karp.hopcroft_karp_rows` reads in every
    kernel round: ``rows[i]`` is row ``i`` of
    :meth:`PossessionIndex.adjacency_for` as a Python list with every
    requester entry dropped, built on first touch and cached.  The first
    ``len(requests) >> _LAYOUT_SHIFT`` rows are built one at a time from
    the index (:func:`_request_blocks`: the static CSR slice, the cache
    window found by two searches in the download log's sorted view, and
    the relays).  The next miss lays out every row's blocks
    (:meth:`PossessionIndex._row_blocks`, as for :class:`_DeltaRows`), and
    that row and every later one is cut from the layout.
    ``heads(lefts)`` gives each row's first entry that is not the
    requester, ``-1`` for a row left empty, without converting a row: it
    lays out only ``lefts`` until the round is laid out, and lays out the
    round when asked about more rows than the source still builds alone.
    ``first_fit(i, spare, room)``, which the kernel's sequential greedy
    asks, gives row ``i``'s first box with a free slot: on a long row's
    arrays, without converting it either, and on a short one converted as
    a miss would.
    Rows are built from the index as it stands, so the source serves one
    kernel call.
    """

    __slots__ = (
        "_index", "_stripes", "_times", "_requesters", "_time", "_horizon",
        "_view", "_budget", "_layout", "_spans",
    )

    def __init__(self, index: PossessionIndex, requests: RequestSet, current_time: int):
        super().__init__()
        self._index, self._time = index, current_time
        self._stripes = requests.stripe_id_array
        self._times = requests.request_time_array
        self._requesters = requests.box_id_array
        self._horizon = max(current_time - index._window, 0)
        self._view = index._log.sorted_view()
        self._budget = len(requests) >> _LAYOUT_SHIFT
        # The round's block layout and span table, once laid out.
        self._layout = self._spans = None

    def __missing__(self, i) -> List[int]:
        return self._convert(i)

    def _convert(self, i, blocks=None) -> List[int]:
        """Row ``i`` as a list, cached: built alone (from ``blocks``, when
        already read) while the budget lasts, else cut from the layout."""
        spans = self._spans
        if spans is None:
            if self._budget:
                self._budget -= 1
                row = self[i] = self._build(i, blocks)
                return row
            self._lay_out()
            spans = self._spans
        source = self._layout[0]
        s0, s1, s2, e0, e1, e2, requester = spans[i].tolist()
        row = source[s0:e0].tolist()
        if e1 > s1:
            row += source[s1:e1].tolist()
        if e2 > s2:
            row += source[s2:e2].tolist()
        if requester in row:
            row = [j for j in row if j != requester]
        self[i] = row
        return row

    def _blocks(self, i):
        """Row ``i``'s blocks from the index alone (:func:`_request_blocks`)."""
        return _request_blocks(
            self._index, self._view, self._horizon,
            self._stripes.item(i), self._times.item(i),
        )

    def _build(self, i, blocks=None) -> List[int]:
        """Row ``i`` from the index alone, in :meth:`_row_blocks`' order."""
        static, cache, _, relays = self._blocks(i) if blocks is None else blocks
        row = static.tolist()
        if cache.size:
            row += cache.tolist()
        if relays:
            row += relays
        requester = self._requesters.item(i)
        if requester in row:
            row = [j for j in row if j != requester]
        return row

    def first_fit(self, i, spare, room: np.ndarray) -> int:
        """Row ``i``'s first box ``j`` with ``spare[j]`` free slots, ``-1`` if none.

        ``room`` is the boolean mask of the boxes with a free slot.  A row
        longer than :data:`_LIST_SCAN_MAX` entries is scanned against it on
        its arrays and stays unconverted: its slices of the layout once the
        round is laid out, else its blocks from the index.  Any other row
        is converted as a miss converts it, from the blocks already read,
        and scanned as a list against ``spare``.
        """
        row = self.get(i)
        if row is None:
            blocks = None
            if self._spans is None:
                blocks = static, cache, _, relays = self._blocks(i)
                if static.size + cache.size + len(relays) > _LIST_SCAN_MAX:
                    arrays = (static, cache)
                    if relays:
                        arrays += (_int_array(relays),)
                    return _first_in_blocks(arrays, self._requesters.item(i), room)
            else:
                s0, s1, s2, e0, e1, e2, requester = self._spans[i].tolist()
                if e0 - s0 + e1 - s1 + e2 - s2 > _LIST_SCAN_MAX:
                    source = self._layout[0]
                    arrays = (source[s0:e0], source[s1:e1], source[s2:e2])
                    return _first_in_blocks(arrays, requester, room)
            row = self._convert(i, blocks)
        for j in row:
            if spare[j]:
                return j
        return -1

    def _lay_out(self) -> None:
        self._layout = self._index._row_blocks(self._stripes, self._times, self._time)
        _, starts, lengths, _ = self._layout
        # Block k of row i is source[spans[i, k]:spans[i, k + 3]], and
        # spans[i, 6] is its requester: one ``tolist`` reads a row's all.
        self._spans = np.concatenate((starts, starts + lengths, self._requesters[None])).T

    def heads(self, lefts: np.ndarray) -> np.ndarray:
        """Each row's first entry that is not the requester, ``-1`` if none."""
        window = self._index._window
        if self._spans is None and lefts.size > self._budget:
            self._lay_out()
        if self._spans is None:
            blocks = self._index._row_blocks(
                self._stripes[lefts], self._times[lefts], self._time
            )
        else:
            source, starts, lengths, keys = self._layout
            blocks = (source, starts[:, lefts], lengths[:, lefts], keys)
        reader = _DeltaRows(self._requesters[lefts], *blocks, window)
        heads = np.full(lefts.size, -1, dtype=np.int64)
        rows = reader.live(np.arange(lefts.size))
        head = reader.heads(rows)
        while rows.size:
            own = head == reader.requesters[rows]
            heads[rows[~own]] = head[~own]
            rows, head = reader.step(rows[own])
        return heads


class _SearchRows(dict):
    """A round's rows for the repair's exact searches, from :meth:`PossessionIndex.search_rows`.

    Row ``i`` is :meth:`PossessionIndex.row_with_expiry` of request ``i``:
    its blocks (:func:`_request_blocks`) without the requester's entries.
    ``array(i)`` checks the request as ``row_with_expiry`` does, builds
    the row from the index as an int64 array and caches it; ``rows[i]``
    is the same row as a list, converted from the array on first touch
    and cached; ``expiry(i, e)`` is the last round edge ``e`` of a built
    row stays valid, resolved only when asked.  A search tests a row for
    a free box on its array and walks only the rows it pops as lists.
    Rows are built from the index as it stands, so the source serves one
    repair call.
    """

    __slots__ = (
        "_index", "_stripes", "_times", "_requesters", "_time", "_horizon",
        "_view", "_built",
    )

    def __init__(self, index: PossessionIndex, requests: RequestSet, current_time: int):
        super().__init__()
        self._index, self._time = index, current_time
        self._stripes = requests.stripe_id_array
        self._times = requests.request_time_array
        self._requesters = requests.box_id_array
        self._horizon = max(current_time - index._window, 0)
        self._view = index._log.sorted_view()
        # Per built row: (boxes, kept mask or None, static size, lo, cache size).
        self._built: Dict[int, tuple] = {}

    def __missing__(self, i) -> List[int]:
        row = self[i] = self.array(i).tolist()
        return row

    def array(self, i) -> np.ndarray:
        """Row ``i`` as an int64 array, built on the first call."""
        built = self._built.get(i)
        if built is None:
            built = self._built[i] = self._build(i)
        return built[0]

    def _build(self, i) -> tuple:
        stripe, time = self._stripes.item(i), self._times.item(i)
        self._index._check_one_request(stripe, time, self._time)
        static, cache, lo, relays = _request_blocks(
            self._index, self._view, self._horizon, stripe, time
        )
        if relays:
            boxes = np.concatenate((static, cache, _int_array(relays)))
        elif cache.size:
            boxes = np.concatenate((static, cache))
        else:
            boxes = static
        kept = None
        if boxes.size:
            kept = boxes != self._requesters.item(i)
            # ``argmin`` finds a dropped entry for less than ``all`` costs.
            if kept[kept.argmin()]:
                kept = None
            else:
                boxes = boxes[kept]
        return boxes, kept, static.size, lo, cache.size

    def expiry(self, i, e: int) -> int:
        """The expiry of edge ``e`` of row ``i``, a row already built."""
        _, kept, first, lo, count = self._built[i]
        if kept is not None:
            e = int(np.flatnonzero(kept)[e])
        e -= first
        if 0 <= e < count:
            return (self._view[0].item(lo + e) & _ROUND_MASK) + self._index._window
        return NEVER_EXPIRES


class _DownloadLog:
    """The playback-cache download log: two key-sorted columns.

    Entry ``j`` is a download of stripe ``keys[j] >> _KEY_SHIFT`` at round
    ``keys[j] & _ROUND_MASK`` by box ``boxes[j]``, and the columns are
    sorted by ``(stripe, round, arrival)``, so the keys are sorted and a
    whole round's playback-cache gather is a pair of ``searchsorted``
    calls into them.  :meth:`extend`, the only writer, queues a round's
    block and rejects a round earlier than the newest live entry's;
    :meth:`evict_before` drops the queued blocks older than its horizon
    and records the horizon.  :meth:`sorted_view` folds both into the
    columns before a query reads them: a round filter, and one merge of
    the queued entries, sorted on their own.  The columns are the
    pickled state.
    """

    __slots__ = ("_keys", "_boxes", "_blocks", "_horizon", "_latest")

    def __init__(self):
        self._keys: np.ndarray = _EMPTY_INT64
        self._boxes: np.ndarray = _EMPTY_INT64
        # Queued (keys, boxes) blocks in arrival order, one round each.
        self._blocks: List[Tuple[np.ndarray, np.ndarray]] = []
        # The columns' entries of an earlier round than this are evicted.
        self._horizon = 0
        # The newest live entry's round (-1 when the log is empty).
        self._latest = -1

    def __len__(self) -> int:
        return self.sorted_view()[0].size

    def __getstate__(self):
        return self.sorted_view()

    def __setstate__(self, state):
        self.__init__()
        self._keys, self._boxes = state
        if self._keys.size:
            self._latest = int((self._keys & _ROUND_MASK).max())

    def extend(self, stripes: np.ndarray, boxes: np.ndarray, time: int) -> None:
        """Queue one round's block of entries, all dated ``time``."""
        if time < self._latest:
            raise ValueError(
                f"download round {time} precedes the log's last entry "
                f"(round {self._latest})"
            )
        if stripes.size:
            keys = stripes << _KEY_SHIFT
            keys += time
            self._blocks.append((keys, boxes.copy()))
            self._latest = time

    def evict_before(self, horizon: int) -> None:
        """Drop every live entry with time < ``horizon``."""
        self._blocks = [b for b in self._blocks if (b[0][0] & _ROUND_MASK) >= horizon]
        self._horizon = max(self._horizon, horizon)
        if horizon > self._latest:
            self._latest = -1

    def sorted_view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Live entries stable-sorted by stripe: ``(keys, boxes)``.

        ``keys >> _KEY_SHIFT`` is an entry's stripe and ``keys & _ROUND_MASK``
        its round.  Within a stripe the order is by time then arrival, so
        the keys are sorted.  Queued entries are no earlier than any entry
        of the columns, so a stable sort of them by stripe and one
        ``searchsorted`` of their keys place each after its stripe's run.
        """
        keys, boxes = self._keys, self._boxes
        if self._horizon:
            keep = (keys & _ROUND_MASK) >= self._horizon
            keys, boxes = keys[keep], boxes[keep]
            self._horizon = 0
        if self._blocks:
            add_k = np.concatenate([k for k, _ in self._blocks])
            add_b = np.concatenate([b for _, b in self._blocks])
            self._blocks = []
            order = stable_argsort(add_k >> _KEY_SHIFT)
            add_k, add_b = add_k[order], add_b[order]
            at = np.searchsorted(keys, add_k, side="right")
            at += np.arange(at.size)
            kept = np.ones(keys.size + at.size, dtype=bool)
            kept[at] = False
            merged = []
            for old, add in ((keys, add_k), (boxes, add_b)):
                column = np.empty(kept.size, dtype=np.int64)
                column[at] = add
                column[kept] = old
                merged.append(column)
            keys, boxes = merged
        self._keys, self._boxes = keys, boxes
        return keys, boxes


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
    allocation as a CSR (``indptr``/``indices``) index, the relays are
    one set of boxes per stripe, and the playback caches live in one
    download log kept as two key-sorted columns, into which each round's
    writes and evictions are folded before a query reads them.  The batched
    :meth:`adjacency_for` emits the round's bipartite adjacency as CSR
    arrays, which the cold solvers (the Dinic twin, the oracle) consume,
    and :meth:`adjacency_delta_for` the same CSR of any rows with
    per-edge expiries, from which the matcher looks up pair expiries.
    :meth:`kernel_rows` serves the same rows to every Hopcroft–Karp
    kernel round without gathering them: the heads of the rows the
    kernel asks about in one array step, a long row's first box with room
    on its arrays, and a row as a list, built from the index, when the
    kernel first walks it; only a round whose searches touch a fixed
    share of its rows is laid out whole.  The incremental repair's
    greedy reads the heads of its delta rows on demand through
    :meth:`delta_rows`, and its exact searches read rows through
    :meth:`search_rows`, built from the index as arrays and converted
    to lists only when walked.  All read one block order: per row, the
    static holders, then the playback-cache window, then the relays; a
    row built alone reads it from :func:`_request_blocks`.

    Every query — :meth:`adjacency_for`, :meth:`adjacency_delta_for`,
    :meth:`kernel_rows`, :meth:`delta_rows`, :meth:`search_rows`,
    :meth:`row_with_expiry`, :meth:`servers_for` —
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
        # Key-sorted log of (stripe, round, box) downloads.
        self._log = _DownloadLog()
        # stripe_id -> set of boxes relay-caching it (Section 4).
        self._relays: Dict[int, Set[int]] = {}

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

    def adopt_allocation(self, allocation: Allocation) -> None:
        """Adopt a grown allocation, keeping the downloads and relays.

        The static stripe→boxes index is rebuilt only when the replica
        placement changed (the live ``add_videos`` grows it); a population
        grown around the same ``replica_box`` (``join_boxes``) keeps it.
        Existing downloads keep serving either way.
        """
        old = self._allocation.replica_box
        self._allocation = allocation
        if allocation.replica_box is not old and not np.array_equal(
            allocation.replica_box, old
        ):
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
        keys, boxes = self._log.sorted_view()
        lo, hi = _cache_bounds(
            keys, stripe_id, request_time, max(current_time - self._window, 0)
        )
        return boxes[lo:hi], keys[lo:hi] & _ROUND_MASK

    def _relay_array(self, stripe_id: int) -> np.ndarray:
        return _int_array(self._relays.get(stripe_id, ()))

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

    def kernel_rows(self, requests: RequestSet, current_time: int) -> _KernelRows:
        """The round's rows as the full kernel reads them, gathering no CSR.

        Row ``i`` is row ``i`` of :meth:`adjacency_for`: the blocks of
        :meth:`_row_blocks`, unclipped, without the requester's entries.
        Nothing is laid out up front: a row is built as a list when the
        kernel first walks it, ``first_fit`` reads a long row's arrays
        without converting it, and ``heads`` lays out only the rows it is
        asked about, until the kernel has touched ``len(requests) >>
        _LAYOUT_SHIFT`` rows, or asks ``heads`` about more, and the
        source lays out the whole round (:class:`_KernelRows`).  Every
        kernel round of the matcher solves on it with
        :func:`repro.flow.hopcroft_karp.hopcroft_karp_rows`.  Malformed
        stripes or rounds raise ``ValueError``, as in
        :meth:`adjacency_for`, before anything is read.
        """
        stripes = requests.stripe_id_array
        if stripes.size:
            self._check_requests(stripes, requests.request_time_array, current_time)
        return _KernelRows(self, requests, current_time)

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
        the expiry column, which it never builds: the cold Dinic twin and
        the oracle take this one, every Hopcroft–Karp kernel round reads
        the same rows through :meth:`kernel_rows`, and the matcher looks
        up pair expiries through :meth:`adjacency_delta_for`.
        """
        indptr, indices, _ = self._gather_csr(requests, current_time, False)
        return indptr, indices

    def row_with_expiry(
        self,
        stripe_id: int,
        box_id: int,
        request_time: int,
        current_time: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One request's candidate boxes plus per-edge expiry rounds.

        Parallel int64 arrays of candidate boxes and the last round each
        edge stays valid (:data:`NEVER_EXPIRES` for static and relay
        edges, ``entry_time + T`` for playback-cache edges), without the
        entries of the requester ``box_id``; pass ``-1``, which no row
        holds, for the row with the requester kept.  A stripe id outside
        the catalog or a round outside ``[0, 2**31)`` raises
        ``ValueError``.  It is the scalar twin of one row of
        :meth:`adjacency_delta_for` and of :meth:`search_rows`, built from
        the same blocks as every row built alone, and the reference the
        tests compare the batched and on-demand rows against.
        """
        stripe_id, request_time = int(stripe_id), int(request_time)
        self._check_one_request(stripe_id, request_time, current_time)
        view = self._log.sorted_view()
        static, cache, lo, relays = _request_blocks(
            self, view, max(current_time - self._window, 0), stripe_id, request_time
        )
        boxes = np.concatenate((static, cache, _int_array(relays)))
        expiry = np.full(boxes.size, NEVER_EXPIRES, dtype=np.int64)
        cache_keys = view[0][lo:lo + cache.size]
        expiry[static.size: static.size + cache.size] = (
            (cache_keys & _ROUND_MASK) + self._window
        )
        kept = boxes != box_id
        return boxes[kept], expiry[kept]

    def search_rows(self, requests: RequestSet, current_time: int) -> _SearchRows:
        """The round's rows as the repair's exact searches read them.

        Row ``i`` is :meth:`row_with_expiry` of ``requests[i]``, built from
        the index only when a search first reads it, after the same
        checks (a malformed stripe or round raises ``ValueError`` there):
        as an array for the free-box test, as a list once a search walks
        it, and an edge's expiry only for the pairs a search flips
        (:class:`_SearchRows`).
        """
        return _SearchRows(self, requests, current_time)

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
        it on a request set of just the rows whose pair expiry it looks
        up (a seed without pair expiries, the pairs the full kernel
        made), and takes each pair's latest edge expiry as the pair's
        expiry; the kernel itself solves on :meth:`kernel_rows`.

        A stripe id outside the catalog or a round outside ``[0, 2**31)``
        raises ``ValueError`` before anything is gathered.
        """
        return self._gather_csr(requests, current_time, True)
