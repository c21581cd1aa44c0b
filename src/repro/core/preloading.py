"""The preloading request strategy of Theorem 1 (Section 3).

When the user of box ``b`` demands a video ``v`` during the interval
``[t−1, t[``:

1. a **preloading request** ``(s, t, b)`` for *one* stripe ``s`` of ``v``
   is issued at time ``t``;
2. ``c−1`` **postponed requests** for the remaining stripes are issued at
   time ``t+1``;
3. playback starts at ``t+2`` once all connections are wired — a start-up
   delay of **3 rounds**.

To balance the preloading load, each video keeps a counter of the boxes
entering its swarm; the ``p``-th box preloads stripe number ``p mod c`` so
that all stripes of a video are equally preloaded.  This is the mechanism
that lets a swarm absorb growth ``µ``: boxes that entered one round ago
hold pairwise-distinct preloaded stripes and can re-serve them ``⌊u·c⌋``
times each.

:class:`PreloadingScheduler` turns one round's accepted *demands* into
dated stripe requests, held as arrays; the simulator drains them round by
round.  Every request carries the index of the demand that issued it
(into the engine's demand log), which is how the engine detects playback
starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.video import Catalog
from repro.util.validation import check_non_negative_integer

__all__ = [
    "Demand",
    "PreloadingScheduler",
    "ImmediateRequestScheduler",
    "START_UP_DELAY_ROUNDS",
    "check_video_ids",
]

#: Start-up delay of the homogeneous preloading strategy, in rounds.
START_UP_DELAY_ROUNDS = 3

#: Requests issued in one round, as parallel arrays ``(stripe_ids, box_ids,
#: demand_indices, is_preload)``: stripe, requesting box, index of the
#: demand that issued the request, and its preload flag.
RequestArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_EMPTY = np.empty(0, dtype=np.int64)
NO_REQUESTS: RequestArrays = (_EMPTY, _EMPTY, _EMPTY, np.empty(0, dtype=bool))


def _check_catalog_growth(old: Catalog, new: Catalog) -> Catalog:
    """Validate a live catalog swap: grow-only, same stripe count/duration.

    Global stripe identifiers are ``video_id·c + index``; changing ``c``
    or shrinking the catalog would shift or orphan the identifiers of
    already-queued requests.
    """
    if (
        new.num_stripes_per_video != old.num_stripes_per_video
        or new.duration != old.duration
        or new.num_videos < old.num_videos
    ):
        raise ValueError(
            "update_catalog only supports growing the catalog with the "
            "same stripe count and duration"
        )
    return new


@dataclass(frozen=True, order=True)
class Demand:
    """A user demand: box ``box_id`` wants to play ``video_id`` from round ``time``."""

    time: int
    box_id: int
    video_id: int

    def __post_init__(self) -> None:
        check_non_negative_integer(self.time, "time")
        check_non_negative_integer(self.box_id, "box_id")
        check_non_negative_integer(self.video_id, "video_id")


def check_video_ids(catalog: Catalog, video_ids: np.ndarray) -> None:
    """Raise ``ValueError`` when a demanded video lies outside ``catalog``."""
    if video_ids.size and int(video_ids.max()) >= catalog.num_videos:
        bad = int(video_ids[video_ids >= catalog.num_videos][0])
        raise ValueError(
            f"demand for video {bad} outside catalog of size {catalog.num_videos}"
        )


def preload_indices(
    counter: Dict[int, int], video_ids: np.ndarray, c: int
) -> np.ndarray:
    """Preload stripe index of each arrival (``n ≥ 1``), advancing ``counter``.

    ``counter`` maps a video to the number of boxes that entered its swarm
    so far, and the ``p``-th entrant preloads stripe ``p mod c``.  The
    stable sort keeps arrival order within each video, so the ``j``-th
    arrival of a video this round is entrant ``counter + j`` — what a
    per-demand loop would have counted.
    """
    n = int(video_ids.size)
    order = np.argsort(video_ids, kind="stable")
    sorted_videos = video_ids[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_videos[1:], sorted_videos[:-1], out=starts[1:])
    start_pos = np.flatnonzero(starts)
    counts = np.diff(np.append(start_pos, n))
    base = np.empty(start_pos.size, dtype=np.int64)
    for j, vid in enumerate(sorted_videos[start_pos].tolist()):
        entry = counter.get(vid, 0)
        base[j] = entry
        counter[vid] = entry + int(counts[j])
    entries = np.empty(n, dtype=np.int64)
    entries[order] = base.repeat(counts) + np.arange(n) - np.repeat(start_pos, counts)
    return entries % c


def other_stripes(
    video_ids: np.ndarray, preload_idx: np.ndarray, c: int
) -> np.ndarray:
    """``(n, c−1)`` grid of each demanded video's stripes but its preload one."""
    offsets = np.arange(c, dtype=np.int64)
    grid = video_ids[:, None] * c + offsets[None, :]
    keep = offsets[None, :] != preload_idx[:, None]
    return grid[keep].reshape(video_ids.size, c - 1)


def queue_block(
    queue: Dict[int, List[Tuple[np.ndarray, ...]]],
    time: int,
    block: Tuple[np.ndarray, ...],
) -> None:
    """Queue a block of parallel columns for round ``time`` (unless it is empty)."""
    if block[0].size:
        queue.setdefault(time, []).append(block)


def pop_block(
    queue: Dict[int, List[Tuple[np.ndarray, ...]]], time: int, width: int
) -> Tuple[np.ndarray, ...]:
    """Pop round ``time``'s blocks, joined column by column in queueing order."""
    check_non_negative_integer(time, "time")
    blocks = queue.pop(time, None)
    if not blocks:
        return (_EMPTY,) * width
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def pop_postponed(
    pending: Dict[int, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]], time: int
) -> RequestArrays:
    """Pop the postponed requests queued for round ``time`` (never preloads)."""
    stripes, boxes, demands = pop_block(pending, time, 3)
    return stripes, boxes, demands, np.zeros(stripes.size, dtype=bool)


class PreloadingScheduler:
    """Converts demands into preloading + postponed stripe requests.

    Parameters
    ----------
    catalog:
        The video catalog (provides ``c`` and global stripe identifiers).
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        #: Per-video swarm-entry counter used to rotate the preload stripe.
        self._entry_counter: Dict[int, int] = {}
        #: Postponed requests queued for future rounds, as blocks:
        #: round -> list of (stripe_ids, box_ids, demand_indices).
        self._pending: Dict[int, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}

    @property
    def catalog(self) -> Catalog:
        """The catalog the scheduler generates requests against."""
        return self._catalog

    def update_catalog(self, catalog: Catalog) -> None:
        """Adopt a grown catalog (live ``add_videos`` reconfiguration)."""
        self._catalog = _check_catalog_growth(self._catalog, catalog)

    @property
    def start_up_delay(self) -> int:
        """Start-up delay of the strategy, in rounds (3)."""
        return START_UP_DELAY_ROUNDS

    def swarm_entry_count(self, video_id: int) -> int:
        """Number of boxes that have entered the swarm of ``video_id`` so far."""
        return self._entry_counter.get(int(video_id), 0)

    # ------------------------------------------------------------------ #
    # Demand handling
    # ------------------------------------------------------------------ #
    def on_demand_arrays(
        self,
        video_ids: np.ndarray,
        box_ids: np.ndarray,
        demand_indices: np.ndarray,
        time: int,
    ) -> RequestArrays:
        """Process one round's demands, all arriving in ``[time − 1, time[``.

        Returns the preloading requests to issue *at* ``time`` — one per
        demand, made by the demanding box, in arrival order — and queues
        the ``c−1`` postponed requests of each demand for ``time + 1``.
        ``demand_indices`` tags every request with its demand.
        """
        n = int(video_ids.size)
        if n == 0:
            return NO_REQUESTS
        check_video_ids(self._catalog, video_ids)
        c = self._catalog.num_stripes_per_video
        preload_idx = preload_indices(self._entry_counter, video_ids, c)
        queue_block(
            self._pending,
            int(time) + 1,
            (
                other_stripes(video_ids, preload_idx, c).ravel(),
                np.repeat(box_ids, c - 1),
                np.repeat(demand_indices, c - 1),
            ),
        )
        preload = np.ones(n, dtype=bool)
        return video_ids * c + preload_idx, box_ids, demand_indices, preload

    def on_demands_batch(self, accepted: List[Tuple[int, Demand]]) -> RequestArrays:
        """:meth:`on_demand_arrays` over ``(demand_index, Demand)`` pairs of one round.

        Nothing in the library calls this object form.  It stays because
        the end-to-end benchmark's tracer (``benchmarks/e2e/spans.py``)
        wraps it by name and fails when it is missing.
        """
        if not accepted:
            return NO_REQUESTS
        indices, demands = zip(*accepted)
        return self.on_demand_arrays(
            np.array([d.video_id for d in demands], dtype=np.int64),
            np.array([d.box_id for d in demands], dtype=np.int64),
            np.array(indices, dtype=np.int64),
            demands[0].time,
        )

    def due_arrays(self, time: int) -> RequestArrays:
        """Pop the postponed requests queued for round ``time`` (never preloads)."""
        return pop_postponed(self._pending, time)

    def pending_rounds(self) -> Tuple[int, ...]:
        """Rounds that still have queued postponed requests (sorted)."""
        return tuple(sorted(self._pending))

    def playback_start_round(self, demand: Demand) -> int:
        """Round at which playback of ``demand`` begins (demand time + delay − 1).

        The demand arrives in ``[t−1, t[``, the preload request is wired for
        ``t+1`` and the postponed ones for ``t+2``; all ``c`` stripes flow
        from ``t+2`` on, i.e. 3 rounds after the demand arrival interval
        started.
        """
        return demand.time + START_UP_DELAY_ROUNDS - 1

    def reset(self) -> None:
        """Clear all counters and queued requests."""
        self._entry_counter.clear()
        self._pending.clear()


class ImmediateRequestScheduler:
    """Ablation of the preloading strategy: request all ``c`` stripes at once.

    This scheduler drops both ingredients of Section 3 — the one-round
    postponement of ``c−1`` stripes and the round-robin rotation of the
    preload stripe — and simply issues all ``c`` stripe requests at the
    demand round.  It is *not* part of the paper's construction; it exists
    to measure how much the preloading strategy buys: without it, the
    newest generation of a fast-growing swarm cannot be fed by the
    previous generation's preloaded stripes, and flash crowds at high ``µ``
    overwhelm the static allocation (see
    ``benchmarks/bench_ablation_preloading.py``).

    The interface mirrors :class:`PreloadingScheduler` so the simulator can
    use either interchangeably.  The nominal start-up delay is 2 rounds
    (requests at ``t``, wired for ``t+1``, playback at ``t+1``), one round
    less than the preloading strategy — the ablation trades robustness for
    that round.
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    @property
    def catalog(self) -> Catalog:
        """The catalog the scheduler generates requests against."""
        return self._catalog

    def update_catalog(self, catalog: Catalog) -> None:
        """Adopt a grown catalog (same constraints as the preloading strategy)."""
        self._catalog = _check_catalog_growth(self._catalog, catalog)

    @property
    def start_up_delay(self) -> int:
        """Nominal start-up delay of the ablated strategy (2 rounds)."""
        return 2

    def on_demand_arrays(
        self,
        video_ids: np.ndarray,
        box_ids: np.ndarray,
        demand_indices: np.ndarray,
        time: int,
    ) -> RequestArrays:
        """Issue all ``c`` stripe requests of each demanded video at ``time``.

        Per demand in arrival order, stripes in index order; the first
        stripe's request is flagged as the preload.
        """
        check_video_ids(self._catalog, video_ids)
        c = self._catalog.num_stripes_per_video
        stripes = video_ids[:, None] * c + np.arange(c, dtype=np.int64)[None, :]
        preload = np.zeros(stripes.shape, dtype=bool)
        preload[:, 0] = True
        return (
            stripes.ravel(),
            np.repeat(box_ids, c),
            np.repeat(demand_indices, c),
            preload.ravel(),
        )

    def due_arrays(self, time: int) -> RequestArrays:
        """No postponed requests exist under this strategy."""
        check_non_negative_integer(time, "time")
        return NO_REQUESTS
