"""Swarm tracking and growth-bound enforcement.

The *swarm* of a video is the population of boxes currently viewing it.
The paper's only assumption on demand dynamics is the maximal swarm growth
``µ``: if ``f(t)`` is the swarm size then
``f(t+i) ≤ ⌈max{f(t), 1} · µ^i⌉``.  The registry below tracks swarm sizes
round by round so that (i) workloads can be validated against the bound
they claim to respect and (ii) adversarial generators can push demand
exactly to the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.util.soa import ensure_column_capacity
from repro.util.validation import (
    check_in_range,
    check_non_negative_integer,
    check_positive_integer,
)

__all__ = ["SwarmGrowthViolation", "SwarmRegistry", "max_new_members"]


@dataclass(frozen=True)
class SwarmGrowthViolation:
    """A violation of the swarm-growth bound ``µ`` for one video at one round."""

    video_id: int
    time: int
    previous_size: int
    new_size: int
    allowed_size: int


def max_new_members(current_size: int, mu: float) -> int:
    """Maximum number of boxes that may join a swarm of ``current_size`` this round.

    The bound allows the next size to be at most ``⌈max{f(t), 1}·µ⌉``; an
    empty swarm may therefore bootstrap with ``⌈µ⌉`` members.
    """
    current_size = check_non_negative_integer(current_size, "current_size")
    mu = check_in_range(mu, "mu", 1.0, math.inf)
    allowed_next = math.ceil(max(current_size, 1) * mu)
    return max(allowed_next - current_size, 0)


class _VideoSwarm:
    """Entry log of one video's swarm, struct-of-arrays.

    Boxes and entry times are appended in arrival order.  The registry's
    one writer takes rounds in order, so entry times never decrease and
    windowed size/membership queries are ``searchsorted`` slices.
    """

    __slots__ = ("boxes", "times", "size")

    def __init__(self):
        self.boxes = np.empty(16, dtype=np.int64)
        self.times = np.empty(16, dtype=np.int64)
        self.size = 0

    def __getstate__(self):
        return (self.boxes[: self.size].copy(), self.times[: self.size].copy())

    def __setstate__(self, state):
        # Format-3 snapshots from older builds carry a trailing order flag,
        # always true in engine sessions; it is ignored.
        self.boxes, self.times = state[:2]
        self.size = self.boxes.size

    def _bounds(self, lo_exclusive: int, hi_inclusive: int) -> Tuple[int, int]:
        times = self.times[: self.size]
        return (
            int(np.searchsorted(times, lo_exclusive, side="right")),
            int(np.searchsorted(times, hi_inclusive, side="right")),
        )

    def window(self, lo_exclusive: int, hi_inclusive: int) -> np.ndarray:
        """Boxes whose entry time lies in ``(lo_exclusive, hi_inclusive]``."""
        a, b = self._bounds(lo_exclusive, hi_inclusive)
        return self.boxes[a:b]

    def count(self, lo_exclusive: int, hi_inclusive: int) -> int:
        """Number of entries with time in ``(lo_exclusive, hi_inclusive]``."""
        a, b = self._bounds(lo_exclusive, hi_inclusive)
        return b - a


class SwarmRegistry:
    """Tracks swarm membership per video and validates the growth bound.

    Membership is driven by *swarm entry times*: a box enters the swarm of
    a video when it issues its first (preloading) request for it and leaves
    ``duration`` rounds later.  Per-video membership is kept as
    struct-of-arrays entry logs, so size queries cost ``O(log members)``
    instead of a scan — the difference between toy populations and the
    100k-box scale tiers.  :meth:`enter_batch` is the only writer.
    """

    def __init__(self, mu: float, duration: int):
        self._mu = check_in_range(mu, "mu", 1.0, math.inf)
        self._duration = check_positive_integer(duration, "duration")
        # video_id -> entry log (boxes, entry times) in arrival order.
        self._swarms: Dict[int, _VideoSwarm] = {}
        # Size history: video_id -> {round: size at end of round}
        self._history: Dict[int, Dict[int, int]] = {}
        self._violations: List[SwarmGrowthViolation] = []
        # Rolling size cache: live sizes as of round ``_cache_time`` plus
        # per-round arrival counts (to expire entries leaving the duration
        # window without re-counting entry logs).  ``enter_batch`` takes
        # rounds in order, so the cache is always current.  Registries
        # restored from older builds may carry a stale cache-validity
        # flag; nothing reads it.
        self._size_cache: Dict[int, int] = {}
        self._round_adds: Dict[int, Dict[int, int]] = {}
        self._cache_time = -1
        # Entry blocks accepted by ``enter_batch`` but not yet written to
        # the per-video logs / size history, as ``(time, videos, boxes,
        # unique_videos, final_sizes)`` with videos/boxes grouped by video.
        # Lean runs never query individual swarms, so the grouping work is
        # deferred until something does.
        self._pending_entries: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    @property
    def mu(self) -> float:
        """The growth bound ``µ`` being enforced."""
        return self._mu

    @property
    def violations(self) -> Tuple[SwarmGrowthViolation, ...]:
        """All growth-bound violations observed so far."""
        return tuple(self._violations)

    def _flush_entries(self) -> None:
        """Write deferred ``enter_batch`` blocks to the per-video logs.

        Blocks keep chronological order, so the logs end up exactly as if
        every entry had been appended eagerly.
        """
        pending = self._pending_entries
        if not pending:
            return
        self._pending_entries = []
        for time, videos, boxes, unique_videos, final_sizes in pending:
            n = int(videos.size)
            starts = np.empty(n, dtype=bool)
            starts[0] = True
            np.not_equal(videos[1:], videos[:-1], out=starts[1:])
            bounds = np.append(np.flatnonzero(starts), n)
            for j, vid in enumerate(unique_videos.tolist()):
                lo, hi = int(bounds[j]), int(bounds[j + 1])
                swarm = self._swarms.get(vid)
                if swarm is None:
                    swarm = self._swarms[vid] = _VideoSwarm()
                size = swarm.size
                ensure_column_capacity(swarm, ("boxes", "times"), size, size + hi - lo)
                swarm.boxes[size : size + hi - lo] = boxes[lo:hi]
                swarm.times[size : size + hi - lo] = time
                swarm.size = size + hi - lo
                self._history.setdefault(vid, {})[time] = int(final_sizes[j])

    def size(self, video_id: int, time: int) -> int:
        """Swarm size of ``video_id`` at round ``time`` (members not yet expired)."""
        self._flush_entries()
        swarm = self._swarms.get(int(video_id))
        if swarm is None:
            return 0
        # entry <= time < entry + duration  <=>  time - duration < entry <= time
        return swarm.count(time - self._duration, time)

    def members(self, video_id: int, time: int) -> List[int]:
        """Boxes in the swarm of ``video_id`` at round ``time``."""
        self._flush_entries()
        swarm = self._swarms.get(int(video_id))
        if swarm is None:
            return []
        return swarm.window(time - self._duration, time).tolist()

    def enter(self, video_id: int, box_id: int, time: int) -> None:
        """Record that ``box_id`` enters the swarm of ``video_id`` at round ``time``."""
        self.enter_batch(np.array([video_id]), np.array([box_id]), time)

    def enter_batch(
        self, video_ids: np.ndarray, box_ids: np.ndarray, time: int
    ) -> None:
        """Record one round's swarm entries (the registry's only writer).

        Every ``(video, box)`` pair enters at round ``time``.  Rounds come
        in order: a round earlier than the previous call's, or unequal
        lengths, raise ``ValueError``.  Each entry is checked against the
        growth bound — its swarm's size right after it joins against the
        size at round ``time − 1`` — and a violation is recorded (without
        raising) in arrival order; the engine surfaces violations in its
        result.
        """
        time = check_non_negative_integer(time, "time")
        if time < self._cache_time:
            raise ValueError(
                f"swarm round {time} precedes the previous round {self._cache_time}"
            )
        video_ids = np.asarray(video_ids, dtype=np.int64)
        box_ids = np.asarray(box_ids, dtype=np.int64)
        if video_ids.shape != box_ids.shape:
            raise ValueError("video_ids and box_ids must have equal lengths")
        n = int(video_ids.size)
        if n == 0:
            return
        order = np.argsort(video_ids, kind="stable")
        sorted_videos = video_ids[order]
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(sorted_videos[1:], sorted_videos[:-1], out=starts[1:])
        start_pos = np.flatnonzero(starts)
        counts = np.diff(np.append(start_pos, n))
        unique_videos = sorted_videos[start_pos]

        base = np.empty(unique_videos.size, dtype=np.int64)
        previous = np.empty(unique_videos.size, dtype=np.int64)
        sorted_boxes = box_ids[order]

        # Size queries are O(1) against the rolling cache.  Advance it to
        # `time` before this round's entries: entries from the rounds that
        # left the duration window stop counting.
        duration = self._duration
        sizes = self._size_cache
        adds = self._round_adds
        for r in range(self._cache_time + 1, time + 1):
            expired = adds.get(r - duration)
            if expired:
                for vid, expired_count in expired.items():
                    left = sizes.get(vid, 0) - expired_count
                    if left > 0:
                        sizes[vid] = left
                    else:
                        sizes.pop(vid, None)
        prev_adds = adds.get(time - duration) or {}
        this_adds = adds.setdefault(time, {})
        for stale in [r for r in adds if r < time - duration]:
            del adds[stale]
        self._cache_time = time
        for j, vid in enumerate(unique_videos.tolist()):
            k = int(counts[j])
            before = sizes.get(vid, 0)
            previous[j] = (
                before - this_adds.get(vid, 0) + prev_adds.get(vid, 0)
                if time > 0
                else 0
            )
            base[j] = before
            sizes[vid] = before + k
            this_adds[vid] = this_adds.get(vid, 0) + k
        # Log writes and size history are deferred: nothing reads them
        # inside a lean engine round.
        self._pending_entries.append(
            (time, sorted_videos, sorted_boxes, unique_videos, base + counts)
        )

        allowed = np.ceil(np.maximum(previous, 1) * self._mu).astype(np.int64)
        # Per-entry size after the append, in arrival order: the i-th
        # arrival of a video this round takes its swarm to base + i + 1
        # (the stable sort keeps arrival order within each video).
        rank_sorted = np.arange(n, dtype=np.int64) - np.repeat(start_pos, counts)
        new_size_sorted = base.repeat(counts) + rank_sorted + 1
        new_size = np.empty(n, dtype=np.int64)
        new_size[order] = new_size_sorted
        allowed_per = np.empty(n, dtype=np.int64)
        allowed_per[order] = allowed.repeat(counts)
        previous_per = np.empty(n, dtype=np.int64)
        previous_per[order] = previous.repeat(counts)
        violating = new_size > allowed_per
        if violating.any():
            for k in np.flatnonzero(violating).tolist():
                self._violations.append(
                    SwarmGrowthViolation(
                        video_id=int(video_ids[k]),
                        time=time,
                        previous_size=int(previous_per[k]),
                        new_size=int(new_size[k]),
                        allowed_size=int(allowed_per[k]),
                    )
                )

    def admissible_joiners(self, video_id: int, time: int) -> int:
        """How many boxes may still join ``video_id``'s swarm at round ``time``."""
        previous = self.size(int(video_id), time - 1) if time > 0 else 0
        current = self.size(int(video_id), time)
        allowed = math.ceil(max(previous, 1) * self._mu)
        return max(allowed - current, 0)

    def history(self, video_id: int) -> Dict[int, int]:
        """Recorded swarm sizes of ``video_id`` keyed by round."""
        self._flush_entries()
        return dict(self._history.get(int(video_id), {}))

    def active_videos(self, time: int) -> List[int]:
        """Videos with a non-empty swarm at round ``time``."""
        self._flush_entries()
        return [vid for vid in self._swarms if self.size(vid, time) > 0]
