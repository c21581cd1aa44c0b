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
from typing import Dict, Tuple

import numpy as np

from repro.util.validation import (
    check_in_range,
    check_integer,
    check_non_negative_integer,
    check_positive_integer,
)

__all__ = ["SwarmRegistry", "max_new_members"]


def max_new_members(current_size: int, mu: float) -> int:
    """Maximum number of boxes that may join a swarm of ``current_size`` this round.

    The bound allows the next size to be at most ``⌈max{f(t), 1}·µ⌉``; an
    empty swarm may therefore bootstrap with ``⌈µ⌉`` members.
    """
    current_size = check_non_negative_integer(current_size, "current_size")
    mu = check_in_range(mu, "mu", 1.0, math.inf)
    allowed_next = math.ceil(max(current_size, 1) * mu)
    return max(allowed_next - current_size, 0)


class SwarmRegistry:
    """Tracks swarm sizes per video and validates the growth bound.

    Membership is driven by *swarm entry times*: a box enters the swarm of
    a video when it issues its first (preloading) request for it and leaves
    ``duration`` rounds later.  The growth check and every size query need
    only swarm sizes, so the registry keeps a dense array of live sizes at
    the last written round, indexed by video id, and the per-video entry
    counts of the last ``duration + 1`` rounds: the rounds still counted
    at the last written round, plus the one its predecessor still counts.
    Growth violations are only counted.  Its state is bounded by the
    catalog and the duration, whatever the horizon.  :meth:`enter_batch`
    is the only writer.
    """

    def __init__(self, mu: float, duration: int):
        self._mu = check_in_range(mu, "mu", 1.0, math.inf)
        self._duration = check_positive_integer(duration, "duration")
        self._violation_count = 0
        # Live swarm sizes at round ``_time``, the last written round;
        # grown when a larger video id enters.
        self._sizes = np.zeros(0, dtype=np.int64)
        # round -> (sorted distinct videos entered that round, entry
        # counts), for the rounds ``[_time - duration, _time]``.
        self._counts: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._time = -1

    @property
    def mu(self) -> float:
        """The growth bound ``µ`` being enforced."""
        return self._mu

    @property
    def violation_count(self) -> int:
        """Number of growth-bound violations observed so far."""
        return self._violation_count

    def _entries(self, round_: int, videos: np.ndarray) -> np.ndarray:
        """Entries of round ``round_`` into each of ``videos`` (sorted)."""
        if round_ not in self._counts:
            return np.zeros(videos.size, dtype=np.int64)
        entered, counts = self._counts[round_]
        pos = np.minimum(np.searchsorted(entered, videos), entered.size - 1)
        return np.where(entered[pos] == videos, counts[pos], 0)

    def _leave(self, round_: int) -> None:
        """The entries of round ``round_`` leave the live sizes."""
        if round_ in self._counts:
            videos, counts = self._counts[round_]
            self._sizes[videos] -= counts

    def size(self, video_id: int, time: int) -> int:
        """Swarm size of ``video_id`` at round ``time`` (members not yet expired).

        Any round from the last written one on is answered; an earlier
        one raises ``ValueError``.
        """
        video_id = check_non_negative_integer(video_id, "video_id")
        time = check_integer(time, "time")
        if time < self._time:
            raise ValueError(
                f"swarm round {time} precedes the last written round {self._time}"
            )
        if video_id >= self._sizes.size:
            return 0
        size = int(self._sizes[video_id])
        if time > self._time:
            # entry <= time < entry + duration: the rounds up to
            # time - duration have left by ``time``, those up to
            # _time - duration already by ``_time``.
            video = np.array([video_id], dtype=np.int64)
            for r in self._counts:
                if self._time - self._duration < r <= time - self._duration:
                    size -= int(self._entries(r, video)[0])
        return size

    def enter(self, video_id: int, time: int) -> None:
        """Record that one box enters the swarm of ``video_id`` at round ``time``."""
        self.enter_batch(np.array([video_id], dtype=np.int64), time)

    def enter_batch(self, video_ids: np.ndarray, time: int) -> None:
        """Record one round's swarm entries (the registry's only writer).

        Every entry joins the swarm of its video at round ``time``.  Rounds
        come in order: a round earlier than the previous call's, or a
        negative video id, raise ``ValueError``.  Each entry is checked
        against the growth bound — its swarm's size right after it joins
        against the size at round ``time − 1`` — and a violation is
        counted (without raising); the engine surfaces the count in its
        result.
        """
        time = check_non_negative_integer(time, "time")
        if time < self._time:
            raise ValueError(
                f"swarm round {time} precedes the previous round {self._time}"
            )
        video_ids = np.asarray(video_ids, dtype=np.int64)
        n = int(video_ids.size)
        if n == 0:
            return
        sorted_videos = np.sort(video_ids)
        if sorted_videos[0] < 0:
            raise ValueError(f"video ids must be non-negative, got {int(sorted_videos[0])}")
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(sorted_videos[1:], sorted_videos[:-1], out=starts[1:])
        start_pos = np.flatnonzero(starts)
        counts = np.diff(np.append(start_pos, n))
        videos = sorted_videos[start_pos]
        top = int(videos[-1]) + 1
        if top > self._sizes.size:
            self._sizes = np.pad(self._sizes, (0, top - self._sizes.size))
        sizes = self._sizes

        duration = self._duration
        if time > self._time:
            # Advance the live sizes to round ``time - 1`` for the growth
            # check's reference sizes, then to ``time``.
            for r in self._counts:
                if self._time - duration < r < time - duration:
                    self._leave(r)
            previous = sizes[videos]
            self._leave(time - duration)
            self._counts = {
                r: c for r, c in self._counts.items() if r >= time - duration
            }
            self._counts[time] = (videos, counts)
            self._time = time
        else:
            # A further batch of the last written round.
            previous = (
                sizes[videos]
                - self._entries(time, videos)
                + self._entries(time - duration, videos)
            )
            entered, entered_counts = self._counts[time]
            merged, inverse = np.unique(
                np.concatenate([entered, videos]), return_inverse=True
            )
            merged_counts = np.zeros(merged.size, dtype=np.int64)
            np.add.at(merged_counts, inverse, np.concatenate([entered_counts, counts]))
            self._counts[time] = (merged, merged_counts)
        base = sizes[videos]
        sizes[videos] = base + counts

        allowed = np.ceil(np.maximum(previous, 1) * self._mu).astype(np.int64)
        # The i-th of a video's ``counts`` arrivals this round takes its
        # swarm to base + i + 1, so those taking it past ``allowed``
        # violate the bound.
        self._violation_count += int(
            np.clip(base + counts - allowed, 0, counts).sum()
        )
