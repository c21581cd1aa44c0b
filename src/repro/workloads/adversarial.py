"""Adversarial demand generators.

The paper's guarantees are worst-case over *any* demand sequence
respecting the swarm-growth bound, so the interesting experiments run the
system against adversaries rather than benign popularity models:

* :class:`MissingVideoAdversary` — the ``u < 1`` killer of Section 1.3:
  every box demands a video it stores **nothing** of, so its entire
  playback must be uploaded by others;
* :class:`LeastReplicatedAdversary` — demands concentrate on the videos
  whose stripes have the fewest distinct holders under the current
  allocation, probing the weakest part of the expander;
* :class:`ColdStartAdversary` — maximizes *sourcing* pressure by always
  demanding videos with an empty swarm (no playback-cache help at all),
  spread over as many boxes as allowed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.preloading import Demand
from repro.sim.swarm import max_new_members
from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_in_range, check_non_negative_integer
from repro.workloads.base import SystemView, demands_from_arrays, shuffled_free_boxes

__all__ = [
    "MissingVideoAdversary",
    "LeastReplicatedAdversary",
    "ColdStartAdversary",
]

_EMPTY = np.empty(0, dtype=np.int64)


class MissingVideoAdversary:
    """Every free box demands a video it stores no data of (Section 1.3).

    ``max_demands_per_round`` optionally throttles the attack so that the
    swarm-growth bound ``µ`` stays respected; by default the adversary is
    unthrottled, which is exactly the paper's lower-bound scenario (and may
    legitimately violate ``µ`` — the negative result does not need the
    growth assumption).
    """

    def __init__(
        self,
        start_time: int = 0,
        max_demands_per_round: Optional[int] = None,
        respect_growth: bool = False,
        mu: float = 1.5,
        random_state: RandomState = None,
    ):
        self._start = check_non_negative_integer(start_time, "start_time")
        self._max_per_round = max_demands_per_round
        self._respect_growth = bool(respect_growth)
        self._mu = check_in_range(mu, "mu", 1.0, math.inf)
        self._rng = as_generator(random_state)

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array form of :meth:`demands_for_round`: ``(box_ids, video_ids)``."""
        if view.time < self._start:
            return _EMPTY, _EMPTY
        c = view.catalog.num_stripes_per_video
        m = view.catalog.num_videos
        all_videos = np.arange(m, dtype=np.int64)
        free = shuffled_free_boxes(view, self._rng)
        if self._max_per_round is not None:
            free = free[: self._max_per_round]

        budget: dict[int, int] = {}
        boxes: List[int] = []
        videos: List[int] = []
        for box_id in free.tolist():
            stored = view.allocation.stripes_on_box(box_id)
            stored_videos = np.unique(stored // c) if stored.size else np.empty(0, dtype=np.int64)
            missing = np.setdiff1d(all_videos, stored_videos, assume_unique=True)
            if missing.size == 0:
                continue
            choice = int(missing[self._rng.integers(missing.size)])
            if self._respect_growth:
                if choice not in budget:
                    current = view.swarms.size(choice, view.time - 1) if view.time > 0 else 0
                    budget[choice] = max_new_members(current, self._mu)
                if budget[choice] <= 0:
                    # Try another missing video with remaining budget.
                    alternatives = [
                        int(v)
                        for v in missing
                        if budget.get(
                            int(v),
                            max_new_members(
                                view.swarms.size(int(v), view.time - 1) if view.time > 0 else 0,
                                self._mu,
                            ),
                        )
                        > 0
                    ]
                    if not alternatives:
                        continue
                    choice = alternatives[int(self._rng.integers(len(alternatives)))]
                    if choice not in budget:
                        current = view.swarms.size(choice, view.time - 1) if view.time > 0 else 0
                        budget[choice] = max_new_members(current, self._mu)
                budget[choice] -= 1
            boxes.append(box_id)
            videos.append(choice)
        return np.array(boxes, dtype=np.int64), np.array(videos, dtype=np.int64)

    def demands_for_round(self, view: SystemView) -> List[Demand]:
        """Pick, for each free box, a stored-nowhere video to demand."""
        boxes, videos = self.demand_arrays_for_round(view)
        return demands_from_arrays(view.time, boxes, videos)


class LeastReplicatedAdversary:
    """Concentrate demand on the videos with the weakest replication.

    Videos are ranked by the minimum, over their stripes, of the number of
    distinct boxes holding the stripe; demand floods the lowest-ranked
    videos while respecting the growth bound ``µ``.
    """

    def __init__(
        self,
        mu: float,
        num_target_videos: int = 1,
        start_time: int = 0,
        random_state: RandomState = None,
    ):
        self._mu = check_in_range(mu, "mu", 1.0, math.inf)
        if num_target_videos <= 0:
            raise ValueError("num_target_videos must be positive")
        self._num_targets = int(num_target_videos)
        self._start = check_non_negative_integer(start_time, "start_time")
        self._rng = as_generator(random_state)
        self._targets: Optional[List[int]] = None

    def _pick_targets(self, view: SystemView) -> List[int]:
        c = view.catalog.num_stripes_per_video
        coverage = view.allocation.distinct_coverage()
        per_video = coverage.reshape(view.catalog.num_videos, c).min(axis=1)
        order = np.argsort(per_video, kind="stable")
        return [int(v) for v in order[: self._num_targets]]

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array form of :meth:`demands_for_round`: ``(box_ids, video_ids)``."""
        if view.time < self._start:
            return _EMPTY, _EMPTY
        if self._targets is None:
            self._targets = self._pick_targets(view)
        free = shuffled_free_boxes(view, self._rng)
        takes: List[int] = []
        cursor = 0
        for video_id in self._targets:
            current = view.swarms.size(video_id, view.time - 1) if view.time > 0 else 0
            joiners = max_new_members(current, self._mu)
            take = min(joiners, free.size - cursor)
            takes.append(take)
            cursor += take
        return free[:cursor], np.repeat(np.array(self._targets, dtype=np.int64), takes)

    def demands_for_round(self, view: SystemView) -> List[Demand]:
        """Send the maximal allowed number of joiners to the weakest videos."""
        boxes, videos = self.demand_arrays_for_round(view)
        return demands_from_arrays(view.time, boxes, videos)


class ColdStartAdversary:
    """Always demand videos whose swarm is currently empty.

    This maximizes sourcing pressure: no requester can be helped by another
    box's playback cache, so every stripe must come from the static
    allocation.  Respects the growth bound by construction (an empty swarm
    may receive ``⌈µ⌉`` joiners; the adversary sends exactly one per video
    and spreads across as many cold videos as it can).
    """

    def __init__(
        self,
        start_time: int = 0,
        max_demands_per_round: Optional[int] = None,
        random_state: RandomState = None,
    ):
        self._start = check_non_negative_integer(start_time, "start_time")
        self._max_per_round = max_demands_per_round
        self._rng = as_generator(random_state)

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array form of :meth:`demands_for_round`: ``(box_ids, video_ids)``.

        Shuffles the cold videos first, then a copy of the free boxes.
        """
        if view.time < self._start:
            return _EMPTY, _EMPTY
        cold = np.array(
            [
                video_id
                for video_id in range(view.catalog.num_videos)
                if view.swarms.size(video_id, view.time - 1 if view.time > 0 else 0) == 0
            ],
            dtype=np.int64,
        )
        self._rng.shuffle(cold)
        free = shuffled_free_boxes(view, self._rng)
        if self._max_per_round is not None:
            free = free[: self._max_per_round]
        count = min(free.size, cold.size)
        return free[:count], cold[:count]

    def demands_for_round(self, view: SystemView) -> List[Demand]:
        """Assign free boxes to distinct cold (empty-swarm) videos."""
        boxes, videos = self.demand_arrays_for_round(view)
        return demands_from_arrays(view.time, boxes, videos)
