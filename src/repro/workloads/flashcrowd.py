"""Flash-crowd workloads: swarms growing at the maximal rate ``µ``.

The hardest demand dynamics the paper allows is a swarm whose size grows
by a factor ``µ`` every round.  :class:`FlashCrowdWorkload` pushes one (or
several) videos exactly to that limit, which is the regime Lemma 2's
counting argument is tight for: at any round most swarm members entered
very recently and only the preloaded stripes of the previous generation
can feed them.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.preloading import Demand
from repro.sim.swarm import max_new_members
from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_in_range, check_non_negative_integer
from repro.workloads.base import SystemView, demands_from_arrays, shuffled_free_boxes

__all__ = ["FlashCrowdWorkload", "StaggeredFlashCrowdWorkload"]

_EMPTY = np.empty(0, dtype=np.int64)


class FlashCrowdWorkload:
    """Grow the swarms of ``target_videos`` at exactly the maximal rate ``µ``.

    Parameters
    ----------
    mu:
        Swarm growth bound to saturate.
    target_videos:
        The videos receiving the flash crowd (defaults to video 0).
    start_time:
        Round at which the crowd starts arriving.
    max_members:
        Optional cap on the total number of boxes sent to each video.
    random_state:
        Seed controlling which free boxes are picked each round.
    """

    def __init__(
        self,
        mu: float,
        target_videos: Sequence[int] = (0,),
        start_time: int = 0,
        max_members: Optional[int] = None,
        random_state: RandomState = None,
    ):
        self._mu = check_in_range(mu, "mu", 1.0, math.inf)
        self._targets = [
            check_non_negative_integer(v, "target video") for v in target_videos
        ]
        if not self._targets:
            raise ValueError("target_videos must not be empty")
        self._start = check_non_negative_integer(start_time, "start_time")
        self._cap = max_members
        self._rng = as_generator(random_state)
        self._sent = {v: 0 for v in self._targets}

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array form of :meth:`demands_for_round`: ``(box_ids, video_ids)``.

        Shuffles a copy of the free boxes and hands each target, in
        order, the next ``µ``-allowed joiners from its front.
        """
        if view.time < self._start:
            return _EMPTY, _EMPTY
        free = shuffled_free_boxes(view, self._rng)
        takes: List[int] = []
        cursor = 0
        for video_id in self._targets:
            if video_id >= view.catalog.num_videos:
                raise ValueError(
                    f"target video {video_id} outside catalog of size {view.catalog.num_videos}"
                )
            current = view.swarms.size(video_id, view.time - 1) if view.time > 0 else 0
            joiners = max_new_members(current, self._mu)
            if self._cap is not None:
                joiners = min(joiners, self._cap - self._sent[video_id])
            joiners = max(joiners, 0)
            take = min(joiners, free.size - cursor)
            takes.append(take)
            cursor += take
            self._sent[video_id] += take
        return free[:cursor], np.repeat(np.array(self._targets, dtype=np.int64), takes)

    def demands_for_round(self, view: SystemView) -> List[Demand]:
        """Send as many new members to each target swarm as ``µ`` allows."""
        boxes, videos = self.demand_arrays_for_round(view)
        return demands_from_arrays(view.time, boxes, videos)


class StaggeredFlashCrowdWorkload:
    """Several flash crowds starting at different rounds on different videos.

    Used by the scaling experiments to create overlapping swarms: video
    ``target_videos[j]`` starts its crowd at ``start_times[j]`` and grows
    at rate ``µ`` until ``max_members`` boxes have joined it.
    """

    def __init__(
        self,
        mu: float,
        target_videos: Sequence[int],
        start_times: Sequence[int],
        max_members: Optional[int] = None,
        random_state: RandomState = None,
    ):
        if len(target_videos) != len(start_times):
            raise ValueError("target_videos and start_times must have the same length")
        self._mu = check_in_range(mu, "mu", 1.0, math.inf)
        self._videos = [
            check_non_negative_integer(v, "target video") for v in target_videos
        ]
        self._starts = [check_non_negative_integer(t, "start_time") for t in start_times]
        self._cap = max_members
        self._rng = as_generator(random_state)
        self._sent = {v: 0 for v in self._videos}

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array form of :meth:`demands_for_round`: ``(box_ids, video_ids)``."""
        free = shuffled_free_boxes(view, self._rng)
        takes: List[int] = []
        cursor = 0
        for video_id, start in zip(self._videos, self._starts):
            if view.time < start:
                takes.append(0)
                continue
            current = view.swarms.size(video_id, view.time - 1) if view.time > 0 else 0
            joiners = max_new_members(current, self._mu)
            if self._cap is not None:
                joiners = min(joiners, self._cap - self._sent[video_id])
            take = min(max(joiners, 0), free.size - cursor)
            takes.append(take)
            cursor += take
            self._sent[video_id] += take
        return free[:cursor], np.repeat(np.array(self._videos, dtype=np.int64), takes)

    def demands_for_round(self, view: SystemView) -> List[Demand]:
        """Advance every crowd that has already started."""
        boxes, videos = self.demand_arrays_for_round(view)
        return demands_from_arrays(view.time, boxes, videos)
