"""Sequential-viewing workload: boxes play videos back to back.

The model explicitly allows a box to play one video after another, in
which case its playback cache straddles the end of the previous video and
the beginning of the current one, and the box belongs to (at most) two
swarms during a window of length ``T`` — a case Lemma 2 must and does
handle ("the boxes considered in bound (3) may concern at most two
videos").  This workload exercises exactly that situation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_non_negative_integer
from repro.workloads.base import SystemView

__all__ = ["SequentialViewingWorkload"]

_EMPTY = np.empty(0, dtype=np.int64)


class SequentialViewingWorkload:
    """Each participating box demands a new video as soon as it becomes free.

    Parameters
    ----------
    boxes:
        The boxes taking part (defaults to all boxes).
    playlist:
        Optional explicit playlist per box (cycled); otherwise videos are
        drawn uniformly at random, avoiding an immediate repeat.
    start_time:
        Round of the first demand.
    """

    def __init__(
        self,
        boxes: Optional[Sequence[int]] = None,
        playlist: Optional[Sequence[int]] = None,
        start_time: int = 0,
        random_state: RandomState = None,
    ):
        self._boxes = None if boxes is None else [int(b) for b in boxes]
        self._playlist = None if playlist is None else [int(v) for v in playlist]
        if self._playlist is not None and not self._playlist:
            raise ValueError("playlist must not be empty when provided")
        self._start = check_non_negative_integer(start_time, "start_time")
        self._rng = as_generator(random_state)
        self._cursor: Dict[int, int] = {}
        self._last_video: Dict[int, int] = {}

    def _next_video(self, box_id: int, num_videos: int) -> int:
        if self._playlist is not None:
            cursor = self._cursor.get(box_id, 0)
            video = self._playlist[cursor % len(self._playlist)]
            self._cursor[box_id] = cursor + 1
            return video % num_videos
        previous = self._last_video.get(box_id)
        if num_videos == 1:
            return 0
        while True:
            video = int(self._rng.integers(num_videos))
            if video != previous:
                return video

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every participating free box demands its next video."""
        if view.time < self._start:
            return _EMPTY, _EMPTY
        participants = (
            set(self._boxes) if self._boxes is not None else set(range(view.population.n))
        )
        boxes: List[int] = []
        videos: List[int] = []
        for box_id in view.free_boxes:
            box_id = int(box_id)
            if box_id not in participants:
                continue
            video = self._next_video(box_id, view.catalog.num_videos)
            self._last_video[box_id] = video
            boxes.append(box_id)
            videos.append(video)
        return np.array(boxes, dtype=np.int64), np.array(videos, dtype=np.int64)
