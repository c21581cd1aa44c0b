"""Flash crowds, adversaries and sequential viewing: the same arrivals in array form.

Each generator's ``demand_arrays_for_round`` replaces a list-based
``demands_for_round`` body: the crowds and adversaries shuffle an int64
copy of the free boxes where that body shuffled a Python list of them,
and sequential viewing collects arrays where it built ``Demand`` objects.
The list-based bodies are kept below as references; a twin run of each
generator over rounds whose free sets and swarm sizes change must give
the same ``(box, video)`` sequence and leave the random generator in the
same state, without touching ``view.free_boxes``.  No golden covers the
staggered crowd, the missing-video adversary or sequential viewing, so
these tests are their only pin.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.core.allocation import random_permutation_allocation
from repro.core.parameters import homogeneous_population
from repro.core.preloading import Demand
from repro.core.video import Catalog
from repro.sim.swarm import SwarmRegistry, max_new_members
from repro.workloads.adversarial import (
    ColdStartAdversary,
    LeastReplicatedAdversary,
    MissingVideoAdversary,
)
from repro.workloads.base import SystemView
from repro.workloads.flashcrowd import FlashCrowdWorkload, StaggeredFlashCrowdWorkload
from repro.workloads.sequential import SequentialViewingWorkload

# --------------------------------------------------------------------- #
# Reference copies of the list-based bodies
# --------------------------------------------------------------------- #


def _list_flashcrowd(self, view: SystemView) -> List[Demand]:
    if view.time < self._start:
        return []
    free = list(int(b) for b in view.free_boxes)
    self._rng.shuffle(free)
    demands: List[Demand] = []
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
        take = min(joiners, len(free) - cursor)
        for _ in range(take):
            box_id = free[cursor]
            cursor += 1
            demands.append(Demand(time=view.time, box_id=box_id, video_id=video_id))
            self._sent[video_id] += 1
    return demands


def _list_staggered(self, view: SystemView) -> List[Demand]:
    free = list(int(b) for b in view.free_boxes)
    self._rng.shuffle(free)
    demands: List[Demand] = []
    cursor = 0
    for video_id, start in zip(self._videos, self._starts):
        if view.time < start:
            continue
        current = view.swarms.size(video_id, view.time - 1) if view.time > 0 else 0
        joiners = max_new_members(current, self._mu)
        if self._cap is not None:
            joiners = min(joiners, self._cap - self._sent[video_id])
        take = min(max(joiners, 0), len(free) - cursor)
        for _ in range(take):
            box_id = free[cursor]
            cursor += 1
            demands.append(Demand(time=view.time, box_id=box_id, video_id=video_id))
            self._sent[video_id] += 1
    return demands


def _list_missing_video(self, view: SystemView) -> List[Demand]:
    if view.time < self._start:
        return []
    c = view.catalog.num_stripes_per_video
    m = view.catalog.num_videos
    all_videos = np.arange(m, dtype=np.int64)
    free = list(int(b) for b in view.free_boxes)
    self._rng.shuffle(free)
    if self._max_per_round is not None:
        free = free[: self._max_per_round]

    budget: dict[int, int] = {}
    demands: List[Demand] = []
    for box_id in free:
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
        demands.append(Demand(time=view.time, box_id=box_id, video_id=choice))
    return demands


def _list_least_replicated(self, view: SystemView) -> List[Demand]:
    if view.time < self._start:
        return []
    if self._targets is None:
        self._targets = self._pick_targets(view)
    free = list(int(b) for b in view.free_boxes)
    self._rng.shuffle(free)
    demands: List[Demand] = []
    cursor = 0
    for video_id in self._targets:
        current = view.swarms.size(video_id, view.time - 1) if view.time > 0 else 0
        joiners = max_new_members(current, self._mu)
        take = min(joiners, len(free) - cursor)
        for _ in range(take):
            demands.append(Demand(time=view.time, box_id=free[cursor], video_id=video_id))
            cursor += 1
    return demands


def _list_cold_start(self, view: SystemView) -> List[Demand]:
    if view.time < self._start:
        return []
    cold = [
        video_id
        for video_id in range(view.catalog.num_videos)
        if view.swarms.size(video_id, view.time - 1 if view.time > 0 else 0) == 0
    ]
    self._rng.shuffle(cold)
    free = list(int(b) for b in view.free_boxes)
    self._rng.shuffle(free)
    if self._max_per_round is not None:
        free = free[: self._max_per_round]
    demands: List[Demand] = []
    for box_id, video_id in zip(free, cold):
        demands.append(Demand(time=view.time, box_id=box_id, video_id=int(video_id)))
    return demands


def _list_sequential(self, view: SystemView) -> List[Demand]:
    if view.time < self._start:
        return []
    participants = (
        set(self._boxes) if self._boxes is not None else set(range(view.population.n))
    )
    demands: List[Demand] = []
    for box_id in view.free_boxes:
        box_id = int(box_id)
        if box_id not in participants:
            continue
        video = self._next_video(box_id, view.catalog.num_videos)
        self._last_video[box_id] = video
        demands.append(Demand(time=view.time, box_id=box_id, video_id=video))
    return demands


# --------------------------------------------------------------------- #
# Twin runs
# --------------------------------------------------------------------- #

N_BOXES = 30

#: Free-set sizes per round: the full population, the degenerate sizes
#: 0, 1 and 2, and partial sets in between.
FREE_SIZES = [30, 2, 0, 1, 17, 25, 2, 1, 30, 12, 0, 30]

#: ``(id, factory, reference)``: every factory call builds a fresh
#: generator on the same seed.
CASES = [
    (
        "flashcrowd-capped",
        lambda: FlashCrowdWorkload(
            mu=2.0, target_videos=(0, 3), start_time=1, max_members=5, random_state=11
        ),
        _list_flashcrowd,
    ),
    (
        "flashcrowd-uncapped",
        lambda: FlashCrowdWorkload(mu=1.5, target_videos=(2,), random_state=12),
        _list_flashcrowd,
    ),
    (
        "staggered",
        lambda: StaggeredFlashCrowdWorkload(
            mu=1.5, target_videos=(1, 4, 6), start_times=(0, 3, 5), max_members=4,
            random_state=13,
        ),
        _list_staggered,
    ),
    (
        "least-replicated",
        lambda: LeastReplicatedAdversary(
            mu=1.5, num_target_videos=3, start_time=1, random_state=14
        ),
        _list_least_replicated,
    ),
    (
        "cold-start",
        lambda: ColdStartAdversary(random_state=15),
        _list_cold_start,
    ),
    (
        "cold-start-throttled",
        lambda: ColdStartAdversary(start_time=2, max_demands_per_round=3, random_state=16),
        _list_cold_start,
    ),
    (
        "missing-video-throttled",
        lambda: MissingVideoAdversary(max_demands_per_round=4, random_state=17),
        _list_missing_video,
    ),
    (
        "missing-video-respect-growth",
        lambda: MissingVideoAdversary(
            start_time=1, respect_growth=True, mu=1.2, random_state=18
        ),
        _list_missing_video,
    ),
    (
        "sequential",
        lambda: SequentialViewingWorkload(random_state=19),
        _list_sequential,
    ),
    (
        "sequential-participants",
        lambda: SequentialViewingWorkload(
            boxes=range(0, N_BOXES, 3), start_time=2, random_state=20
        ),
        _list_sequential,
    ),
    (
        "sequential-playlist",
        lambda: SequentialViewingWorkload(playlist=(5, 1, 7), random_state=21),
        _list_sequential,
    ),
]


def _system():
    catalog = Catalog(num_videos=8, num_stripes=3, duration=4)
    population = homogeneous_population(N_BOXES, u=1.5, d=2.0)
    allocation = random_permutation_allocation(catalog, population, 3, random_state=5)
    return catalog, population, allocation


def _views(swarms: SwarmRegistry):
    """One view per round; free sets vary, swarms are the caller's."""
    catalog, population, allocation = _system()
    rng = np.random.default_rng(99)
    for time, size in enumerate(FREE_SIZES):
        free = np.sort(rng.choice(N_BOXES, size=size, replace=False)).astype(np.int64)
        yield SystemView(
            time=time,
            catalog=catalog,
            allocation=allocation,
            population=population,
            swarms=swarms,
            free_boxes=free,
        )


def _pairs(demands: List[Demand]):
    return [(d.box_id, d.video_id) for d in demands]


@pytest.mark.parametrize(
    "factory, reference", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_array_form_matches_the_list_reference(factory, reference):
    listed, arrays = factory(), factory()
    # A short duration lets members expire, so swarm sizes both grow and
    # shrink from round to round.
    swarms = SwarmRegistry(mu=2.0, duration=4)
    saw_demands = saw_empty = False
    for view in _views(swarms):
        before = view.free_boxes.copy()
        expected = reference(listed, view)
        boxes, videos = arrays.demand_arrays_for_round(view)
        assert np.array_equal(view.free_boxes, before)

        assert boxes.dtype == np.int64 and videos.dtype == np.int64
        assert list(zip(boxes.tolist(), videos.tolist())) == _pairs(expected)
        assert arrays._rng.bit_generator.state == listed._rng.bit_generator.state

        saw_demands |= bool(expected)
        saw_empty |= not expected
        for demand in expected:
            swarms.enter(demand.video_id, demand.box_id, view.time)
    assert saw_demands and saw_empty


def test_flash_crowd_past_its_cap_draws_but_sends_nobody():
    """A crowd at its cap still shuffles every round, like the list body."""
    listed = FlashCrowdWorkload(mu=3.0, max_members=2, random_state=3)
    arrays = FlashCrowdWorkload(mu=3.0, max_members=2, random_state=3)
    swarms = SwarmRegistry(mu=3.0, duration=4)
    sent = []
    for view in _views(swarms):
        expected = _list_flashcrowd(listed, view)
        boxes, videos = arrays.demand_arrays_for_round(view)
        assert list(zip(boxes.tolist(), videos.tolist())) == _pairs(expected)
        assert arrays._rng.bit_generator.state == listed._rng.bit_generator.state
        sent.append(boxes.size)
    assert sum(sent) == 2
    assert sent[-1] == 0 and arrays._sent == {0: 2}
