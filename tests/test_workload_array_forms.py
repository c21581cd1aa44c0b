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

A capped crowd stops drawing once every target has received its
``max_members`` boxes: the references state that rule, and
``_list_flashcrowd_drawing`` keeps the body that shuffled every round,
against which the capped crowds must send the same arrivals.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.api import SessionSnapshot, VodSession
from repro.core.allocation import random_permutation_allocation
from repro.core.parameters import homogeneous_population
from repro.core.preloading import Demand
from repro.core.video import Catalog
from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario
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
    for video_id in self._targets:
        if video_id >= view.catalog.num_videos:
            raise ValueError(
                f"target video {video_id} outside catalog of size {view.catalog.num_videos}"
            )
    if self._cap is not None and all(self._sent[v] >= self._cap for v in self._targets):
        return []
    return _list_flashcrowd_drawing(self, view)


def _list_flashcrowd_drawing(self, view: SystemView) -> List[Demand]:
    """The list body that shuffles every round, capped or not."""
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
    if self._cap is not None and all(self._sent[v] >= self._cap for v in self._videos):
        return []
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
            swarms.enter(demand.video_id, view.time)
    assert saw_demands and saw_empty


def _run(crowd, reference=None):
    """Step ``crowd`` over the rounds, its arrivals entering the swarms.

    Yields each round's view, arrivals and the stream state after the
    call; with a ``reference`` body, each round's arrivals must be the
    reference's, run on a twin built alike.
    """
    swarms = SwarmRegistry(mu=2.0, duration=4)
    for view in _views(swarms):
        expected = None if reference is None else _pairs(reference(view))
        boxes, videos = crowd.demand_arrays_for_round(view)
        pairs = list(zip(boxes.tolist(), videos.tolist()))
        if expected is not None:
            assert pairs == expected
        for _, video_id in pairs:
            swarms.enter(video_id, view.time)
        yield view, pairs, crowd._rng.bit_generator.state


def test_flash_crowd_past_its_cap_stops_drawing_and_sends_nobody():
    """Same arrivals as the body that shuffles every round; no draw once
    the last target has reached its cap."""

    def make():
        return FlashCrowdWorkload(
            mu=2.0, target_videos=(0, 3), start_time=1, max_members=4, random_state=3
        )

    drawing = make()
    crowd = make()
    capped_at, states = None, []
    for view, _, state in _run(crowd, lambda view: _list_flashcrowd_drawing(drawing, view)):
        states.append(state)
        if capped_at is None and crowd._sent == {0: 4, 3: 4}:
            capped_at = view.time
    # Video 0 reaches its cap in round 4 and video 3 in round 5, drawing.
    assert capped_at == 5 and states[5] != states[4]
    assert all(state == states[capped_at] for state in states[capped_at:])
    # The drawing body kept shuffling past the cap.
    assert drawing._rng.bit_generator.state != states[-1]


def test_staggered_crowd_draws_until_every_video_is_capped():
    """A video not yet started keeps the stream drawing while the started
    ones are capped; once every video is capped, the stream stops."""
    crowd = StaggeredFlashCrowdWorkload(
        mu=3.0, target_videos=(1, 4), start_times=(0, 6), max_members=2, random_state=13
    )
    # The stream of a crowd that shuffles every round, capped or not.
    drawing = np.random.default_rng(13)
    capped_at, sent, states = None, [], []
    for view, _, state in _run(crowd):
        if capped_at is None:
            drawing.shuffle(view.free_boxes.copy())
        assert state == drawing.bit_generator.state
        sent.append(dict(crowd._sent))
        states.append(state)
        if capped_at is None and crowd._sent == {1: 2, 4: 2}:
            capped_at = view.time
    # Video 1 is capped from round 0 and video 4 starts at round 6; the
    # stream moved in between.
    assert sent[5] == {1: 2, 4: 0} and states[5] != states[0]
    assert capped_at == 6
    assert all(state == states[capped_at] for state in states[capped_at:])

    # The twin run of the ``staggered`` case compares rounds past every cap.
    staggered = {case[0]: case[1] for case in CASES}["staggered"]()
    for _ in _run(staggered):
        pass
    assert staggered._sent == {1: 4, 4: 4, 6: 4}


@pytest.mark.parametrize(
    "factory",
    [
        lambda: FlashCrowdWorkload(mu=2.0, target_videos=(0, 3), max_members=0, random_state=3),
        lambda: StaggeredFlashCrowdWorkload(
            mu=2.0, target_videos=(0, 3), start_times=(0, 2), max_members=0, random_state=3
        ),
    ],
    ids=["flashcrowd", "staggered"],
)
def test_a_cap_of_zero_draws_nothing(factory):
    crowd = factory()
    fresh = crowd._rng.bit_generator.state
    for _, pairs, state in _run(crowd):
        assert pairs == [] and state == fresh


def test_a_target_outside_the_catalog_raises_even_with_a_cap_of_zero():
    crowd = FlashCrowdWorkload(mu=2.0, target_videos=(0, 99), max_members=0, random_state=3)
    with pytest.raises(ValueError, match="target video 99 outside catalog of size 8"):
        next(_run(crowd))


def test_a_capped_crowd_resumes_from_a_file_checkpoint(tmp_path):
    """``flashcrowd_spike``'s crowd is capped from round 8 of 20: restored
    from a file at round 10, it steps to the uninterrupted run's digest."""
    spec = get_scenario("flashcrowd_spike")
    baseline = build_scenario(spec).session()
    baseline.step_until(round=20)

    interrupted = build_scenario(spec).session()
    interrupted.step_until(round=10)
    crowd = interrupted._workload.phases[1].generator
    assert isinstance(crowd, FlashCrowdWorkload) and crowd._sent == {0: 25}
    path = interrupted.snapshot().to_file(tmp_path / "crowd.ckpt")

    restored = VodSession.restore(SessionSnapshot.from_file(path))
    restored.step_until(round=20)
    assert restored.digest() == baseline.digest()
