"""Demand-generator interface.

A *workload* decides, round by round, which free boxes demand which
videos.  Generators receive a :class:`SystemView` — a read-only snapshot
of the running system (allocation, swarm sizes, which boxes are free) — so
that adaptive adversaries can base their choices on the current state, as
the paper's worst-case quantification over "any sequence of demands"
allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.core.allocation import Allocation
from repro.core.parameters import BoxPopulation
from repro.core.preloading import Demand
from repro.core.video import Catalog
from repro.sim.swarm import SwarmRegistry

__all__ = [
    "SystemView",
    "DemandGenerator",
    "StaticDemandSchedule",
    "shuffled_free_boxes",
]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class SystemView:
    """Read-only snapshot handed to demand generators each round.

    Attributes
    ----------
    time:
        The current round.
    catalog:
        The video catalog.
    allocation:
        The static allocation (adversaries may inspect it).
    population:
        The box population.
    swarms:
        The swarm registry (current swarm sizes, per video).
    free_boxes:
        Identifiers of boxes not currently playing a video — only these
        may issue a new demand this round.
    """

    time: int
    catalog: Catalog
    allocation: Allocation
    population: BoxPopulation
    swarms: SwarmRegistry
    free_boxes: np.ndarray


@runtime_checkable
class DemandGenerator(Protocol):
    """Protocol for demand generators.

    :meth:`demand_arrays_for_round` is the one method.  It must not mutate
    ``view.free_boxes``: every phase of a round reads the same array
    (:func:`shuffled_free_boxes` shuffles a copy).
    """

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return the demands arriving in ``[view.time − 1, view.time[``.

        The demands come as int64 ``(box_ids, video_ids)`` arrays, one
        entry per demand.  Implementations must only use boxes from
        ``view.free_boxes`` and should respect the swarm-growth bound they
        claim to model (the engine records violations either way).
        """
        ...  # pragma: no cover


class StaticDemandSchedule:
    """A fixed, precomputed demand schedule (useful in tests and replays)."""

    def __init__(self, demands: Sequence[Demand]):
        by_round: Dict[int, List[Tuple[int, int]]] = {}
        for demand in demands:
            by_round.setdefault(demand.time, []).append((demand.box_id, demand.video_id))
        #: Per round, the ``(box_ids, video_ids)`` rows in schedule order.
        self._by_round: Dict[int, np.ndarray] = {
            time: np.array(pairs, dtype=np.int64).T for time, pairs in by_round.items()
        }

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The scheduled demands of ``view.time`` whose box is free, in schedule order."""
        scheduled = self._by_round.get(view.time)
        if scheduled is None:
            return _EMPTY, _EMPTY
        boxes, videos = scheduled
        free = np.isin(boxes, view.free_boxes)
        return boxes[free], videos[free]

    @property
    def total_demands(self) -> int:
        """Total number of scheduled demands (regardless of box availability)."""
        return sum(scheduled.shape[1] for scheduled in self._by_round.values())


def shuffled_free_boxes(view: SystemView, rng: np.random.Generator) -> np.ndarray:
    """An int64 copy of ``view.free_boxes``, shuffled by ``rng``.

    Every phase of a round reads the same ``view.free_boxes``, so the
    array is copied, never shuffled in place.  ``Generator.shuffle`` makes
    the same ``random_interval`` draws for an array as for a list of the
    same length: the permutation, and ``rng``'s state after it, are those
    of shuffling ``list(view.free_boxes)``.
    """
    free = np.array(view.free_boxes, dtype=np.int64)
    rng.shuffle(free)
    return free
