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
from typing import List, Protocol, Sequence, Tuple, runtime_checkable

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
    "demand_arrays",
    "demands_from_arrays",
    "shuffled_free_boxes",
]


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

    :meth:`demands_for_round` is the required method.  A generator may
    also offer ``demand_arrays_for_round(view) -> (box_ids, video_ids)``,
    the same arrivals as int64 arrays drawn from the same random stream;
    :func:`demand_arrays` prefers it when present.  Neither form may
    mutate ``view.free_boxes``: every phase of a round reads the same
    array (:func:`shuffled_free_boxes` shuffles a copy).
    """

    def demands_for_round(self, view: SystemView) -> List[Demand]:
        """Return the demands arriving in ``[view.time − 1, view.time[``.

        Implementations must only use boxes from ``view.free_boxes`` and
        should respect the swarm-growth bound they claim to model (the
        engine records violations either way).
        """
        ...  # pragma: no cover


class StaticDemandSchedule:
    """A fixed, precomputed demand schedule (useful in tests and replays)."""

    def __init__(self, demands: Sequence[Demand]):
        self._by_round: dict[int, List[Demand]] = {}
        for demand in demands:
            self._by_round.setdefault(demand.time, []).append(demand)

    def demands_for_round(self, view: SystemView) -> List[Demand]:
        """Return the scheduled demands whose time equals ``view.time``."""
        free = set(int(b) for b in view.free_boxes)
        return [d for d in self._by_round.get(view.time, []) if d.box_id in free]

    @property
    def total_demands(self) -> int:
        """Total number of scheduled demands (regardless of box availability)."""
        return sum(len(v) for v in self._by_round.values())


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


def demands_from_arrays(
    time: int, box_ids: np.ndarray, video_ids: np.ndarray
) -> List[Demand]:
    """Demand objects for one round's ``(box, video)`` arrival arrays."""
    return [
        Demand(time=time, box_id=b, video_id=v)
        for b, v in zip(box_ids.tolist(), video_ids.tolist())
    ]


def demand_arrays(
    generator: DemandGenerator, view: SystemView
) -> Tuple[np.ndarray, np.ndarray]:
    """One round's arrivals of ``generator`` as int64 ``(box_ids, video_ids)``.

    Uses the generator's ``demand_arrays_for_round`` when it has one;
    otherwise converts its :meth:`~DemandGenerator.demands_for_round`
    list, rejecting any demand dated for another round than ``view.time``.
    """
    supplier = getattr(generator, "demand_arrays_for_round", None)
    if supplier is not None:
        return supplier(view)
    demands = generator.demands_for_round(view)
    for demand in demands:
        if demand.time != view.time:
            raise ValueError(
                f"workload produced a demand for round {demand.time} "
                f"during round {view.time}"
            )
    count = len(demands)
    return (
        np.fromiter((d.box_id for d in demands), dtype=np.int64, count=count),
        np.fromiter((d.video_id for d in demands), dtype=np.int64, count=count),
    )
