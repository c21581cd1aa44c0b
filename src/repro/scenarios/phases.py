"""Phased workload composition.

A scenario's workload is a mix of phases: each phase owns a demand
generator and an active window ``[start, stop)``.  :class:`PhasedWorkload`
multiplexes them into the single :class:`~repro.workloads.base.DemandGenerator`
the engine expects, querying every phase whose window covers the current
round and dropping duplicate demands for the same box (the first demand
wins — the engine would reject the duplicate anyway, since a box plays at
most one video).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.preloading import Demand
from repro.workloads.base import DemandGenerator, SystemView

__all__ = ["WorkloadPhase", "PhasedWorkload"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class WorkloadPhase:
    """A generator together with its active round window ``[start, stop)``."""

    generator: DemandGenerator
    start: int = 0
    stop: Optional[int] = None

    def active_at(self, time: int) -> bool:
        """Whether the phase produces demands at round ``time``."""
        if time < self.start:
            return False
        return self.stop is None or time < self.stop


class PhasedWorkload:
    """Multiplex several windowed demand generators into one.

    Phases are queried in declaration order; a box demanded by an earlier
    phase in the same round is withheld from later phases' output.  A
    phase outside its window is *not* queried at all, so its internal
    random stream advances only during its own window — this keeps
    replays of multi-phase scenarios deterministic round by round.
    """

    def __init__(self, phases: Sequence[WorkloadPhase]):
        if not phases:
            raise ValueError("PhasedWorkload requires at least one phase")
        self._phases: Tuple[WorkloadPhase, ...] = tuple(phases)

    @property
    def phases(self) -> Tuple[WorkloadPhase, ...]:
        """The phases, in declaration (priority) order."""
        return self._phases

    def demand_arrays_for_round(
        self, view: SystemView
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Arrivals of every phase active at ``view.time``, as ``(box_ids, video_ids)``.

        Phases are queried in declaration order; a box keeps only its
        first demand of the round.
        """
        arrivals = [
            phase.generator.demand_arrays_for_round(view)
            for phase in self._phases
            if phase.active_at(view.time)
        ]
        if not arrivals:
            return _EMPTY, _EMPTY
        boxes = np.concatenate([a[0] for a in arrivals])
        videos = np.concatenate([a[1] for a in arrivals])
        _, first = np.unique(boxes, return_index=True)
        if first.size == boxes.size:
            return boxes, videos
        first.sort()
        return boxes[first], videos[first]

    def demands_for_round(self, view: SystemView) -> List[Demand]:
        """:meth:`demand_arrays_for_round` as :class:`Demand` objects.

        Nothing in the library calls this object form.  It stays because
        the end-to-end benchmark's tracer (``benchmarks/e2e/spans.py``)
        wraps it by name and fails when it is missing.
        """
        boxes, videos = self.demand_arrays_for_round(view)
        return [
            Demand(time=view.time, box_id=b, video_id=v)
            for b, v in zip(boxes.tolist(), videos.tolist())
        ]
