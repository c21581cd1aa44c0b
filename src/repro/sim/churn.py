"""Box churn / failure injection.

The paper assumes boxes are "usually always powered on", but any practical
deployment sees churn: boxes going offline take both their upload capacity
and their stored replicas out of the system for a while.  This module adds
a simple churn model to the simulator (an extension, not part of the
paper's analysis):

* :class:`ChurnSchedule` — a deterministic table of outage intervals
  ``(box_id, start_round, end_round)``, kept as columns;
* :func:`random_churn_schedule` — draw outages with a given per-round
  failure probability and outage duration;
* the engine consults :meth:`ChurnSchedule.offline_array` every round and
  (i) removes offline boxes from the demand-eligible set and (ii) zeroes
  their upload capacity in the connection matching, which is exactly the
  effect of an unplugged set-top box.

Because the random allocation stores ``k`` replicas of every stripe on
independent boxes, the system tolerates moderate churn without any repair
mechanism — the robustness experiment (`benchmarks/bench_churn_robustness.py`)
measures how feasibility degrades as the offline fraction grows, i.e. the
empirical slack left by the expander property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.util.rng import RandomState, as_generator
from repro.util.validation import (
    check_non_negative_integer,
    check_positive_integer,
    check_probability,
)

__all__ = ["Outage", "ChurnSchedule", "random_churn_schedule"]


@dataclass(frozen=True, order=True)
class Outage:
    """One outage: ``box_id`` is offline during rounds ``[start, end)``."""

    box_id: int
    start: int
    end: int

    def __post_init__(self) -> None:
        check_non_negative_integer(self.box_id, "box_id")
        check_non_negative_integer(self.start, "start")
        check_non_negative_integer(self.end, "end")
        if self.end <= self.start:
            raise ValueError(
                f"outage end ({self.end}) must be after its start ({self.start})"
            )

    def covers(self, time: int) -> bool:
        """Whether the box is offline at round ``time``."""
        return self.start <= time < self.end


class ChurnSchedule:
    """A set of box outages consulted by the simulator each round.

    Outages are kept as box/start/end columns ordered by start, so the
    per-round "who is offline" query is a vectorized mask over the
    outages started by then instead of an object scan (the engine asks
    several times per round); the most recent round's answer is cached.
    """

    def __init__(self, outages: Iterable[Outage] = ()):
        outages = list(outages)
        n = len(outages)
        self._set_columns(
            np.fromiter((o.box_id for o in outages), dtype=np.int64, count=n),
            np.fromiter((o.start for o in outages), dtype=np.int64, count=n),
            np.fromiter((o.end for o in outages), dtype=np.int64, count=n),
        )

    def _set_columns(self, boxes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
        order = np.lexsort((ends, boxes, starts))
        self._boxes = boxes[order]
        self._starts = starts[order]
        self._ends = ends[order]
        self._cached_time: Optional[int] = None
        self._cached_offline = np.empty(0, dtype=np.int64)

    @property
    def outages(self) -> Tuple[Outage, ...]:
        """All outages, sorted by box then time."""
        rows = zip(self._boxes.tolist(), self._starts.tolist(), self._ends.tolist())
        return tuple(sorted(Outage(*row) for row in rows))

    def __len__(self) -> int:
        return int(self._boxes.size)

    def offline_array(self, time: int) -> np.ndarray:
        """Sorted distinct boxes offline at round ``time`` (cached)."""
        check_non_negative_integer(time, "time")
        if self._cached_time == time:
            return self._cached_offline
        started = np.searchsorted(self._starts, time, side="right")
        offline = np.sort(self._boxes[:started][self._ends[:started] > time])
        if offline.size > 1:
            # A box with overlapping outages is listed once: drop the
            # adjacent duplicates (``np.unique`` costs ten times as much).
            distinct = np.empty(offline.size, dtype=bool)
            distinct[0] = True
            np.not_equal(offline[1:], offline[:-1], out=distinct[1:])
            offline = offline[distinct]
        self._cached_time = time
        self._cached_offline = offline
        return offline

    def offline_boxes(self, time: int) -> Set[int]:
        """Boxes offline at round ``time``."""
        return set(self.offline_array(time).tolist())

    def is_offline(self, box_id: int, time: int) -> bool:
        """Whether ``box_id`` is offline at round ``time``."""
        started = np.searchsorted(self._starts, time, side="right")
        return bool(
            np.any((self._boxes[:started] == box_id) & (self._ends[:started] > time))
        )

    def max_concurrent_outages(self, horizon: int) -> int:
        """Largest number of simultaneously offline boxes in ``[0, horizon)``."""
        check_positive_integer(horizon, "horizon")
        return max(self.offline_array(t).size for t in range(horizon))


def random_churn_schedule(
    num_boxes: int,
    horizon: int,
    failure_probability: float,
    outage_duration: int,
    random_state: RandomState = None,
    protected_boxes: Sequence[int] = (),
) -> ChurnSchedule:
    """Draw a random churn schedule.

    Each box independently fails at each round with ``failure_probability``
    (while online) and stays offline for ``outage_duration`` rounds.
    ``protected_boxes`` never fail (useful to model a small always-on core).
    """
    check_positive_integer(num_boxes, "num_boxes")
    check_positive_integer(horizon, "horizon")
    check_probability(failure_probability, "failure_probability")
    check_positive_integer(outage_duration, "outage_duration")
    gen = as_generator(random_state)
    boxes: List[np.ndarray] = []
    starts: List[np.ndarray] = []
    eligible_base = np.ones(num_boxes, dtype=bool)
    for b in protected_boxes:
        # Out-of-range ids were silently inert under the historical scalar
        # loop (`box in protected` never matched them); keep that contract
        # instead of letting negative ids wrap around.
        if 0 <= int(b) < num_boxes:
            eligible_base[int(b)] = False
    offline_until = np.zeros(num_boxes, dtype=np.int64)
    for t in range(horizon):
        # One batched draw per round consumes the generator stream exactly
        # like the per-box scalar draws did (ascending box order over the
        # online, unprotected boxes), so schedules are bit-identical to the
        # historical loop at any population size.
        eligible = np.flatnonzero(eligible_base & (offline_until <= t))
        if eligible.size == 0:
            continue
        failed = eligible[gen.random(eligible.size) < failure_probability]
        boxes.append(failed)
        starts.append(np.full(failed.size, t, dtype=np.int64))
        offline_until[failed] = t + outage_duration
    schedule = ChurnSchedule()
    if boxes:
        start_column = np.concatenate(starts)
        schedule._set_columns(
            np.concatenate(boxes), start_column, start_column + outage_duration
        )
    return schedule
