"""Seed-deterministic fault plans and the driver that applies them.

A *fault plan* is a precomputed schedule of :class:`FaultEvent`s, built
once at scenario-compile time from a dedicated child stream of the
scenario master seed.  Precomputing has two consequences the recovery
guarantees rely on:

* **determinism** — the same spec and seed always yield the same events,
  so faulted runs replay bit-identically (goldens, oracle spot-checks);
* **snapshot safety** — the driver is stateless between rounds (events
  are keyed by absolute round and carry explicit target values), so it
  pickles with the session and a restore mid-fault-window replays the
  remaining events exactly.

Plans are registered as ``"fault"`` components; factories receive
``(params, population, horizon, rng)`` and return a :class:`FaultPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.api.registry import create_component, register_component

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultDriver",
    "build_fault_driver",
]

#: Actions a fault event may apply to the engine.
_ACTIONS = ("set_capacity",)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled mutation of the live engine.

    ``action`` is ``"set_capacity"``: set ``box_id``'s upload to
    ``value`` bitrates — 0.0 models a crash, the original upload a
    rejoin.
    """

    time: int
    action: str
    box_id: int = -1
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")
        if self.action not in _ACTIONS:
            raise ValueError(
                f"action must be one of {_ACTIONS}, got {self.action!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A fault component's full precomputed schedule."""

    kind: str
    events: Tuple[FaultEvent, ...]


class FaultDriver:
    """Applies scheduled fault events to an engine, round by round.

    The driver holds no mutable state: :meth:`apply` looks up the events
    of the given absolute round and applies them through the engine's
    mutation hooks.  It is picklable (sessions snapshot it) and safe to
    call exactly once per round, which :meth:`VodSession.step` does
    before the engine steps.
    """

    def __init__(self, events: Sequence[FaultEvent]):
        ordered = sorted(events, key=lambda e: (e.time, e.action, e.box_id))
        self._events: Tuple[FaultEvent, ...] = tuple(ordered)
        by_time: Dict[int, List[FaultEvent]] = {}
        for event in self._events:
            by_time.setdefault(int(event.time), []).append(event)
        self._by_time = {t: tuple(evs) for t, evs in by_time.items()}

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """All scheduled events, ordered by round."""
        return self._events

    def events_at(self, time: int) -> Tuple[FaultEvent, ...]:
        """The events scheduled for round ``time`` (possibly empty)."""
        return self._by_time.get(int(time), ())

    def apply(self, engine, time: int) -> int:
        """Apply round ``time``'s events to ``engine``; returns the count."""
        events = self.events_at(time)
        for event in events:
            engine.set_upload_capacity(event.box_id, event.value)
        return len(events)


def _window(params: Mapping[str, Any], horizon: int) -> Tuple[int, int]:
    """Validated ``(start, duration)`` of a fault window."""
    start = int(params.get("start", 2))
    duration = int(params.get("duration", 3))
    if start < 0:
        raise ValueError(f"fault start must be non-negative, got {start}")
    if duration <= 0:
        raise ValueError(f"fault duration must be positive, got {duration}")
    if start >= horizon:
        raise ValueError(
            f"fault start {start} is beyond the scenario horizon {horizon}"
        )
    return start, duration


def _chosen_boxes(
    params: Mapping[str, Any], population, rng: np.random.Generator
) -> List[int]:
    """Deterministically draw the affected boxes from the fault stream."""
    n = population.n
    if "boxes" in params:
        boxes = [int(b) for b in params["boxes"]]
        for box in boxes:
            if not 0 <= box < n:
                raise ValueError(f"fault box {box} outside the population of {n}")
        return sorted(set(boxes))
    count = params.get("count")
    if count is None:
        fraction = float(params.get("fraction", 0.1))
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fault fraction must be in (0, 1], got {fraction}")
        count = max(1, int(round(fraction * n)))
    count = int(count)
    if not 0 < count <= n:
        raise ValueError(f"fault count must be in [1, {n}], got {count}")
    drawn = rng.choice(n, size=count, replace=False)
    return sorted(int(b) for b in drawn)


def box_crash_plan(
    params: Mapping[str, Any], population, horizon: int, rng: np.random.Generator
) -> FaultPlan:
    """A crash/rejoin burst: chosen boxes upload nothing for a window.

    Parameters: ``start`` (default 2), ``duration`` (default 3) and one
    of ``boxes`` (explicit ids), ``count`` or ``fraction`` (default 0.1,
    drawn from the fault stream).  Crashed boxes rejoin at
    ``start + duration`` with their original upload capacity.
    """
    start, duration = _window(params, horizon)
    boxes = _chosen_boxes(params, population, rng)
    uploads = population.uploads
    events: List[FaultEvent] = []
    for box in boxes:
        events.append(FaultEvent(start, "set_capacity", box, 0.0))
        events.append(
            FaultEvent(start + duration, "set_capacity", box, float(uploads[box]))
        )
    return FaultPlan(kind="box_crash", events=tuple(events))


def brownout_plan(
    params: Mapping[str, Any], population, horizon: int, rng: np.random.Generator
) -> FaultPlan:
    """An upload-capacity brownout: chosen boxes run at ``factor`` for a window.

    Parameters: ``start``, ``duration``, ``factor`` (default 0.5, in
    ``[0, 1)``) and the box selection of :func:`box_crash_plan`.
    """
    start, duration = _window(params, horizon)
    factor = float(params.get("factor", 0.5))
    if not 0.0 <= factor < 1.0:
        raise ValueError(f"brownout factor must be in [0, 1), got {factor}")
    boxes = _chosen_boxes(params, population, rng)
    uploads = population.uploads
    events: List[FaultEvent] = []
    for box in boxes:
        events.append(
            FaultEvent(start, "set_capacity", box, factor * float(uploads[box]))
        )
        events.append(
            FaultEvent(start + duration, "set_capacity", box, float(uploads[box]))
        )
    return FaultPlan(kind="brownout", events=tuple(events))


#: Built-in fault component kinds.
FAULT_KINDS = ("box_crash", "brownout")

register_component(
    "fault", "box_crash", box_crash_plan,
    "crash/rejoin burst: chosen boxes upload nothing for a window",
)
register_component(
    "fault", "brownout", brownout_plan,
    "upload brownout: chosen boxes run at a fraction of capacity",
)


def build_fault_driver(
    fault_specs, population, horizon: int, rngs: Sequence[np.random.Generator]
) -> FaultDriver:
    """Compile fault specs into one :class:`FaultDriver`.

    ``rngs`` must hold one dedicated generator per spec (spawned from the
    scenario master seed *after* the pre-existing streams, so fault-free
    scenarios keep their recorded randomness untouched).
    """
    if len(rngs) != len(fault_specs):
        raise ValueError("need exactly one rng per fault spec")
    events: List[FaultEvent] = []
    for spec, rng in zip(fault_specs, rngs):
        plan = create_component(
            "fault", spec.kind, dict(spec.params), population, horizon, rng
        )
        events.extend(plan.events)
    return FaultDriver(events)
