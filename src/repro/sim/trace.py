"""Structured trace of a simulation run.

The trace records every event (demand, request, connection, playback,
infeasibility) in chronological order and offers simple query and export
helpers.  Tests use the trace to assert causal properties ("no connection
before its request", "start-up delay is exactly 3 rounds"); experiments
export it for inspection.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Callable, Dict, Iterable, List, Optional, Type, TypeVar, Union

from repro.sim.events import (
    ConnectionEvent,
    DemandEvent,
    InfeasibilityEvent,
    PlaybackStartEvent,
    RequestEvent,
)

__all__ = ["SimulationTrace"]

Event = Union[
    DemandEvent,
    RequestEvent,
    ConnectionEvent,
    PlaybackStartEvent,
    InfeasibilityEvent,
]
E = TypeVar("E")


class SimulationTrace:
    """Chronological list of simulation events with query helpers."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def record(self, event: Event) -> None:
        """Append an event to the trace."""
        self._events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        """Append several events."""
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def events(self) -> List[Event]:
        """All recorded events, in recording order."""
        return list(self._events)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def of_type(self, event_type: Type[E]) -> List[E]:
        """All events of a given type."""
        return [e for e in self._events if isinstance(e, event_type)]

    def at_round(self, time: int) -> List[Event]:
        """All events recorded for round ``time``."""
        return [e for e in self._events if getattr(e, "time", None) == time]

    def filter(self, predicate: Callable[[Event], bool]) -> List[Event]:
        """Events satisfying an arbitrary predicate."""
        return [e for e in self._events if predicate(e)]

    def demands(self) -> List[DemandEvent]:
        """All demand events."""
        return self.of_type(DemandEvent)

    def requests(self) -> List[RequestEvent]:
        """All request events."""
        return self.of_type(RequestEvent)

    def connections(self) -> List[ConnectionEvent]:
        """All connection events."""
        return self.of_type(ConnectionEvent)

    def playback_starts(self) -> List[PlaybackStartEvent]:
        """All playback-start events."""
        return self.of_type(PlaybackStartEvent)

    def infeasibilities(self) -> List[InfeasibilityEvent]:
        """All infeasibility (obstruction) events."""
        return self.of_type(InfeasibilityEvent)

    def startup_delay_of(self, box_id: int, video_id: int) -> Optional[int]:
        """Start-up delay observed for ``(box_id, video_id)``, if playback started."""
        for event in self.of_type(PlaybackStartEvent):
            if event.box_id == box_id and event.video_id == video_id:
                return event.startup_delay
        return None

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_records(self) -> List[Dict[str, object]]:
        """Export the trace as a list of plain dictionaries (JSON-friendly)."""
        records: List[Dict[str, object]] = []
        for event in self._events:
            record: Dict[str, object] = {"event": type(event).__name__}
            record.update(asdict(event))
            records.append(record)
        return records

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize the trace to a JSON string."""
        return json.dumps(self.to_records(), indent=indent)

    @classmethod
    def from_records(cls, records: Iterable[Dict[str, object]]) -> "SimulationTrace":
        """Rebuild a trace from :meth:`to_records` output."""
        event_types: Dict[str, type] = {
            t.__name__: t
            for t in (
                DemandEvent,
                RequestEvent,
                ConnectionEvent,
                PlaybackStartEvent,
                InfeasibilityEvent,
            )
        }
        trace = cls()
        for record in records:
            payload = dict(record)
            name = payload.pop("event", None)
            event_type = event_types.get(str(name))
            if event_type is None:
                raise ValueError(f"unknown trace event type {name!r}")
            if event_type is InfeasibilityEvent:
                witness = payload.get("witness_requests")
                if witness is not None:
                    payload["witness_requests"] = tuple(
                        tuple(int(v) for v in triple) for triple in witness
                    )
            trace.record(event_type(**payload))
        return trace
