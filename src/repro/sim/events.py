"""Event records emitted by the simulator.

Every observable state change of a run is captured as a small frozen
dataclass: demand arrivals, stripe requests, wired connections, playback
starts and infeasibility (obstruction) events.  The trace module collects
them; tests and experiments assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "DemandEvent",
    "RequestEvent",
    "ConnectionEvent",
    "PlaybackStartEvent",
    "InfeasibilityEvent",
]


@dataclass(frozen=True)
class DemandEvent:
    """A user demand arrived: ``box_id`` wants ``video_id`` at round ``time``."""

    time: int
    box_id: int
    video_id: int


@dataclass(frozen=True)
class RequestEvent:
    """A stripe request was issued (preloading or postponed)."""

    time: int
    box_id: int
    stripe_id: int
    is_preload: bool


@dataclass(frozen=True)
class ConnectionEvent:
    """A connection was wired: ``server_box`` uploads ``stripe_id`` to ``client_box``."""

    time: int
    server_box: int
    client_box: int
    stripe_id: int


@dataclass(frozen=True)
class PlaybackStartEvent:
    """Playback of ``video_id`` started on ``box_id`` at round ``time``.

    ``startup_delay`` is the number of rounds elapsed since the demand.
    """

    time: int
    box_id: int
    video_id: int
    startup_delay: int


@dataclass(frozen=True)
class InfeasibilityEvent:
    """The round's connection matching was infeasible (an obstruction occurred).

    ``witness_requests`` holds ``(stripe_id, request_time, box_id)`` triples
    of a request subset violating the Lemma 1 condition, when available.
    """

    time: int
    unmatched: int
    witness_requests: Optional[Tuple[Tuple[int, int, int], ...]] = None
