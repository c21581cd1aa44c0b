"""Round-based discrete-event simulator of the fully distributed VoD system.

The engine (:class:`repro.sim.engine.VodSimulator`) executes the model of
Section 1.1 faithfully: demands arrive per round, the preloading strategy
turns them into dated stripe requests, and a max-flow connection matching
is recomputed every round over all active requests (Section 2.2).  The
supporting modules provide the round clock, swarm tracking with
growth-bound validation, metrics aggregation and a structured event trace.
"""

from repro.sim.churn import ChurnSchedule, Outage, random_churn_schedule
from repro.sim.clock import RoundClock
from repro.sim.engine import RoundObservation, SimulationResult, VodSimulator
from repro.sim.events import (
    ConnectionEvent,
    DemandEvent,
    InfeasibilityEvent,
    PlaybackStartEvent,
    RequestEvent,
)
from repro.sim.metrics import MetricsCollector, RoundStats, SimulationMetrics
from repro.sim.scheduler import ActiveRequestPool
from repro.sim.swarm import SwarmRegistry, max_new_members
from repro.sim.trace import SimulationTrace

__all__ = [
    "ChurnSchedule",
    "Outage",
    "random_churn_schedule",
    "RoundClock",
    "RoundObservation",
    "SimulationResult",
    "VodSimulator",
    "ConnectionEvent",
    "DemandEvent",
    "InfeasibilityEvent",
    "PlaybackStartEvent",
    "RequestEvent",
    "MetricsCollector",
    "RoundStats",
    "SimulationMetrics",
    "ActiveRequestPool",
    "SwarmRegistry",
    "max_new_members",
    "SimulationTrace",
]
