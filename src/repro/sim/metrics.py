"""Metrics collected during a simulation run.

The collector aggregates per-round observations into the quantities the
experiments report: feasibility rate, unmatched requests, per-box upload
utilization, start-up delays and obstruction events.  It is deliberately
simple (plain Python + NumPy) so that every number in EXPERIMENTS.md can
be traced to one accumulation site here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["RoundStats", "MetricsCollector", "SimulationMetrics"]


@dataclass(frozen=True)
class RoundStats:
    """Per-round aggregate statistics."""

    time: int
    active_requests: int
    new_requests: int
    matched: int
    unmatched: int
    feasible: bool
    upload_used: int
    upload_capacity: int

    @property
    def utilization(self) -> float:
        """Fraction of the aggregate upload capacity in use this round."""
        if self.upload_capacity == 0:
            return 0.0
        return self.upload_used / self.upload_capacity

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form (numpy scalars coerced to Python types)."""
        return {
            "time": int(self.time),
            "active_requests": int(self.active_requests),
            "new_requests": int(self.new_requests),
            "matched": int(self.matched),
            "unmatched": int(self.unmatched),
            "feasible": bool(self.feasible),
            "upload_used": int(self.upload_used),
            "upload_capacity": int(self.upload_capacity),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RoundStats":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            time=int(data["time"]),
            active_requests=int(data["active_requests"]),
            new_requests=int(data["new_requests"]),
            matched=int(data["matched"]),
            unmatched=int(data["unmatched"]),
            feasible=bool(data["feasible"]),
            upload_used=int(data["upload_used"]),
            upload_capacity=int(data["upload_capacity"]),
        )


@dataclass(frozen=True)
class SimulationMetrics:
    """Final aggregated metrics of a simulation run."""

    rounds: int
    total_demands: int
    total_requests: int
    infeasible_rounds: int
    unmatched_requests: int
    max_startup_delay: Optional[int]
    mean_startup_delay: Optional[float]
    peak_utilization: float
    mean_utilization: float
    peak_box_load: int
    swarm_growth_violations: int
    round_stats: Tuple[RoundStats, ...]

    @property
    def all_feasible(self) -> bool:
        """Whether every round's connection matching was feasible."""
        return self.infeasible_rounds == 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form, round-tripping through :meth:`from_dict`.

        Every value is a native Python scalar (numpy scalars coerced), so the
        output feeds ``json.dumps`` directly — this is what external services
        log from a live session.
        """
        return {
            "rounds": int(self.rounds),
            "total_demands": int(self.total_demands),
            "total_requests": int(self.total_requests),
            "infeasible_rounds": int(self.infeasible_rounds),
            "unmatched_requests": int(self.unmatched_requests),
            "max_startup_delay": None
            if self.max_startup_delay is None
            else int(self.max_startup_delay),
            "mean_startup_delay": None
            if self.mean_startup_delay is None
            else float(self.mean_startup_delay),
            "peak_utilization": float(self.peak_utilization),
            "mean_utilization": float(self.mean_utilization),
            "peak_box_load": int(self.peak_box_load),
            "swarm_growth_violations": int(self.swarm_growth_violations),
            "round_stats": [stats.to_dict() for stats in self.round_stats],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationMetrics":
        """Rebuild from :meth:`to_dict` output."""
        max_delay = data.get("max_startup_delay")
        mean_delay = data.get("mean_startup_delay")
        return cls(
            rounds=int(data["rounds"]),
            total_demands=int(data["total_demands"]),
            total_requests=int(data["total_requests"]),
            infeasible_rounds=int(data["infeasible_rounds"]),
            unmatched_requests=int(data["unmatched_requests"]),
            max_startup_delay=None if max_delay is None else int(max_delay),
            mean_startup_delay=None if mean_delay is None else float(mean_delay),
            peak_utilization=float(data["peak_utilization"]),
            mean_utilization=float(data["mean_utilization"]),
            peak_box_load=int(data["peak_box_load"]),
            swarm_growth_violations=int(data["swarm_growth_violations"]),
            round_stats=tuple(
                RoundStats.from_dict(stats) for stats in data.get("round_stats", ())
            ),
        )

    def describe(self) -> Dict[str, float]:
        """Flat dictionary view used by experiment tables."""
        return {
            "rounds": self.rounds,
            "total_demands": self.total_demands,
            "total_requests": self.total_requests,
            "infeasible_rounds": self.infeasible_rounds,
            "unmatched_requests": self.unmatched_requests,
            "all_feasible": self.all_feasible,
            "max_startup_delay": self.max_startup_delay
            if self.max_startup_delay is not None
            else float("nan"),
            "mean_startup_delay": self.mean_startup_delay
            if self.mean_startup_delay is not None
            else float("nan"),
            "peak_utilization": self.peak_utilization,
            "mean_utilization": self.mean_utilization,
            "peak_box_load": self.peak_box_load,
            "swarm_growth_violations": self.swarm_growth_violations,
        }


class MetricsCollector:
    """Accumulates per-round statistics and start-up delays."""

    def __init__(self, num_boxes: int):
        if num_boxes <= 0:
            raise ValueError(f"num_boxes must be positive, got {num_boxes}")
        self._num_boxes = num_boxes
        self._round_stats: List[RoundStats] = []
        # Start-up delays as running totals: ``finalize`` reads only their
        # maximum and mean, and the float64 mean of integers below 2**53
        # is the correctly rounded ``total / count`` either way.
        self._startup_delay_count = 0
        self._startup_delay_total = 0
        self._startup_delay_max = 0
        self._total_demands = 0
        self._total_requests = 0
        self._peak_box_load = 0
        self._swarm_violations = 0

    @property
    def rounds_recorded(self) -> int:
        """Number of rounds recorded so far."""
        return len(self._round_stats)

    @property
    def last_round(self) -> Optional[RoundStats]:
        """The most recently recorded round's statistics (``None`` before any)."""
        return self._round_stats[-1] if self._round_stats else None

    def grow(self, num_boxes: int) -> None:
        """Record that the population grew to ``num_boxes`` boxes."""
        if num_boxes < self._num_boxes:
            raise ValueError(
                f"population cannot shrink: {num_boxes} < {self._num_boxes}"
            )
        self._num_boxes = num_boxes

    # ------------------------------------------------------------------ #
    # Accumulation
    # ------------------------------------------------------------------ #
    def record_demands(self, count: int) -> None:
        """Record ``count`` demand arrivals."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._total_demands += count

    def record_requests(self, count: int) -> None:
        """Record ``count`` newly issued stripe requests."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._total_requests += count

    def record_round(
        self,
        time: int,
        active_requests: int,
        new_requests: int,
        matched: int,
        feasible: bool,
        box_load: np.ndarray,
        upload_capacity: int,
    ) -> RoundStats:
        """Record the outcome of one round's connection matching."""
        stats = RoundStats(
            time=time,
            active_requests=active_requests,
            new_requests=new_requests,
            matched=matched,
            unmatched=active_requests - matched,
            feasible=feasible,
            upload_used=int(box_load.sum()),
            upload_capacity=int(upload_capacity),
        )
        self._round_stats.append(stats)
        if box_load.size:
            self._peak_box_load = max(self._peak_box_load, int(box_load.max()))
        return stats

    def record_startup_delays(self, delays: np.ndarray) -> None:
        """Record a round's start-up delays."""
        if delays.size:
            if int(delays.min()) < 0:
                raise ValueError("delay must be non-negative")
            self._startup_delay_count += int(delays.size)
            self._startup_delay_total += int(delays.sum())
            self._startup_delay_max = max(self._startup_delay_max, int(delays.max()))

    def record_swarm_violations(self, count: int) -> None:
        """Record the (final) number of swarm-growth violations."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._swarm_violations = count

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #
    def finalize(self) -> SimulationMetrics:
        """Aggregate everything recorded so far into a :class:`SimulationMetrics`."""
        infeasible = sum(1 for s in self._round_stats if not s.feasible)
        unmatched = sum(s.unmatched for s in self._round_stats)
        utilizations = [s.utilization for s in self._round_stats]
        count = self._startup_delay_count
        return SimulationMetrics(
            rounds=len(self._round_stats),
            total_demands=self._total_demands,
            total_requests=self._total_requests,
            infeasible_rounds=infeasible,
            unmatched_requests=unmatched,
            max_startup_delay=self._startup_delay_max if count else None,
            mean_startup_delay=self._startup_delay_total / count if count else None,
            peak_utilization=max(utilizations) if utilizations else 0.0,
            mean_utilization=float(np.mean(utilizations)) if utilizations else 0.0,
            peak_box_load=self._peak_box_load,
            swarm_growth_violations=self._swarm_violations,
            round_stats=tuple(self._round_stats),
        )
