"""The round-based Video-on-Demand simulator.

:class:`VodSimulator` executes the paper's model end to end:

1. at every round ``t`` the workload generator produces the demands that
   arrived during ``[t−1, t[`` (restricted to boxes that are not already
   playing a video — at most one video per box);
2. the preloading scheduler converts demands into dated stripe requests
   (preload at ``t``, postponed at ``t+1``; or the relayed timeline of
   Section 4 for heterogeneous systems);
3. the set ``Y`` of *all* currently active requests is matched against the
   boxes possessing the corresponding data (static allocation + playback
   caches + relay caches) through a max-flow computation, with per-box
   capacity ``⌊u_b·c⌋`` stripes per round (minus any statically reserved
   relay upload);
4. feasibility, start-up delays, utilization and swarm-growth compliance
   are recorded; an infeasible round is an *obstruction witness* against
   the allocation.

The simulator never aborts on infeasibility by default — experiments want
to count infeasible rounds — but ``stop_on_infeasible=True`` makes it stop
early, which the catalog-search experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.allocation import Allocation, AllocationError
from repro.core.heterogeneous import CompensationPlan, RelayedPreloadingScheduler
from repro.core.matching import (
    ConnectionMatcher,
    ConnectionMatching,
    MatchDelta,
    PossessionIndex,
    RequestSet,
)
from repro.core.preloading import Demand, PreloadingScheduler
from repro.sim.churn import ChurnSchedule
from repro.sim.clock import RoundClock
from repro.sim.events import (
    ConnectionEvent,
    DemandEvent,
    InfeasibilityEvent,
    PlaybackStartEvent,
    RequestEvent,
)
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.rules import admission_mask, detect_playback_starts
from repro.sim.scheduler import ActiveRequestPool
from repro.sim.swarm import SwarmRegistry
from repro.sim.trace import SimulationTrace
from repro.workloads.base import DemandGenerator, SystemView
from repro.util.soa import ensure_column_capacity
from repro.util.validation import check_positive_integer

__all__ = ["RoundObservation", "SimulationResult", "VodSimulator"]


@dataclass(frozen=True)
class RoundObservation:
    """Snapshot of one round's matching instance, handed to observers.

    The observation is emitted *after* the round's matching and *before*
    the possession index mutates again (eviction happens at the start of
    the next round), so ``possession.adjacency_for(list(request_set),
    time)`` reproduces the exact bipartite instance the matcher solved.
    The differential solver oracle (:mod:`repro.scenarios.oracle`) relies
    on this to re-solve sampled rounds with independent kernels.
    """

    #: Round the matching was computed for.
    time: int
    #: The request multiset ``Y`` handed to the matcher.
    request_set: RequestSet
    #: The matching the engine's solver returned.
    matching: "ConnectionMatching"
    #: The possession index, still in this round's state.
    possession: PossessionIndex

    @property
    def capacities(self) -> np.ndarray:
        """Effective per-box capacities of this round's solved instance."""
        return self.matching.capacities


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a simulation run."""

    metrics: SimulationMetrics
    trace: SimulationTrace
    #: Demands that were rejected because the box was still playing a video.
    rejected_demands: int
    #: Whether the run stopped early because of an infeasible round.
    stopped_early: bool

    @property
    def feasible(self) -> bool:
        """Whether every round's matching was feasible."""
        return self.metrics.all_feasible

    def to_dict(self, include_trace: bool = False) -> Dict:
        """JSON-ready plain-dict form (numpy scalars coerced to Python types).

        The event trace is summarized by its length unless ``include_trace``
        is set (traces can be large); with it, the full event list round-trips
        through :meth:`from_dict`.
        """
        payload = {
            "metrics": self.metrics.to_dict(),
            "rejected_demands": int(self.rejected_demands),
            "stopped_early": bool(self.stopped_early),
            "feasible": bool(self.feasible),
            "trace_events": len(self.trace),
        }
        if include_trace:
            payload["trace"] = self.trace.to_records()
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "SimulationResult":
        """Rebuild from :meth:`to_dict` output.

        The trace is reconstructed when the payload embeds one (``to_dict``
        with ``include_trace=True``); otherwise it is left empty.
        """
        records = data.get("trace")
        trace = (
            SimulationTrace.from_records(records)
            if records is not None
            else SimulationTrace()
        )
        return cls(
            metrics=SimulationMetrics.from_dict(data["metrics"]),
            trace=trace,
            rejected_demands=int(data["rejected_demands"]),
            stopped_early=bool(data["stopped_early"]),
        )


class VodSimulator:
    """Round-based simulator of a fully distributed VoD system.

    Parameters
    ----------
    allocation:
        The static stripe allocation to exercise.
    mu:
        Swarm-growth bound the workload is supposed to respect (violations
        are recorded, not enforced).
    scheduler:
        A :class:`~repro.core.preloading.PreloadingScheduler` (homogeneous
        strategy) or :class:`~repro.core.heterogeneous.RelayedPreloadingScheduler`
        (heterogeneous relay strategy).  Defaults to the homogeneous one.
    compensation_plan:
        When using the relay strategy, the plan whose reserved upload must
        be subtracted from the matching capacities.
    record_connections:
        Whether to record one :class:`ConnectionEvent` per wired connection
        per round (verbose; useful in tests, heavy for large runs).
    stop_on_infeasible:
        Stop the run at the first infeasible round.
    churn:
        Optional :class:`~repro.sim.churn.ChurnSchedule`.  Offline boxes
        neither demand videos nor serve any stripe while offline (their
        upload capacity is zeroed in the matching); their stored replicas
        become available again when they come back.
    warm_start:
        Carry each round's request→box assignment into the next round as
        the seed of an incremental rematch: surviving pairs are validated
        (box still possesses the data, still has capacity, not offline)
        and only the delta is re-solved.  Each round's matched count and
        feasibility are identical to a cold solve of the same state (the
        kernel always returns a maximum matching), so fully feasible runs
        agree on every request-level observable: per-round matched
        counts, service rounds, startup delays, metrics.  *Which* box
        serves each request may still differ (maximum matchings are not
        unique), so connection-level records (``record_connections``
        events, per-box loads) are solver- and warm-start-dependent.  In
        overload regimes a partially matched round may serve a different
        (equally sized) request subset than a cold solve would, after
        which the two trajectories can diverge — as they also do between
        different cold solvers.  Experiments comparing trajectories at
        either level should pin both ``warm_start`` and ``solver``.
    solver:
        Matching kernel: a name handed to :class:`ConnectionMatcher` —
        ``"hopcroft_karp"`` (default) or one of the max-flow oracles
        (``"dinic"``, ``"push_relabel"``, ``"edmonds_karp"``) — or a
        callable ``f(upload_slots) -> Solver`` (what the
        :mod:`repro.api` registry stores), letting registered custom
        solvers plug in.
    round_observer:
        Optional callable invoked with a :class:`RoundObservation` after
        every round's matching, while the possession index still holds
        this round's state.  Used by the differential solver oracle and
        by custom per-round instrumentation; must not mutate the system.
    trace_level:
        ``"full"`` (default) records every demand, request and playback
        event; ``"lean"`` records only infeasibility markers (without the
        per-request witness payload), which bounds the trace's memory at
        scale — the 100k-box tiers and the soak runs use it.  Metrics are
        identical either way.
    """

    def __init__(
        self,
        allocation: Allocation,
        mu: float,
        scheduler: Optional[Union[PreloadingScheduler, RelayedPreloadingScheduler]] = None,
        compensation_plan: Optional[CompensationPlan] = None,
        record_connections: bool = False,
        stop_on_infeasible: bool = False,
        churn: Optional[ChurnSchedule] = None,
        warm_start: bool = True,
        solver: Union[str, Callable[[np.ndarray], "ConnectionMatcher"]] = "hopcroft_karp",
        round_observer: Optional[Callable[[RoundObservation], None]] = None,
        trace_level: str = "full",
        incremental_matching: bool = True,
    ):
        self._allocation = allocation
        self._catalog = allocation.catalog
        self._population = allocation.population
        self._mu = mu
        self._scheduler = scheduler or PreloadingScheduler(self._catalog)
        self._plan = compensation_plan
        self._record_connections = record_connections
        self._stop_on_infeasible = stop_on_infeasible
        self._churn = churn
        self._warm_start = warm_start
        self._incremental_matching = bool(incremental_matching)
        self._round_observer = round_observer
        if trace_level not in ("full", "lean"):
            raise ValueError(
                f"trace_level must be 'full' or 'lean', got {trace_level!r}"
            )
        self._trace_level = trace_level
        self._full_trace = trace_level == "full"

        c = self._catalog.num_stripes_per_video
        upload_slots = self._population.upload_slots(c)
        if compensation_plan is not None:
            reserved = np.floor(compensation_plan.reserved_upload * c + 1e-9).astype(np.int64)
            upload_slots = np.maximum(upload_slots - reserved, 0)
        if callable(solver):
            self._matcher = solver(upload_slots)
        else:
            self._matcher = ConnectionMatcher(upload_slots, solver=solver)
        self._upload_capacity_total = int(upload_slots.sum())

        duration = self._catalog.duration
        self._possession = PossessionIndex(allocation, cache_window=duration)
        self._pool = ActiveRequestPool(duration)
        self._swarms = SwarmRegistry(mu, duration)
        self._clock = RoundClock()
        self._trace = SimulationTrace()
        self._metrics = MetricsCollector(self._population.n)

        #: box -> round until which it is busy playing (exclusive).
        self._busy_until = np.zeros(self._population.n, dtype=np.int64)
        # Demand log, struct-of-arrays: index -> (time, box, video, started).
        self._demand_count = 0
        self._demand_time = np.empty(64, dtype=np.int64)
        self._demand_box = np.empty(64, dtype=np.int64)
        self._demand_video = np.empty(64, dtype=np.int64)
        self._demand_started = np.empty(64, dtype=bool)
        #: (box, video) -> most recent demand index; resolves postponed
        #: requests back to their demand in O(1) instead of a log scan.
        self._demand_last: Dict[Tuple[int, int], int] = {}
        #: (relay box, video) -> most recent relayed demand index.
        self._demand_last_relay: Dict[Tuple[int, int], int] = {}
        self._rejected_demands = 0
        self._playbacks_started = 0
        self._degraded_rounds = 0
        self._last_round_degraded = False
        self._repair_fallback_rounds = 0
        self._last_round_repair_fallback = False

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def allocation(self) -> Allocation:
        """The allocation under test."""
        return self._allocation

    @property
    def catalog(self):
        """The video catalog (may grow through :meth:`add_videos`)."""
        return self._catalog

    @property
    def population(self):
        """The box population (may grow through :meth:`join_boxes`)."""
        return self._population

    @property
    def matcher(self) -> ConnectionMatcher:
        """The per-round connection matcher."""
        return self._matcher

    @property
    def scheduler(self) -> Union[PreloadingScheduler, RelayedPreloadingScheduler]:
        """The preloading scheduler in use."""
        return self._scheduler

    @property
    def rejected_demands(self) -> int:
        """Demands rejected so far because the box was busy playing."""
        return self._rejected_demands

    @property
    def playbacks_started(self) -> int:
        """Playbacks started so far (counted even under ``trace_level='lean'``)."""
        return self._playbacks_started

    @property
    def trace_level(self) -> str:
        """The event-trace verbosity: ``"full"`` or ``"lean"``."""
        return self._trace_level

    @property
    def last_round_stats(self):
        """Statistics of the most recently completed round (``None`` before any)."""
        return self._metrics.last_round

    @property
    def rounds_completed(self) -> int:
        """Number of rounds executed so far."""
        return self._metrics.rounds_recorded

    @property
    def last_round_degraded(self) -> bool:
        """Whether the last round fell back to the degraded solver path."""
        return getattr(self, "_last_round_degraded", False)

    @property
    def degraded_rounds(self) -> int:
        """Number of rounds solved through the degraded fallback so far."""
        return getattr(self, "_degraded_rounds", 0)

    @property
    def last_round_repair_fallback(self) -> bool:
        """Whether the last round's incremental repair fell back to the full kernel."""
        return getattr(self, "_last_round_repair_fallback", False)

    @property
    def repair_fallback_rounds(self) -> int:
        """Number of rounds whose repair budget forced a full re-solve so far."""
        return getattr(self, "_repair_fallback_rounds", 0)

    @property
    def incremental_matching(self) -> bool:
        """Whether the incremental delta-repair matching path is enabled."""
        return getattr(self, "_incremental_matching", True)

    def set_incremental_matching(self, enabled: bool) -> None:
        """Toggle the incremental matching path (benchmarks, A/B tests).

        Disabling also drops the matcher's pair bookkeeping so a later
        re-enable bootstraps from a clean full solve.
        """
        self._incremental_matching = bool(enabled)
        reset = getattr(self._matcher, "reset_incremental_state", None)
        if reset is not None:
            reset()

    def set_solver_budget(self, budget) -> None:
        """Set (or clear, with ``None``) the matcher's per-round augmentation budget.

        Only meaningful for matchers exposing ``set_augmentation_budget``
        (the default :class:`~repro.core.matching.ConnectionMatcher`);
        a custom matcher without the hook raises ``RuntimeError``.
        """
        setter = getattr(self._matcher, "set_augmentation_budget", None)
        if setter is None:
            raise RuntimeError(
                "the configured matcher does not support augmentation budgets"
            )
        setter(budget)

    @property
    def trace(self) -> SimulationTrace:
        """The (growing) event trace."""
        return self._trace

    @property
    def swarms(self) -> SwarmRegistry:
        """The swarm registry."""
        return self._swarms

    @property
    def possession(self) -> PossessionIndex:
        """The possession index (allocation + caches)."""
        return self._possession

    @property
    def now(self) -> int:
        """Current round."""
        return self._clock.now

    def free_boxes(self, time: int) -> np.ndarray:
        """Boxes not playing any video (and not offline) at round ``time``."""
        mask = self._busy_until <= time
        offline = self._offline_array(time)
        if offline.size:
            mask[offline] = False
        return np.flatnonzero(mask).astype(np.int64)

    def _offline_array(self, time: int) -> np.ndarray:
        """Sorted array of boxes offline at round ``time`` (empty without churn)."""
        if self._churn is None:
            return np.empty(0, dtype=np.int64)
        return self._churn.offline_array(time)

    def offline_boxes(self, time: int) -> set:
        """Boxes offline at round ``time`` under the churn schedule (empty without churn)."""
        return self._churn.offline_boxes(time) if self._churn is not None else set()

    def is_box_busy(self, box_id: int, time: int) -> bool:
        """Whether ``box_id`` is still playing a video at round ``time``."""
        if not 0 <= box_id < self._busy_until.size:
            raise ValueError(f"box_id {box_id} out of range")
        return bool(self._busy_until[box_id] > time)

    def is_box_offline(self, box_id: int, time: int) -> bool:
        """Whether ``box_id`` is offline at round ``time`` under churn."""
        if self._churn is None:
            return False
        return self._churn.is_offline(int(box_id), time)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, workload: DemandGenerator, num_rounds: int) -> SimulationResult:
        """Run the simulation for ``num_rounds`` rounds.

        This is a thin loop over :meth:`step` — the stepwise session API of
        :mod:`repro.api` drives the exact same per-round path, so batch and
        stepwise executions of the same workload are bit-identical.
        """
        check_positive_integer(num_rounds, "num_rounds")
        stopped_early = False
        for _ in range(num_rounds):
            feasible = self.step(workload)
            if not feasible and self._stop_on_infeasible:
                stopped_early = True
                break
        return self.result(stopped_early=stopped_early)

    def step(self, workload: DemandGenerator) -> bool:
        """Execute one round against ``workload``; returns its feasibility."""
        return self._step(workload)

    def result(self, stopped_early: bool = False) -> SimulationResult:
        """Aggregate everything executed so far into a :class:`SimulationResult`.

        Non-destructive: the engine can keep stepping afterwards, and
        ``result()`` can be called again.
        """
        self._metrics.record_swarm_violations(len(self._swarms.violations))
        return SimulationResult(
            metrics=self._metrics.finalize(),
            trace=self._trace,
            rejected_demands=self._rejected_demands,
            stopped_early=stopped_early,
        )

    # ------------------------------------------------------------------ #
    # One round
    # ------------------------------------------------------------------ #
    def _step(self, workload: DemandGenerator) -> bool:
        time = self._clock.now
        self._possession.evict_before(time)
        keep_mask = self._pool.drop_expired_keeping(time)
        survivors = len(self._pool)

        # 1. Demand arrivals.
        view = SystemView(
            time=time,
            catalog=self._catalog,
            allocation=self._allocation,
            population=self._population,
            swarms=self._swarms,
            free_boxes=self.free_boxes(time),
        )
        # The paper's homogeneous preloading strategy flows through the
        # batched array paths; relayed/custom schedulers and full traces
        # keep the object path.  All produce identical requests in
        # identical order.  Workloads exposing the array protocol skip
        # Demand materialization entirely (steps 1+2 fused on arrays);
        # the protocol guarantees the same arrivals from the same random
        # stream as the object path, so the choice is digest-neutral.
        batched_scheduler = type(self._scheduler) is PreloadingScheduler and not (
            self._scheduler.skip_locally_stored
        )
        demand_arrays = None
        if batched_scheduler and not self._full_trace and self._plan is None:
            supplier = getattr(workload, "demand_arrays_for_round", None)
            if supplier is not None:
                demand_arrays = supplier(view)
        if demand_arrays is not None:
            # 1+2. Demand arrivals and request generation, array path.
            demand_indices, demand_boxes, demand_videos = self._accept_demand_arrays(
                demand_arrays[0], demand_arrays[1], time
            )
            self._metrics.record_demands(int(demand_indices.size))
            new_request_count = self._generate_requests_arrays(
                demand_videos, demand_boxes, demand_indices, time
            )
        else:
            # 1. Demand arrivals.
            demands = workload.demands_for_round(view)
            accepted = self._accept_demands(demands, time)
            self._metrics.record_demands(len(accepted))
            # 2. Request generation (preload now, postponed queued earlier).
            if batched_scheduler:
                new_request_count = self._generate_requests_batched(accepted, time)
            else:
                new_request_count = self._generate_requests_objects(accepted, time)
        self._metrics.record_requests(new_request_count)

        # 3. Connection matching over all active requests.  Offline boxes
        # cannot serve: their whole capacity is marked busy for this round.
        request_set = self._pool.request_set()
        busy_slots = None
        offline = self._offline_array(time)
        if offline.size:
            busy_slots = np.zeros(self._population.n, dtype=np.int64)
            busy_slots[offline] = self._matcher.upload_slots[offline]
        warm = None
        if self._warm_start and len(self._pool):
            warm = self._pool.assigned_snapshot()
        delta = None
        if (
            warm is not None
            and getattr(self, "_incremental_matching", True)
            and isinstance(self._matcher, ConnectionMatcher)
        ):
            delta = MatchDelta(
                keep_mask=keep_mask, num_new=len(self._pool) - survivors
            )
        if delta is not None:
            matching = self._matcher.match(
                request_set,
                self._possession,
                time,
                busy_slots=busy_slots,
                warm_start=warm,
                delta=delta,
            )
        else:
            matching = self._matcher.match(
                request_set,
                self._possession,
                time,
                busy_slots=busy_slots,
                warm_start=warm,
            )
        self._last_round_degraded = bool(getattr(matching, "degraded", False))
        if self._last_round_degraded:
            self._degraded_rounds += 1
        self._last_round_repair_fallback = bool(
            getattr(matching, "repair_fallback", False)
        )
        if self._last_round_repair_fallback:
            self._repair_fallback_rounds = (
                getattr(self, "_repair_fallback_rounds", 0) + 1
            )
        self._pool.apply_matching(matching.assignment, time)

        if self._record_connections:
            for idx in np.flatnonzero(matching.assignment >= 0).tolist():
                request = request_set[idx]
                self._trace.record(
                    ConnectionEvent(
                        time=time,
                        server_box=int(matching.assignment[idx]),
                        client_box=request.box_id,
                        stripe_id=request.stripe_id,
                    )
                )

        if not matching.feasible:
            witness = None
            if self._full_trace and matching.obstruction_witness is not None:
                witness = tuple(
                    (
                        request_set[idx].stripe_id,
                        request_set[idx].request_time,
                        request_set[idx].box_id,
                    )
                    for idx in matching.obstruction_witness
                )
            self._trace.record(
                InfeasibilityEvent(
                    time=time,
                    unmatched=len(request_set) - matching.matched,
                    witness_requests=witness,
                )
            )

        self._metrics.record_round(
            time=time,
            active_requests=len(request_set),
            new_requests=new_request_count,
            matched=matching.matched,
            feasible=matching.feasible,
            box_load=matching.box_load,
            upload_capacity=self._upload_capacity_total,
        )

        if self._round_observer is not None:
            self._round_observer(
                RoundObservation(
                    time=time,
                    request_set=request_set,
                    matching=matching,
                    possession=self._possession,
                )
            )

        # 4. Playback starts.
        self._detect_playback_starts(time)

        self._clock.advance()
        return matching.feasible

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _generate_requests_batched(
        self, accepted: List[Tuple[int, Demand]], time: int
    ) -> int:
        """Array-path request generation (plain preloading scheduler)."""
        pre_stripes, pre_boxes, pre_demand = self._scheduler.on_demands_batch(accepted)
        return self._finish_request_generation(
            pre_stripes, pre_boxes, pre_demand, time
        )

    def _generate_requests_arrays(
        self,
        video_ids: np.ndarray,
        box_ids: np.ndarray,
        demand_indices: np.ndarray,
        time: int,
    ) -> int:
        """Request generation from accepted-demand arrays (no Demand objects)."""
        pre_stripes, pre_boxes, pre_demand = self._scheduler.on_demand_arrays(
            video_ids, box_ids, demand_indices, time
        )
        return self._finish_request_generation(
            pre_stripes, pre_boxes, pre_demand, time
        )

    def _finish_request_generation(
        self,
        pre_stripes: np.ndarray,
        pre_boxes: np.ndarray,
        pre_demand: np.ndarray,
        time: int,
    ) -> int:
        """Shared tail of the batched request paths: postponed pops + pool."""
        post_stripes, post_boxes, post_demand = self._scheduler.due_arrays(time)
        if post_demand.size and (post_demand < 0).any():
            # Blocks queued through the scheduler's object API carry no
            # demand index; resolve them against the demand log.
            post_demand = post_demand.copy()
            for k in np.flatnonzero(post_demand < 0).tolist():
                found = self._find_demand_index(
                    int(post_boxes[k]), int(post_stripes[k]), time
                )
                post_demand[k] = -1 if found is None else found
        self._pool.extend_from_arrays(pre_stripes, time, pre_boxes, pre_demand, True)
        self._pool.extend_from_arrays(post_stripes, time, post_boxes, post_demand, False)
        self._possession.record_downloads(pre_stripes, pre_boxes, time)
        self._possession.record_downloads(post_stripes, post_boxes, time)
        if self._full_trace:
            for stripes, preload in ((pre_stripes, True), (post_stripes, False)):
                boxes = pre_boxes if preload else post_boxes
                for s, b in zip(stripes.tolist(), boxes.tolist()):
                    self._trace.record(
                        RequestEvent(
                            time=time, box_id=b, stripe_id=s, is_preload=preload
                        )
                    )
        return int(pre_stripes.size + post_stripes.size)

    def _generate_requests_objects(
        self, accepted: List[Tuple[int, Demand]], time: int
    ) -> int:
        """Object-path request generation (relayed/custom schedulers)."""
        new_requests = []
        for demand_index, demand in accepted:
            immediate = self._scheduler.on_demand(demand)
            for request in immediate:
                new_requests.append((demand_index, request))
        for request in self._scheduler.requests_due(time):
            demand_index = self._find_demand_index(request.box_id, request.stripe_id, time)
            new_requests.append((demand_index, request))

        # Relay-cache events of the heterogeneous strategy.
        if isinstance(self._scheduler, RelayedPreloadingScheduler):
            for relay_box, stripe_id in self._scheduler.relay_cache_events_due(time):
                self._possession.record_relay_cache(stripe_id, relay_box)

        for demand_index, request in new_requests:
            self._pool.add(request, demand_index)
            self._possession.record_download(
                request.stripe_id, request.box_id, request.request_time
            )
            if self._full_trace:
                self._trace.record(
                    RequestEvent(
                        time=time,
                        box_id=request.box_id,
                        stripe_id=request.stripe_id,
                        is_preload=request.is_preload,
                    )
                )
        return len(new_requests)

    def _append_demand(self, demand: Demand) -> int:
        """Append one accepted demand to the struct-of-arrays demand log."""
        ensure_column_capacity(
            self,
            ("_demand_time", "_demand_box", "_demand_video", "_demand_started"),
            self._demand_count,
            self._demand_count + 1,
        )
        index = self._demand_count
        self._demand_time[index] = demand.time
        self._demand_box[index] = demand.box_id
        self._demand_video[index] = demand.video_id
        self._demand_started[index] = False
        self._demand_count = index + 1
        return index

    def _accept_demands(
        self, demands: Sequence[Demand], time: int
    ) -> List[Tuple[int, Demand]]:
        accepted: List[Tuple[int, Demand]] = []
        for demand in demands:
            if demand.time != time:
                raise ValueError(
                    f"workload produced a demand for round {demand.time} during round {time}"
                )
            if demand.video_id >= self._catalog.num_videos:
                raise ValueError(
                    f"demand for video {demand.video_id} outside catalog of size "
                    f"{self._catalog.num_videos}"
                )
            if self._busy_until[demand.box_id] > time:
                self._rejected_demands += 1
                continue
            demand_index = self._append_demand(demand)
            self._demand_last[(demand.box_id, demand.video_id)] = demand_index
            if self._plan is not None:
                relay = self._plan.relay(demand.box_id)
                if relay is not None:
                    self._demand_last_relay[(relay, demand.video_id)] = demand_index
            self._busy_until[demand.box_id] = time + self._catalog.duration
            self._swarms.enter(demand.video_id, demand.box_id, time)
            if self._full_trace:
                self._trace.record(
                    DemandEvent(time=time, box_id=demand.box_id, video_id=demand.video_id)
                )
            accepted.append((demand_index, demand))
        return accepted

    def _accept_demand_arrays(
        self, box_ids: np.ndarray, video_ids: np.ndarray, time: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array-path :meth:`_accept_demands` over one round's arrivals.

        Applies the same admission rule (busy boxes rejected; a box's
        second demand in one round rejected because the first made it
        busy) and the same side effects — demand log, last-demand map,
        busy horizon, swarm entries with growth-bound checks — as the
        object path.  Returns ``(demand_indices, box_ids, video_ids)`` of
        the accepted arrivals, in arrival order.  Callers gate on lean
        trace and ``plan is None``.
        """
        n = int(box_ids.size)
        if n and int(video_ids.max()) >= self._catalog.num_videos:
            bad = int(video_ids[video_ids >= self._catalog.num_videos][0])
            raise ValueError(
                f"demand for video {bad} outside catalog of size "
                f"{self._catalog.num_videos}"
            )
        accept = admission_mask(self._busy_until, box_ids, time)
        kept = int(accept.sum())
        self._rejected_demands += n - kept
        if kept == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        boxes = box_ids[accept] if kept != n else box_ids
        videos = video_ids[accept] if kept != n else video_ids

        ensure_column_capacity(
            self,
            ("_demand_time", "_demand_box", "_demand_video", "_demand_started"),
            self._demand_count,
            self._demand_count + kept,
        )
        lo = self._demand_count
        hi = lo + kept
        self._demand_time[lo:hi] = time
        self._demand_box[lo:hi] = boxes
        self._demand_video[lo:hi] = videos
        self._demand_started[lo:hi] = False
        self._demand_count = hi
        demand_last = self._demand_last
        for offset, key in enumerate(zip(boxes.tolist(), videos.tolist())):
            demand_last[key] = lo + offset
        self._busy_until[boxes] = time + self._catalog.duration
        self._swarms.enter_batch(videos, boxes, time)
        return np.arange(lo, hi, dtype=np.int64), boxes, videos

    def _find_demand_index(self, box_id: int, stripe_id: int, time: int) -> Optional[int]:
        """Find the most recent demand of ``box_id`` matching the stripe's video.

        Homogeneous strategy: the request is made by the demanding box.
        Relayed strategy: it may be made by the relay, so a relay match is
        also accepted; the *most recent* of the two candidates wins, which
        is exactly what the historical backwards log scan returned.
        """
        video_id = self._catalog.video_of_stripe(stripe_id)
        direct = self._demand_last.get((box_id, video_id), -1)
        relayed = self._demand_last_relay.get((box_id, video_id), -1)
        best = max(direct, relayed)
        return None if best < 0 else best

    def _detect_playback_starts(self, time: int) -> None:
        """Emit a playback-start event once all of a demand's stripes were served."""
        if not len(self._pool):
            return
        hits = detect_playback_starts(
            self._pool.demand_indices,
            self._pool.first_matched,
            self._demand_count,
            self._demand_time,
            self._demand_started,
            self._catalog.num_stripes_per_video,
            time,
        )
        if hits is None:
            return
        ready_idx, playback_rounds, delays = hits
        self._playbacks_started += int(ready_idx.size)
        self._metrics.record_startup_delays(delays)
        if self._full_trace:
            for k in range(ready_idx.size):
                demand_index = int(ready_idx[k])
                self._trace.record(
                    PlaybackStartEvent(
                        time=int(playback_rounds[k]),
                        box_id=int(self._demand_box[demand_index]),
                        video_id=int(self._demand_video[demand_index]),
                        startup_delay=int(delays[k]),
                    )
                )

    # ------------------------------------------------------------------ #
    # Live reconfiguration (the repro.api session mutation hooks)
    # ------------------------------------------------------------------ #
    def _check_mutable(self, operation: str) -> None:
        if self._plan is not None or isinstance(
            self._scheduler, RelayedPreloadingScheduler
        ):
            raise RuntimeError(
                f"{operation} is not supported on relayed (compensation-plan) "
                "systems: the plan's reserved upload is computed statically"
            )

    def set_upload_capacity(self, box_id: int, upload: float) -> int:
        """Change the upload capacity of ``box_id`` to ``upload`` (in bitrates).

        Takes effect from the next round's matching; returns the box's new
        per-round stripe budget ``⌊upload·c⌋``.  The nominal population
        object keeps its original value — this changes the serving capacity
        the matcher enforces, the operational analogue of a bandwidth
        reconfiguration.
        """
        self._check_mutable("set_upload_capacity")
        if not 0 <= box_id < self._population.n:
            raise ValueError(f"box_id {box_id} out of range")
        if upload < 0:
            raise ValueError(f"upload must be non-negative, got {upload}")
        c = self._catalog.num_stripes_per_video
        slots = int(np.floor(float(upload) * c + 1e-9))
        new_slots = self._matcher.upload_slots.copy()
        new_slots[box_id] = slots
        self._matcher.update_upload_slots(new_slots)
        self._upload_capacity_total = int(new_slots.sum())
        return slots

    def join_boxes(
        self, uploads: Sequence[float], storages: Sequence[float]
    ) -> List[int]:
        """Add new boxes to the live system; returns their identifiers.

        Joining boxes start with empty storage (no static replicas — they
        acquire data through their playback caches) and full upload
        capacity ``⌊u_b·c⌋``, available from the next round.
        """
        self._check_mutable("join_boxes")
        uploads_arr = np.asarray(uploads, dtype=np.float64)
        storages_arr = np.asarray(storages, dtype=np.float64)
        if uploads_arr.ndim != 1 or uploads_arr.size == 0:
            raise ValueError("uploads must be a non-empty 1-D sequence")
        if uploads_arr.shape != storages_arr.shape:
            raise ValueError("uploads and storages must have the same length")
        old_n = self._population.n
        from repro.core.parameters import BoxPopulation

        population = BoxPopulation(
            np.concatenate([self._population.uploads, uploads_arr]),
            np.concatenate([self._population.storages, storages_arr]),
        )
        allocation = Allocation(
            catalog=self._catalog,
            population=population,
            replicas_per_stripe=self._allocation.replicas_per_stripe,
            replica_box=self._allocation.replica_box,
            scheme=self._allocation.scheme,
        )
        self._population = population
        self._allocation = allocation
        self._possession.set_allocation(allocation)

        c = self._catalog.num_stripes_per_video
        new_slots = np.floor(uploads_arr * c + 1e-9).astype(np.int64)
        self._matcher.update_upload_slots(
            np.concatenate([self._matcher.upload_slots, new_slots])
        )
        self._upload_capacity_total = int(self._matcher.upload_slots.sum())
        self._busy_until = np.concatenate(
            [self._busy_until, np.zeros(uploads_arr.size, dtype=np.int64)]
        )
        self._metrics.grow(population.n)
        return list(range(old_n, population.n))

    def add_videos(self, num_videos: int, random_state=None) -> List[int]:
        """Extend the catalog by ``num_videos`` new videos; returns their ids.

        The new stripes receive the allocation's replication factor ``k``,
        placed uniformly at random over the population's *remaining* storage
        slots (the same slot model as the permutation scheme, restricted to
        free capacity).  Raises :class:`AllocationError` when the free
        storage cannot host ``num_videos·c·k`` more replicas.
        """
        self._check_mutable("add_videos")
        check_positive_integer(num_videos, "num_videos")
        # Validate every precondition before mutating anything: a failure
        # below this block would otherwise leave the engine torn between
        # the old and the new catalog.
        catalog_updater = getattr(self._scheduler, "update_catalog", None)
        if catalog_updater is None:
            raise RuntimeError(
                "add_videos requires a scheduler with update_catalog(); "
                f"{type(self._scheduler).__name__} does not support live "
                "catalog growth"
            )
        from repro.core.video import Catalog
        from repro.util.rng import as_generator

        old_m = self._catalog.num_videos
        c = self._catalog.num_stripes_per_video
        k = self._allocation.replicas_per_stripe
        needed = num_videos * c * k
        free = np.maximum(
            self._population.storage_slots(c) - self._allocation.box_loads(), 0
        )
        total_free = int(free.sum())
        if needed > total_free:
            raise AllocationError(
                f"not enough free storage: {needed} new replicas requested but "
                f"only {total_free} free slots remain"
            )
        slot_owner = np.repeat(np.arange(self._population.n, dtype=np.int64), free)
        gen = as_generator(random_state)
        chosen = gen.permutation(slot_owner.size)[:needed]
        new_replicas = slot_owner[chosen]

        catalog = Catalog(
            num_videos=old_m + num_videos,
            num_stripes=c,
            duration=self._catalog.duration,
        )
        allocation = Allocation(
            catalog=catalog,
            population=self._population,
            replicas_per_stripe=k,
            replica_box=np.concatenate([self._allocation.replica_box, new_replicas]),
            scheme=self._allocation.scheme,
        )
        catalog_updater(catalog)  # validates growth before any engine mutation
        self._catalog = catalog
        self._allocation = allocation
        self._possession.refresh_allocation(allocation)
        return list(range(old_m, old_m + num_videos))
