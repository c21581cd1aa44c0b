"""The round-based Video-on-Demand simulator.

:class:`VodSimulator` executes the paper's model end to end:

1. at every round ``t`` the workload generator produces the demands that
   arrived during ``[t−1, t[`` (restricted to boxes that are not already
   playing a video — at most one video per box), read as
   ``(box_ids, video_ids)`` arrays;
2. the preloading scheduler converts the accepted demands into dated
   stripe requests (preload at ``t``, postponed at ``t+1``; or the relayed
   timeline of Section 4 for heterogeneous systems), each tagged with the
   index of the demand that issued it;
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
from repro.core.matching import ConnectionMatcher, ConnectionMatching
from repro.core.possession import PossessionIndex
from repro.core.preloading import PreloadingScheduler, check_box_ids, check_video_ids
from repro.core.requests import RequestSet
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
from repro.util.soa import ensure_column_capacity, live_column_state
from repro.util.validation import check_positive_integer

__all__ = ["RoundObservation", "SimulationResult", "VodSimulator"]


@dataclass(frozen=True)
class RoundObservation:
    """Snapshot of one round's matching instance, handed to observers.

    The observation is emitted *after* the round's matching and *before*
    the possession index mutates again (eviction happens at the start of
    the next round), so ``possession.adjacency_for(request_set, time)``
    reproduces the exact bipartite instance the matcher solved.
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
        strategy), :class:`~repro.core.heterogeneous.RelayedPreloadingScheduler`
        (heterogeneous relay strategy) or any other
        :class:`~repro.api.protocols.RequestScheduler`.  Defaults to the
        homogeneous one.  Every scheduler and trace level runs the same
        array request path.
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
    solver:
        Matching kernel: a name handed to :class:`ConnectionMatcher` —
        ``"hopcroft_karp"`` (default) or ``"dinic"``, the in-house
        Dinic max flow on the same CSR adjacency, which serves as the
        cold twin — or a
        callable ``f(upload_slots) -> Solver`` (what the
        :mod:`repro.api` registry stores), letting registered custom
        solvers plug in.  Every round hands the solver the pool's
        request→box assignment and the pair expiries the previous
        round's matching returned (the pool keeps both; the solver keeps
        no round state); the default kernel repairs that assignment
        (pairs past their expiry, or on a box over capacity or offline,
        are retired, and only the requests left without a server are
        re-solved) and falls back to the full kernel.  Each round's
        matched count and feasibility equal a cold solve of the same
        state (the kernel always returns a maximum matching), so fully
        feasible runs agree with the cold oracles on every request-level
        observable: per-round matched counts, service rounds, startup
        delays, metrics.  *Which* box serves each request
        may still differ (maximum matchings are not unique), so
        connection-level records (``record_connections`` events, per-box
        loads) are solver-dependent.  In overload regimes a partially
        matched round may serve a different (equally sized) request
        subset than a cold solve would, after which the two trajectories
        can diverge — as they also do between different cold solvers.
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
        solver: Union[str, Callable[[np.ndarray], "ConnectionMatcher"]] = "hopcroft_karp",
        round_observer: Optional[Callable[[RoundObservation], None]] = None,
        trace_level: str = "full",
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
        self._rejected_demands = 0
        self._playbacks_started = 0
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
    def last_round_repair_fallback(self) -> bool:
        """Whether the last round's incremental repair fell back to the full kernel."""
        return self._last_round_repair_fallback

    @property
    def repair_fallback_rounds(self) -> int:
        """Number of rounds whose repair budget forced a full re-solve so far."""
        return self._repair_fallback_rounds

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
        offline = self.offline_array(time)
        if offline.size:
            mask[offline] = False
        return np.flatnonzero(mask).astype(np.int64)

    def offline_array(self, time: int) -> np.ndarray:
        """Sorted array of boxes offline at round ``time`` (empty without churn)."""
        if self._churn is None:
            return np.empty(0, dtype=np.int64)
        return self._churn.offline_array(time)

    def offline_boxes(self, time: int) -> set:
        """Boxes offline at round ``time`` under the churn schedule (empty without churn)."""
        return set(self.offline_array(time).tolist())

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

    def reset_incremental_state(self) -> None:
        """Drop the last matching's pair expiries: the next round has
        nothing to repair and runs the full kernel, which records them
        afresh (the full-solve twin does this after every round)."""
        self._pool.forget_expiries()

    _DEMAND_COLUMNS = ("_demand_time", "_demand_box", "_demand_video", "_demand_started")

    def __getstate__(self) -> dict:
        return live_column_state(self, self._DEMAND_COLUMNS, self._demand_count)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "_expiry" not in vars(self._pool):
            # A format-3 engine from an older build: its matcher held the
            # round state, the pair expiries of the pool's rows (snapshots
            # are taken between rounds, so the two line up), an
            # augmentation budget that no path reads and, in older builds,
            # a partial repair that nothing reads.
            matcher_state = vars(self._matcher)
            matcher_state.pop("_partial_repair", None)
            matcher_state.pop("_augmentation_budget", None)
            self._pool._expiry = matcher_state.pop("_pair_expiry", None)

    def result(self, stopped_early: bool = False) -> SimulationResult:
        """Aggregate everything executed so far into a :class:`SimulationResult`.

        Non-destructive: the engine can keep stepping afterwards, and
        ``result()`` can be called again.
        """
        self._metrics.record_swarm_violations(self._swarms.violation_count)
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
        self._pool.drop_expired_keeping(time)

        # 1. Demand arrivals.
        view = SystemView(
            time=time,
            catalog=self._catalog,
            allocation=self._allocation,
            population=self._population,
            swarms=self._swarms,
            free_boxes=self.free_boxes(time),
        )
        box_ids, video_ids = workload.demand_arrays_for_round(view)
        demand_indices, boxes, videos = self._accept_demand_arrays(
            box_ids, video_ids, time
        )
        self._metrics.record_demands(int(demand_indices.size))

        # 2. Request generation (issued now, plus postponed ones due now).
        new_request_count = self._generate_requests(
            videos, boxes, demand_indices, time
        )
        self._metrics.record_requests(new_request_count)

        # 3. Connection matching over all active requests.  Offline boxes
        # cannot serve: their whole capacity is marked busy for this round.
        request_set = self._pool.request_set()
        busy_slots = None
        offline = self.offline_array(time)
        if offline.size:
            busy_slots = np.zeros(self._population.n, dtype=np.int64)
            busy_slots[offline] = self._matcher.upload_slots[offline]
        matching = self._matcher.match(
            request_set,
            self._possession,
            time,
            busy_slots=busy_slots,
            warm_start=self._pool.assigned_snapshot(),
            pair_expiry=self._pool.pair_expiry,
        )
        self._last_round_repair_fallback = bool(
            getattr(matching, "repair_fallback", False)
        )
        if self._last_round_repair_fallback:
            self._repair_fallback_rounds += 1
        self._pool.apply_matching(
            matching.assignment, time, getattr(matching, "pair_expiry", None)
        )

        if self._record_connections:
            served = np.flatnonzero(matching.assignment >= 0)
            for server, client, stripe in zip(
                matching.assignment[served].tolist(),
                request_set.box_id_array[served].tolist(),
                request_set.stripe_id_array[served].tolist(),
            ):
                self._trace.record(
                    ConnectionEvent(
                        time=time, server_box=server, client_box=client, stripe_id=stripe
                    )
                )

        if not matching.feasible:
            witness = None
            if self._full_trace and matching.obstruction_witness is not None:
                rows = np.asarray(matching.obstruction_witness, dtype=np.int64)
                witness = tuple(
                    zip(
                        request_set.stripe_id_array[rows].tolist(),
                        request_set.request_time_array[rows].tolist(),
                        request_set.box_id_array[rows].tolist(),
                    )
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
    def _accept_demand_arrays(
        self, box_ids: np.ndarray, video_ids: np.ndarray, time: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Admit one round's arrivals; returns the accepted ones, in arrival order.

        A demand is rejected when its box is still playing, which includes
        a box's second demand in one round (the first made it busy).  An
        accepted demand enters the demand log, the box's busy horizon and
        its video's swarm (with the growth-bound check); a full trace
        records its :class:`DemandEvent`.  Returns ``(demand_indices,
        box_ids, video_ids)``.  A box outside the population or a video
        outside the catalog raises ``ValueError``.
        """
        check_video_ids(self._catalog, video_ids)
        check_box_ids(self._population.n, box_ids)
        n = int(box_ids.size)
        accept = admission_mask(self._busy_until, box_ids, time)
        kept = int(accept.sum())
        self._rejected_demands += n - kept
        boxes = box_ids[accept] if kept != n else box_ids
        videos = video_ids[accept] if kept != n else video_ids

        ensure_column_capacity(
            self, self._DEMAND_COLUMNS, self._demand_count, self._demand_count + kept
        )
        lo = self._demand_count
        hi = lo + kept
        self._demand_time[lo:hi] = time
        self._demand_box[lo:hi] = boxes
        self._demand_video[lo:hi] = videos
        self._demand_started[lo:hi] = False
        self._demand_count = hi
        self._busy_until[boxes] = time + self._catalog.duration
        self._swarms.enter_batch(videos, time)
        if self._full_trace:
            for box, video in zip(boxes.tolist(), videos.tolist()):
                self._trace.record(DemandEvent(time=time, box_id=box, video_id=video))
        return np.arange(lo, hi, dtype=np.int64), boxes, videos

    def _generate_requests(
        self,
        video_ids: np.ndarray,
        box_ids: np.ndarray,
        demand_indices: np.ndarray,
        time: int,
    ) -> int:
        """Activate this round's requests; returns how many were issued.

        These are the requests the scheduler issues for the accepted
        demands, then the postponed ones it queued for this round, each
        tagged with the index of its demand.  Relay-cache events falling
        due (relayed strategy) update the possession index.
        """
        blocks = (
            self._scheduler.on_demand_arrays(video_ids, box_ids, demand_indices, time),
            self._scheduler.due_arrays(time),
        )
        for stripes, boxes, demands, _ in blocks:
            self._pool.extend_from_arrays(stripes, time, boxes, demands)
            self._possession.record_downloads(stripes, boxes, time)
        relay_events = getattr(self._scheduler, "relay_cache_events_due", None)
        if relay_events is not None:
            relays, stripes = relay_events(time)
            for relay, stripe in zip(relays.tolist(), stripes.tolist()):
                self._possession.record_relay_cache(stripe, relay)
        if self._full_trace:
            for stripes, boxes, _, preload in blocks:
                for s, b, p in zip(stripes.tolist(), boxes.tolist(), preload.tolist()):
                    self._trace.record(
                        RequestEvent(time=time, box_id=b, stripe_id=s, is_preload=p)
                    )
        return sum(int(block[0].size) for block in blocks)

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
        self._possession.adopt_allocation(allocation)

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
        self._possession.adopt_allocation(allocation)
        return list(range(old_m, old_m + num_videos))
