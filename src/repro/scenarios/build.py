"""Compile a :class:`~repro.scenarios.spec.ScenarioSpec` into a live run.

The compiler derives every stochastic ingredient from one master seed:
``SeedSequence(seed)`` is spawned into named child streams — population,
allocation, churn, then one stream per workload phase, in that fixed
order — so the same ``(spec, seed)`` pair always wires byte-identical
components regardless of which ones are actually random.  This is the
foundation of the deterministic replay layer
(:mod:`repro.scenarios.replay`).

Components are resolved by name through the :mod:`repro.api.registry`
(populations, allocation schemes, workload kinds, churn models) and the
engine is constructed through the :class:`~repro.api.system.VodSystem`
facade — registering a new component name makes it immediately usable
from scenario specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.api.registry import create_component
from repro.api.session import VodSession
from repro.api.system import VodSystem
from repro.core.allocation import Allocation
from repro.core.parameters import BoxPopulation
from repro.core.video import Catalog
from repro.scenarios.phases import PhasedWorkload, WorkloadPhase
from repro.scenarios.spec import ScenarioSpec
from repro.sim.churn import ChurnSchedule
from repro.sim.engine import RoundObservation, VodSimulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.faults.plan import FaultDriver

__all__ = ["CompiledScenario", "build_scenario", "build_full_solve_twin"]


@dataclass
class CompiledScenario:
    """A scenario wired and ready to run.

    ``run()`` executes the simulator for the spec's horizon (or an
    override) and returns the engine's
    :class:`~repro.sim.engine.SimulationResult`; ``session()`` wraps the
    same engine and workload in a stepwise
    :class:`~repro.api.session.VodSession`.  A compiled scenario is
    single-use either way: the simulator carries state, so build a fresh
    one per run.
    """

    spec: ScenarioSpec
    seed: int
    system: VodSystem
    catalog: Catalog
    population: BoxPopulation
    allocation: Allocation
    churn: Optional[ChurnSchedule]
    workload: PhasedWorkload
    simulator: VodSimulator
    fault_driver: Optional["FaultDriver"] = None

    def run(self, num_rounds: Optional[int] = None):
        """Run the compiled simulator for ``num_rounds`` (default: horizon)."""
        rounds = self.spec.horizon if num_rounds is None else int(num_rounds)
        if self.fault_driver is None:
            return self.simulator.run(self.workload, rounds)
        # Faulted runs are driven through a session so the fault driver
        # fires before every round; the session steps the exact same
        # per-round path the batch loop uses, so a fault-free driver
        # (or none) yields the identical result either way.
        session = self.session(horizon=rounds)
        session.step_until(round=rounds)
        return session.result()

    def session(self, horizon: Optional[int] = None) -> VodSession:
        """Open a stepwise session over the compiled engine and workload.

        The session drives the exact same per-round path ``run()`` uses, so
        stepping it to the horizon reproduces the batch result bit for bit.
        ``horizon`` defaults to the spec's; pass a different budget to bound
        (or, with ``None`` explicitly via :class:`VodSession`, unbound) the
        session.
        """
        rounds = self.spec.horizon if horizon is None else int(horizon)
        return VodSession(
            self.simulator,
            workload=self.workload,
            horizon=rounds,
            fault_driver=self.fault_driver,
        )


# ---------------------------------------------------------------------- #
# The compiler
# ---------------------------------------------------------------------- #
def build_scenario(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    record_connections: bool = False,
    stop_on_infeasible: bool = False,
    round_observer: Optional[Callable[[RoundObservation], None]] = None,
    min_horizon: Optional[int] = None,
) -> CompiledScenario:
    """Compile ``spec`` into a fully wired simulator run.

    ``seed`` defaults to ``spec.default_seed``.  All randomness —
    population draw, allocation draw, churn schedule, every workload
    phase — is derived from child streams of ``SeedSequence(seed)``
    spawned in a fixed order, so two builds with the same arguments
    produce bit-identical runs.

    ``min_horizon`` extends the churn schedule beyond ``spec.horizon``
    when the caller intends to run more rounds than the spec declares
    (otherwise the extra rounds would silently be churn-free).  The
    per-round churn draw is prefix-stable, so a longer schedule never
    changes the outages of the earlier rounds.
    """
    if seed is None:
        seed = spec.default_seed
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    root = np.random.SeedSequence(seed)
    streams = root.spawn(3 + len(spec.workload))
    # Fault streams are spawned *after* every pre-existing stream:
    # SeedSequence.spawn is append-stable, so adding faults to a spec
    # never perturbs the population/allocation/churn/workload draws, and
    # fault-free specs keep their recorded randomness bit-identical.
    fault_streams = root.spawn(len(spec.faults)) if spec.faults else []
    population_rng = np.random.default_rng(streams[0])
    allocation_rng = np.random.default_rng(streams[1])
    churn_rng = np.random.default_rng(streams[2])

    catalog = Catalog(
        num_videos=spec.catalog.num_videos,
        num_stripes=spec.catalog.num_stripes,
        duration=spec.catalog.duration,
    )
    population = create_component(
        "population", spec.population.kind, spec.population.params, population_rng
    )

    system = VodSystem(catalog=catalog, population=population, mu=spec.mu)
    allocation = system.allocate(
        spec.allocation.scheme,
        replicas_per_stripe=spec.allocation.replicas_per_stripe,
        seed=allocation_rng,
        **spec.allocation.params,
    )

    churn: Optional[ChurnSchedule] = None
    if spec.churn is not None:
        churn = create_component(
            "churn",
            "random",
            population.n,
            max(spec.horizon, min_horizon or 0),
            spec.churn.to_dict(),
            churn_rng,
        )

    phases = [
        WorkloadPhase(
            generator=create_component(
                "workload",
                phase.kind,
                phase.params,
                phase.start,
                float(phase.params.get("mu", spec.mu)),
                np.random.default_rng(streams[3 + index]),
            ),
            start=phase.start,
            stop=phase.stop,
        )
        for index, phase in enumerate(spec.workload)
    ]
    workload = PhasedWorkload(phases)

    fault_driver = None
    if spec.faults:
        # Imported lazily: importing the module registers the built-in
        # "fault" components, and fault-free builds skip the cost.
        from repro.faults.plan import build_fault_driver

        fault_driver = build_fault_driver(
            spec.faults,
            population,
            spec.horizon,
            [np.random.default_rng(stream) for stream in fault_streams],
        )

    simulator = system.build_simulator(
        record_connections=record_connections,
        stop_on_infeasible=stop_on_infeasible,
        churn=churn,
        solver=spec.solver,
        round_observer=round_observer,
        trace_level=spec.trace_level,
    )
    return CompiledScenario(
        spec=spec,
        seed=seed,
        system=system,
        catalog=catalog,
        population=population,
        allocation=allocation,
        churn=churn,
        workload=workload,
        simulator=simulator,
        fault_driver=fault_driver,
    )


def build_full_solve_twin(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    min_horizon: Optional[int] = None,
) -> CompiledScenario:
    """Compile ``spec`` so that every round runs the full matching kernel.

    The twin is :func:`build_scenario`'s build plus a round observer that
    drops the pool's pair expiries after each round
    (:meth:`VodSimulator.reset_incremental_state`), so the next round has
    no pairs to repair and falls back to the full Hopcroft–Karp kernel,
    warm-seeded by the pool's assignment.  It is the reference
    the incremental repair is checked against: its per-round records
    must equal those of a plain build.
    """
    compiled: Optional[CompiledScenario] = None

    def drop_repair_state(_observation: RoundObservation) -> None:
        compiled.simulator.reset_incremental_state()

    compiled = build_scenario(
        spec, seed=seed, round_observer=drop_repair_state, min_horizon=min_horizon
    )
    return compiled
