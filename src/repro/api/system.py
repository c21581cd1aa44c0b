"""The `VodSystem` facade: configure → allocate → open sessions.

One object owns the static side of a simulated deployment — catalog, box
population, replica allocation, growth bound — and stamps out engines,
batch runs and stepwise :class:`~repro.api.session.VodSession` handles
from it.  Every component is resolvable by name through the
:mod:`repro.api.registry`, so a system can be described entirely with
strings and parameter dicts:

>>> from repro.api import VodSystem
>>> system = VodSystem.configure(
...     catalog={"num_videos": 16, "num_stripes": 4, "duration": 12},
...     population=("homogeneous", {"n": 32, "u": 2.0, "d": 3.0}),
...     mu=1.5,
... )
>>> _ = system.allocate("permutation", replicas_per_stripe=4, seed=7)
>>> session = system.open_session(workload=("zipf", {"arrival_rate": 3.0}),
...                               workload_seed=1, horizon=8)
>>> report = session.step()
>>> report.feasible
True

The scenario compiler, the Monte-Carlo harness and the baselines all
construct their engines through this facade, so it is the single
construction path of the codebase.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.errors import ApiError
from repro.api.registry import component_factory, create_component
from repro.api.session import VodSession
from repro.core.allocation import Allocation
from repro.core.parameters import BoxPopulation
from repro.core.video import Catalog
from repro.sim.engine import SimulationResult, VodSimulator
from repro.workloads.base import DemandGenerator

__all__ = ["VodSystem"]

#: A workload argument: a generator, or a ``(name, params)`` registry spec.
WorkloadSpec = Union[DemandGenerator, Tuple[str, Mapping[str, Any]], None]


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class VodSystem:
    """Facade over one simulated VoD deployment.

    Parameters
    ----------
    catalog:
        The video catalog (``m`` videos of ``c`` stripes, duration ``T``).
    population:
        The box population (per-box upload/storage).
    mu:
        Swarm-growth bound runs are measured against.
    """

    def __init__(
        self,
        catalog: Catalog,
        population: BoxPopulation,
        mu: float = 1.5,
    ):
        self._catalog = catalog
        self._population = population
        self._mu = float(mu)
        self._allocation: Optional[Allocation] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def configure(
        cls,
        catalog: Union[Catalog, Mapping[str, Any]],
        population: Union[BoxPopulation, Tuple[str, Mapping[str, Any]]],
        mu: float = 1.5,
        population_seed=None,
    ) -> "VodSystem":
        """Build a system from declarative component specs.

        ``catalog`` may be a :class:`Catalog` or a mapping with
        ``num_videos``/``num_stripes``/``duration``; ``population`` may be a
        :class:`BoxPopulation` or a ``(kind, params)`` pair resolved through
        the component registry (seeded by ``population_seed``).
        """
        if not isinstance(catalog, Catalog):
            catalog = Catalog(
                num_videos=int(catalog["num_videos"]),
                num_stripes=int(catalog["num_stripes"]),
                duration=int(catalog.get("duration", 120)),
            )
        if not isinstance(population, BoxPopulation):
            kind, params = population
            population = create_component(
                "population", str(kind), dict(params), _as_rng(population_seed)
            )
        return cls(catalog=catalog, population=population, mu=mu)

    @classmethod
    def for_allocation(cls, allocation: Allocation, mu: float = 1.5) -> "VodSystem":
        """Wrap an already-drawn allocation (catalog/population implied)."""
        system = cls(
            catalog=allocation.catalog,
            population=allocation.population,
            mu=mu,
        )
        system._allocation = allocation
        return system

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def catalog(self) -> Catalog:
        """The video catalog."""
        return self._catalog

    @property
    def population(self) -> BoxPopulation:
        """The box population."""
        return self._population

    @property
    def mu(self) -> float:
        """The swarm-growth bound."""
        return self._mu

    @property
    def allocation(self) -> Optional[Allocation]:
        """The current allocation (``None`` before :meth:`allocate`)."""
        return self._allocation

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def allocate(
        self,
        scheme: str = "permutation",
        replicas_per_stripe: int = 2,
        seed=None,
        **params: Any,
    ) -> Allocation:
        """Draw and adopt a replica allocation through the registry.

        ``scheme`` is any registered allocation component (including the
        ``full_replication`` baseline); extra keyword arguments are passed
        to the scheme factory as its parameter dict.
        """
        allocation = create_component(
            "allocation",
            scheme,
            self._catalog,
            self._population,
            int(replicas_per_stripe),
            dict(params),
            _as_rng(seed),
        )
        self._allocation = allocation
        return allocation

    def adopt_allocation(self, allocation: Allocation) -> Allocation:
        """Adopt an externally drawn allocation (must match the system).

        The engine derives per-box capacities from the *allocation's*
        population, so the check compares the actual upload/storage vectors
        — a same-sized population with different capacities would silently
        change what the facade reports versus what the engine enforces.
        """
        if allocation.catalog is not self._catalog and (
            allocation.catalog.num_videos != self._catalog.num_videos
            or allocation.catalog.num_stripes_per_video
            != self._catalog.num_stripes_per_video
            or allocation.catalog.duration != self._catalog.duration
        ):
            raise ApiError("allocation catalog does not match the system catalog")
        theirs = allocation.population
        if theirs is not self._population and (
            theirs.n != self._population.n
            or not np.array_equal(theirs.uploads, self._population.uploads)
            or not np.array_equal(theirs.storages, self._population.storages)
        ):
            raise ApiError("allocation population does not match the system population")
        self._allocation = allocation
        return allocation

    # ------------------------------------------------------------------ #
    # Engines, sessions, batch runs
    # ------------------------------------------------------------------ #
    def build_simulator(
        self,
        scheduler: Union[str, object, None] = None,
        compensation_plan=None,
        record_connections: bool = False,
        stop_on_infeasible: bool = False,
        churn=None,
        solver: str = "hopcroft_karp",
        round_observer=None,
        trace_level: str = "full",
    ) -> VodSimulator:
        """Construct the round engine over the adopted allocation.

        This is the facade's single engine-construction path — the scenario
        compiler, the Monte-Carlo harness and the session API all come
        through here.  ``scheduler`` may be a registered scheduler name, a
        ready component, or ``None`` for the paper's preloading strategy;
        ``solver`` any registered solver name — including names registered
        by the caller, whose factories are invoked to build the matcher.
        """
        if self._allocation is None:
            raise ApiError(
                "no allocation adopted yet: call allocate(...) or "
                "adopt_allocation(...) first"
            )
        # Resolve through the registry (failing early, with the registry's
        # name list, on unknown kernels) and hand the engine the factory so
        # custom registered solvers actually get constructed.
        solver_factory = component_factory("solver", solver)
        if isinstance(scheduler, str):
            scheduler = create_component("scheduler", scheduler, self._catalog)
        return VodSimulator(
            self._allocation,
            mu=self._mu,
            scheduler=scheduler,
            compensation_plan=compensation_plan,
            record_connections=record_connections,
            stop_on_infeasible=stop_on_infeasible,
            churn=churn,
            solver=solver_factory,
            round_observer=round_observer,
            trace_level=trace_level,
        )

    def _resolve_workload(
        self, workload: WorkloadSpec, workload_seed
    ) -> Optional[DemandGenerator]:
        if workload is None or isinstance(workload, DemandGenerator):
            return workload
        if isinstance(workload, tuple) and len(workload) == 2:
            name, params = workload
            params = dict(params)
            # Same parameter semantics as the scenario compiler: an explicit
            # params["mu"] overrides the system growth bound.
            return create_component(
                "workload",
                str(name),
                params,
                int(params.get("start", 0)),
                float(params.get("mu", self._mu)),
                _as_rng(workload_seed),
            )
        raise ApiError(
            "workload must be a DemandGenerator, a (name, params) registry "
            f"spec, or None; got {workload!r}"
        )

    def open_session(
        self,
        workload: WorkloadSpec = None,
        horizon: Optional[int] = None,
        workload_seed=None,
        **engine_kwargs: Any,
    ) -> VodSession:
        """Open a stepwise :class:`VodSession` on a fresh engine.

        ``workload`` optionally names a background demand generator (object
        or ``(name, params)`` registry spec, seeded by ``workload_seed``);
        without one the session is driven purely by
        :meth:`VodSession.submit_demands`.  Engine keyword arguments are
        forwarded to :meth:`build_simulator`.
        """
        generator = self._resolve_workload(workload, workload_seed)
        engine = self.build_simulator(**engine_kwargs)
        return VodSession(engine, workload=generator, horizon=horizon)

    def run(
        self,
        workload: WorkloadSpec,
        num_rounds: int,
        workload_seed=None,
        **engine_kwargs: Any,
    ) -> SimulationResult:
        """Batch-run a fresh engine for ``num_rounds`` (thin convenience)."""
        generator = self._resolve_workload(workload, workload_seed)
        if generator is None:
            raise ApiError("run() requires a workload")
        return self.build_simulator(**engine_kwargs).run(generator, num_rounds)

    def __repr__(self) -> str:  # pragma: no cover
        alloc = "unallocated" if self._allocation is None else self._allocation.scheme
        return (
            f"VodSystem(m={self._catalog.num_videos}, "
            f"c={self._catalog.num_stripes_per_video}, "
            f"n={self._population.n}, mu={self._mu}, allocation={alloc})"
        )
