"""Declarative scenario specifications.

A :class:`ScenarioSpec` names everything a reproducible end-to-end run
needs — catalog, box population, allocation scheme, a phased workload
mix, an optional churn model, the growth bound, the horizon and the
matching solver — as plain data.  Specs are JSON-round-trippable
(:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`) so golden
traces can embed the exact configuration they were recorded under, and
every stochastic ingredient is derived from one master seed at build time
(:mod:`repro.scenarios.build`), which is what makes replays bit-identical.

The shape follows the declarative CDN/client scenario files of the
`algotel2016` experiments: a scenario is configuration, not code; the
compiler (:func:`repro.scenarios.build.build_scenario`) wires it into a
live :class:`~repro.sim.engine.VodSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.api.registry import available_components
from repro.util.validation import (
    check_in_range,
    check_non_negative_integer,
    check_positive_integer,
    check_probability,
)

__all__ = [
    "CatalogSpec",
    "PopulationSpec",
    "AllocationSpec",
    "WorkloadPhaseSpec",
    "ChurnSpec",
    "FaultSpec",
    "ScenarioSpec",
]

def _check_registered(kind: str, name: str, what: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a registered ``kind`` component."""
    registered = tuple(available_components(kind)[kind])
    if name not in registered:
        raise ValueError(f"{what} must be one of {registered}, got {name!r}")


def _freeze_params(params: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    return dict(params) if params else {}


@dataclass(frozen=True)
class CatalogSpec:
    """The video catalog: ``m`` videos of ``c`` stripes and duration ``T``."""

    num_videos: int
    num_stripes: int
    duration: int

    def __post_init__(self) -> None:
        check_positive_integer(self.num_videos, "num_videos")
        check_positive_integer(self.num_stripes, "num_stripes")
        check_positive_integer(self.duration, "duration")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_videos": self.num_videos,
            "num_stripes": self.num_stripes,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CatalogSpec":
        return cls(
            num_videos=int(data["num_videos"]),
            num_stripes=int(data["num_stripes"]),
            duration=int(data["duration"]),
        )


@dataclass(frozen=True)
class PopulationSpec:
    """A box population: ``kind`` plus its constructor parameters.

    Kinds and their parameters (defaults in the constructors of
    :mod:`repro.core.parameters`):

    * ``"homogeneous"`` — ``n``, ``u``, ``d``;
    * ``"two_class"`` — ``n``, ``rich_fraction``, ``u_rich``, ``u_poor``,
      ``d_rich``, ``d_poor``, optional ``shuffle`` (seeded from the
      scenario master seed);
    * ``"pareto"`` — ``n``, ``u_min``, ``shape``, ``storage_per_upload``,
      optional ``u_cap`` (seeded from the scenario master seed).
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_registered("population", self.kind, "population kind")
        object.__setattr__(self, "params", _freeze_params(self.params))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PopulationSpec":
        return cls(kind=str(data["kind"]), params=dict(data.get("params", {})))


@dataclass(frozen=True)
class AllocationSpec:
    """The static replica placement: scheme and replication factor ``k``."""

    scheme: str = "permutation"
    replicas_per_stripe: int = 2
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_registered("allocation", self.scheme, "allocation scheme")
        check_positive_integer(self.replicas_per_stripe, "replicas_per_stripe")
        object.__setattr__(self, "params", _freeze_params(self.params))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "replicas_per_stripe": self.replicas_per_stripe,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AllocationSpec":
        return cls(
            scheme=str(data.get("scheme", "permutation")),
            replicas_per_stripe=int(data.get("replicas_per_stripe", 2)),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class WorkloadPhaseSpec:
    """One phase of the workload mix.

    The phase's generator is active during rounds ``[start, stop)``
    (``stop=None`` means until the horizon).  ``params`` are forwarded to
    the generator constructor; the generator's own ``start_time`` is set
    to ``start`` and its random state to a per-phase child stream of the
    scenario master seed.
    """

    kind: str
    start: int = 0
    stop: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_registered("workload", self.kind, "workload kind")
        check_non_negative_integer(self.start, "start")
        if self.stop is not None:
            check_positive_integer(self.stop, "stop")
            if self.stop <= self.start:
                raise ValueError(
                    f"phase stop ({self.stop}) must be after its start ({self.start})"
                )
        object.__setattr__(self, "params", _freeze_params(self.params))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start": self.start,
            "stop": self.stop,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadPhaseSpec":
        stop = data.get("stop")
        return cls(
            kind=str(data["kind"]),
            start=int(data.get("start", 0)),
            stop=None if stop is None else int(stop),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class ChurnSpec:
    """Random churn: per-round failure probability and outage duration."""

    failure_probability: float
    outage_duration: int
    protected_boxes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_probability(self.failure_probability, "failure_probability")
        check_positive_integer(self.outage_duration, "outage_duration")
        object.__setattr__(
            self, "protected_boxes", tuple(int(b) for b in self.protected_boxes)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "failure_probability": self.failure_probability,
            "outage_duration": self.outage_duration,
            "protected_boxes": list(self.protected_boxes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChurnSpec":
        return cls(
            failure_probability=float(data["failure_probability"]),
            outage_duration=int(data["outage_duration"]),
            protected_boxes=tuple(int(b) for b in data.get("protected_boxes", ())),
        )


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault injection: registry kind plus parameters.

    ``kind`` names a registered ``"fault"`` component (built-ins in
    :mod:`repro.faults.plan`: ``"box_crash"``, ``"brownout"``,
    ``"solver_budget"``); ``params`` are forwarded to its factory.  All
    randomness the plan needs is drawn from a dedicated child stream of
    the scenario master seed, so faulted runs replay bit-identically.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("fault kind must not be empty")
        object.__setattr__(self, "params", _freeze_params(self.params))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return cls(kind=str(data["kind"]), params=dict(data.get("params", {})))


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully declarative end-to-end scenario.

    Attributes
    ----------
    name:
        Registry key and CLI handle.
    description:
        One-line human description.
    paper_claim:
        The paper claim (theorem, lemma, regime) the scenario stresses —
        rendered in EXPERIMENTS.md and by ``python -m repro.scenarios list``.
    catalog, population, allocation, workload, churn:
        The component specs; ``workload`` is a tuple of phases.
    mu:
        Swarm-growth bound the run is measured against.
    horizon:
        Default number of rounds.
    solver:
        Matching kernel: a registered ``"solver"`` component
        (:mod:`repro.api.registry`; built in: ``"hopcroft_karp"`` and
        ``"dinic"``).
    default_seed:
        Seed used when the caller does not supply one.
    trace_level:
        Engine event-trace verbosity: ``"full"`` (default) or ``"lean"``
        (infeasibility markers only — what the 10k+-box scale tiers use
        to keep memory bounded).  Serialized only when non-default, so
        pre-existing golden recordings stay byte-identical.
    faults:
        Deterministic fault injections (:class:`FaultSpec` tuple) applied
        by the compiled scenario: box crash/rejoin bursts, capacity
        brownouts, solver-budget windows.  Serialized only when
        non-empty, for the same golden-compatibility reason.
    """

    name: str
    description: str
    catalog: CatalogSpec
    population: PopulationSpec
    allocation: AllocationSpec
    workload: Tuple[WorkloadPhaseSpec, ...]
    paper_claim: str = ""
    churn: Optional[ChurnSpec] = None
    mu: float = 1.5
    horizon: int = 20
    solver: str = "hopcroft_karp"
    default_seed: int = 0
    trace_level: str = "full"
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must not be empty")
        object.__setattr__(self, "workload", tuple(self.workload))
        object.__setattr__(self, "faults", tuple(self.faults))
        if not self.workload:
            raise ValueError("scenario must declare at least one workload phase")
        check_in_range(self.mu, "mu", 1.0, float("inf"))
        check_positive_integer(self.horizon, "horizon")
        _check_registered("solver", self.solver, "solver")
        check_non_negative_integer(self.default_seed, "default_seed")
        if self.trace_level not in ("full", "lean"):
            raise ValueError(
                f"trace_level must be 'full' or 'lean', got {self.trace_level!r}"
            )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready, round-trips through :meth:`from_dict`)."""
        payload = {
            "name": self.name,
            "description": self.description,
            "paper_claim": self.paper_claim,
            "catalog": self.catalog.to_dict(),
            "population": self.population.to_dict(),
            "allocation": self.allocation.to_dict(),
            "workload": [phase.to_dict() for phase in self.workload],
            "churn": None if self.churn is None else self.churn.to_dict(),
            "mu": self.mu,
            "horizon": self.horizon,
            "solver": self.solver,
            "default_seed": self.default_seed,
        }
        # Serialized only when non-default: golden traces recorded before
        # the fields existed must keep comparing spec-identical.
        if self.trace_level != "full":
            payload["trace_level"] = self.trace_level
        if self.faults:
            payload["faults"] = [fault.to_dict() for fault in self.faults]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Unknown keys raise ``ValueError`` instead of being dropped: a spec
        naming a field this build does not have would otherwise run as
        something other than what it describes.
        """
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown scenario spec keys: {', '.join(unknown)}")
        churn = data.get("churn")
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            paper_claim=str(data.get("paper_claim", "")),
            catalog=CatalogSpec.from_dict(data["catalog"]),
            population=PopulationSpec.from_dict(data["population"]),
            allocation=AllocationSpec.from_dict(data["allocation"]),
            workload=tuple(
                WorkloadPhaseSpec.from_dict(phase) for phase in data["workload"]
            ),
            churn=None if churn is None else ChurnSpec.from_dict(churn),
            mu=float(data.get("mu", 1.5)),
            horizon=int(data.get("horizon", 20)),
            solver=str(data.get("solver", "hopcroft_karp")),
            default_seed=int(data.get("default_seed", 0)),
            trace_level=str(data.get("trace_level", "full")),
            faults=tuple(
                FaultSpec.from_dict(fault) for fault in data.get("faults", ())
            ),
        )

    def with_overrides(
        self,
        horizon: Optional[int] = None,
        solver: Optional[str] = None,
    ) -> "ScenarioSpec":
        """Copy with selected fields replaced (used by the CLI and tests)."""
        return ScenarioSpec(
            name=self.name,
            description=self.description,
            paper_claim=self.paper_claim,
            catalog=self.catalog,
            population=self.population,
            allocation=self.allocation,
            workload=self.workload,
            churn=self.churn,
            mu=self.mu,
            horizon=self.horizon if horizon is None else horizon,
            solver=self.solver if solver is None else solver,
            default_seed=self.default_seed,
            trace_level=self.trace_level,
            faults=self.faults,
        )
