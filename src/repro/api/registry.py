"""String-keyed registry of pluggable system components.

One registry serves every component *kind* the facade can wire:

===============  ==================================================  =========================
kind             factory signature                                   built-in names
===============  ==================================================  =========================
``solver``       ``f(upload_slots) -> Solver``                       ``hopcroft_karp``,
                                                                     ``dinic``
``scheduler``    ``f(catalog, **params) -> RequestScheduler``        ``preloading``,
                                                                     ``immediate``
``workload``     ``f(params, start, mu, rng) -> DemandGenerator``    the 8 scenario kinds
                                                                     plus ``static``
``churn``        ``f(num_boxes, horizon, params, rng)``              ``random``
``population``   ``f(kind_params, rng) -> BoxPopulation``            ``homogeneous``,
                                                                     ``two_class``, ``pareto``
``allocation``   ``f(catalog, population, k, params, rng)``          ``permutation``,
                                                                     ``independent``,
                                                                     ``round_robin``,
                                                                     ``full_replication``
``experiment``   ``f(params) -> rows``                               the campaign runners of
                                                                     :mod:`repro.orchestrate`
===============  ==================================================  =========================

The scenario compiler (:mod:`repro.scenarios.build`) resolves every
stochastic ingredient through this registry, so registering a new
component name makes it immediately usable from :class:`ScenarioSpec`
files, the CLI and the :class:`~repro.api.system.VodSystem` facade alike.
``full_replication`` wires the Push-to-Peer baseline allocation into the
same surface.

Factories must be deterministic given their ``rng`` argument — scenario
replay and golden traces rely on it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.api.errors import ComponentLookupError
from repro.baselines.full_replication import full_replication_allocation
from repro.baselines.hierarchy import hierarchical_cache_allocation, tiered_population
from repro.core.allocation import (
    random_independent_allocation,
    random_permutation_allocation,
    round_robin_allocation,
)
from repro.core.matching import MATCHING_SOLVERS, ConnectionMatcher
from repro.core.parameters import (
    homogeneous_population,
    pareto_population,
    two_class_population,
)
from repro.core.preloading import Demand, ImmediateRequestScheduler, PreloadingScheduler
from repro.sim.churn import random_churn_schedule
from repro.workloads.adversarial import (
    ColdStartAdversary,
    LeastReplicatedAdversary,
    MissingVideoAdversary,
)
from repro.workloads.base import StaticDemandSchedule
from repro.workloads.drift import DriftingZipfWorkload, FlashRotationWorkload
from repro.workloads.flashcrowd import FlashCrowdWorkload, StaggeredFlashCrowdWorkload
from repro.workloads.popularity import UniformDemandWorkload, ZipfDemandWorkload
from repro.workloads.sequential import SequentialViewingWorkload
from repro.workloads.trace import TraceDemandWorkload

__all__ = [
    "COMPONENT_KINDS",
    "register_component",
    "component_factory",
    "create_component",
    "available_components",
]

COMPONENT_KINDS = (
    "solver",
    "scheduler",
    "workload",
    "churn",
    "population",
    "allocation",
    "experiment",
    "fault",
)

#: kind -> name -> (factory, description)
_REGISTRY: Dict[str, Dict[str, Tuple[Callable[..., Any], str]]] = {
    kind: {} for kind in COMPONENT_KINDS
}


def _check_kind(kind: str) -> str:
    if kind not in _REGISTRY:
        raise ComponentLookupError(
            f"unknown component kind {kind!r}; kinds: {', '.join(COMPONENT_KINDS)}"
        )
    return kind


def register_component(
    kind: str,
    name: str,
    factory: Callable[..., Any],
    description: str = "",
    overwrite: bool = False,
) -> Callable[..., Any]:
    """Register ``factory`` under ``(kind, name)``; returns the factory.

    Refuses silent redefinitions unless ``overwrite`` is set.
    """
    _check_kind(kind)
    if not name:
        raise ValueError("component name must not be empty")
    if not callable(factory):
        raise TypeError(f"factory for {kind}:{name} must be callable")
    if not overwrite and name in _REGISTRY[kind]:
        raise ValueError(f"component {kind}:{name} is already registered")
    _REGISTRY[kind][name] = (factory, description)
    return factory


def component_factory(kind: str, name: str) -> Callable[..., Any]:
    """Look up the factory registered under ``(kind, name)``."""
    _check_kind(kind)
    try:
        return _REGISTRY[kind][name][0]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY[kind])) or "(none)"
        raise ComponentLookupError(
            f"unknown {kind} component {name!r}; registered: {known}"
        ) from None


def create_component(kind: str, name: str, *args: Any, **kwargs: Any) -> Any:
    """Instantiate the component ``(kind, name)`` with the factory's arguments."""
    return component_factory(kind, name)(*args, **kwargs)


def available_components(kind: Optional[str] = None) -> Dict[str, List[str]]:
    """Registered names, per kind (or only for ``kind`` when given)."""
    kinds = (_check_kind(kind),) if kind is not None else COMPONENT_KINDS
    return {k: sorted(_REGISTRY[k]) for k in kinds}


# ---------------------------------------------------------------------- #
# Built-in solvers
# ---------------------------------------------------------------------- #
def _solver_factory(kernel: str) -> Callable[..., ConnectionMatcher]:
    def build(upload_slots) -> ConnectionMatcher:
        return ConnectionMatcher(upload_slots, solver=kernel)

    build.__name__ = f"build_{kernel}_solver"
    return build


for _kernel in MATCHING_SOLVERS:
    register_component(
        "solver",
        _kernel,
        _solver_factory(_kernel),
        f"ConnectionMatcher(solver={_kernel!r})",
    )


# ---------------------------------------------------------------------- #
# Built-in schedulers
# ---------------------------------------------------------------------- #
register_component(
    "scheduler",
    "preloading",
    lambda catalog, **params: PreloadingScheduler(catalog, **params),
    "Theorem 1 preloading strategy (1 preload + c−1 postponed requests)",
)
register_component(
    "scheduler",
    "immediate",
    lambda catalog, **params: ImmediateRequestScheduler(catalog),
    "ablation: request all c stripes at the demand round",
)


# ---------------------------------------------------------------------- #
# Built-in workloads (the scenario phase kinds)
# ---------------------------------------------------------------------- #
def _build_zipf(p: Mapping[str, Any], start: int, mu: float, rng):
    return ZipfDemandWorkload(
        arrival_rate=float(p["arrival_rate"]),
        exponent=float(p.get("exponent", 0.8)),
        start_time=start,
        random_state=rng,
    )


def _build_uniform(p: Mapping[str, Any], start: int, mu: float, rng):
    return UniformDemandWorkload(
        arrival_rate=float(p["arrival_rate"]),
        start_time=start,
        random_state=rng,
    )


def _build_flashcrowd(p: Mapping[str, Any], start: int, mu: float, rng):
    max_members = p.get("max_members")
    return FlashCrowdWorkload(
        mu=mu,
        target_videos=tuple(int(v) for v in p.get("target_videos", (0,))),
        start_time=start,
        max_members=None if max_members is None else int(max_members),
        random_state=rng,
    )


def _build_staggered_flashcrowd(p: Mapping[str, Any], start: int, mu: float, rng):
    max_members = p.get("max_members")
    return StaggeredFlashCrowdWorkload(
        mu=mu,
        target_videos=tuple(int(v) for v in p["target_videos"]),
        start_times=tuple(int(t) for t in p["start_times"]),
        max_members=None if max_members is None else int(max_members),
        random_state=rng,
    )


def _build_sequential(p: Mapping[str, Any], start: int, mu: float, rng):
    boxes = p.get("boxes")
    playlist = p.get("playlist")
    return SequentialViewingWorkload(
        boxes=None if boxes is None else tuple(int(b) for b in boxes),
        playlist=None if playlist is None else tuple(int(v) for v in playlist),
        start_time=start,
        random_state=rng,
    )


def _build_missing_video(p: Mapping[str, Any], start: int, mu: float, rng):
    cap = p.get("max_demands_per_round")
    return MissingVideoAdversary(
        start_time=start,
        max_demands_per_round=None if cap is None else int(cap),
        respect_growth=bool(p.get("respect_growth", False)),
        mu=mu,
        random_state=rng,
    )


def _build_least_replicated(p: Mapping[str, Any], start: int, mu: float, rng):
    return LeastReplicatedAdversary(
        mu=mu,
        num_target_videos=int(p.get("num_target_videos", 1)),
        start_time=start,
        random_state=rng,
    )


def _build_cold_start(p: Mapping[str, Any], start: int, mu: float, rng):
    cap = p.get("max_demands_per_round")
    return ColdStartAdversary(
        start_time=start,
        max_demands_per_round=None if cap is None else int(cap),
        random_state=rng,
    )


def _build_drift(p: Mapping[str, Any], start: int, mu: float, rng):
    return DriftingZipfWorkload(
        arrival_rate=float(p["arrival_rate"]),
        exponent=float(p.get("exponent", 0.8)),
        drift_period=int(p.get("drift_period", 8)),
        start_time=start,
        random_state=rng,
    )


def _build_flash_rotation(p: Mapping[str, Any], start: int, mu: float, rng):
    return FlashRotationWorkload(
        arrival_rate=float(p["arrival_rate"]),
        hot_videos=int(p.get("hot_videos", 4)),
        rotation_period=int(p.get("rotation_period", 6)),
        boost=float(p.get("boost", 8.0)),
        start_time=start,
        random_state=rng,
    )


def _build_trace(p: Mapping[str, Any], start: int, mu: float, rng):
    return TraceDemandWorkload(
        trace=str(p["trace"]),
        start_time=start,
        random_state=rng,
    )


def _build_static(p: Mapping[str, Any], start: int, mu: float, rng):
    demands = [
        Demand(time=int(d["time"]), box_id=int(d["box_id"]), video_id=int(d["video_id"]))
        if isinstance(d, Mapping)
        else d
        for d in p["demands"]
    ]
    return StaticDemandSchedule(demands)


for _name, _factory, _desc in (
    ("zipf", _build_zipf, "Poisson arrivals over a Zipf popularity law"),
    ("uniform", _build_uniform, "Poisson arrivals, uniformly popular catalog"),
    ("flashcrowd", _build_flashcrowd, "mu-rate flash crowd on target videos"),
    (
        "staggered_flashcrowd",
        _build_staggered_flashcrowd,
        "several flash crowds with staggered start rounds",
    ),
    ("sequential", _build_sequential, "boxes binge a playlist back to back"),
    ("missing_video", _build_missing_video, "adversary demanding unallocated videos"),
    (
        "least_replicated",
        _build_least_replicated,
        "adaptive adversary flooding the least-replicated videos",
    ),
    ("cold_start", _build_cold_start, "adversary demanding only cold videos"),
    ("drift", _build_drift, "Zipf popularity whose ranks reshuffle on a schedule"),
    (
        "flash_rotation",
        _build_flash_rotation,
        "rotating promoted hot set over a flat catalog",
    ),
    ("trace", _build_trace, "replay a recorded on-disk demand trace"),
    ("static", _build_static, "fixed precomputed demand schedule"),
):
    register_component("workload", _name, _factory, _desc)


# ---------------------------------------------------------------------- #
# Built-in churn models
# ---------------------------------------------------------------------- #
def _build_random_churn(num_boxes: int, horizon: int, params: Mapping[str, Any], rng):
    return random_churn_schedule(
        num_boxes=num_boxes,
        horizon=horizon,
        failure_probability=float(params["failure_probability"]),
        outage_duration=int(params["outage_duration"]),
        random_state=rng,
        protected_boxes=tuple(params.get("protected_boxes", ())),
    )


register_component(
    "churn",
    "random",
    _build_random_churn,
    "independent per-round failures with fixed outage duration",
)


# ---------------------------------------------------------------------- #
# Built-in populations
# ---------------------------------------------------------------------- #
def _build_homogeneous_population(params: Mapping[str, Any], rng):
    return homogeneous_population(
        n=int(params["n"]), u=float(params["u"]), d=float(params["d"])
    )


def _build_two_class_population(params: Mapping[str, Any], rng):
    return two_class_population(
        n=int(params["n"]),
        rich_fraction=float(params["rich_fraction"]),
        u_rich=float(params["u_rich"]),
        u_poor=float(params["u_poor"]),
        d_rich=float(params["d_rich"]),
        d_poor=float(params["d_poor"]),
        random_state=rng,
        shuffle=bool(params.get("shuffle", False)),
    )


def _build_pareto_population(params: Mapping[str, Any], rng):
    u_cap = params.get("u_cap")
    return pareto_population(
        n=int(params["n"]),
        u_min=float(params["u_min"]),
        shape=float(params["shape"]),
        storage_per_upload=float(params["storage_per_upload"]),
        u_cap=None if u_cap is None else float(u_cap),
        random_state=rng,
    )


def _build_tiered_population(params: Mapping[str, Any], rng):
    return tiered_population(params)


for _name, _factory, _desc in (
    ("homogeneous", _build_homogeneous_population, "identical (u, d) boxes"),
    ("two_class", _build_two_class_population, "rich/poor upload tiers"),
    ("pareto", _build_pareto_population, "truncated-Pareto upload distribution"),
    (
        "tiered",
        _build_tiered_population,
        "CDN / vCDN / µCDN / client capacity hierarchy",
    ),
):
    register_component("population", _name, _factory, _desc)


# ---------------------------------------------------------------------- #
# Built-in allocations (paper schemes + the full-replication baseline)
# ---------------------------------------------------------------------- #
def _build_permutation_allocation(catalog, population, k, params: Mapping[str, Any], rng):
    return random_permutation_allocation(catalog, population, k, random_state=rng)


def _build_independent_allocation(catalog, population, k, params: Mapping[str, Any], rng):
    return random_independent_allocation(
        catalog,
        population,
        k,
        random_state=rng,
        on_full=str(params.get("on_full", "redraw")),
    )


def _build_round_robin_allocation(catalog, population, k, params: Mapping[str, Any], rng):
    return round_robin_allocation(
        catalog, population, k, offset=int(params.get("offset", 0))
    )


def _build_full_replication_allocation(
    catalog, population, k, params: Mapping[str, Any], rng
):
    return full_replication_allocation(catalog, population, replicas_per_stripe=k)


def _build_hierarchical_cache_allocation(
    catalog, population, k, params: Mapping[str, Any], rng
):
    return hierarchical_cache_allocation(
        catalog, population, k, params=params, random_state=rng
    )


for _name, _factory, _desc in (
    ("permutation", _build_permutation_allocation, "random permutation over storage slots"),
    ("independent", _build_independent_allocation, "independent storage-weighted draws"),
    ("round_robin", _build_round_robin_allocation, "deterministic round-robin control"),
    (
        "full_replication",
        _build_full_replication_allocation,
        "Push-to-Peer baseline: every box stores a stripe of every video",
    ),
    (
        "hierarchical_cache",
        _build_hierarchical_cache_allocation,
        "CDN origin copy plus tier-preferred whole-video helper caches",
    ),
):
    register_component("allocation", _name, _factory, _desc)
