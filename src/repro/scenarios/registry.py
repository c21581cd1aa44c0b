"""The registry of named end-to-end scenarios.

Each entry composes population, allocation, a phased workload mix, churn
and a horizon into one reproducible run keyed by name.  The parameters
are deliberately small (tens of boxes, tens of rounds) so that the full
registry replays in seconds — these are regression scenarios for the
matching engine and simulator, not scale benchmarks; the `paper_claim`
field says which claim of the paper each one stresses.

Use :func:`get_scenario` / :func:`scenario_names` to look entries up and
:func:`register` to add project-local ones.
"""

from __future__ import annotations

from typing import Dict, List

from repro.scenarios.spec import (
    AllocationSpec,
    CatalogSpec,
    ChurnSpec,
    FaultSpec,
    PopulationSpec,
    ScenarioSpec,
    WorkloadPhaseSpec,
)

__all__ = ["register", "get_scenario", "scenario_names", "all_scenarios"]

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry (refusing silent redefinitions)."""
    if not overwrite and spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


def scenario_names() -> List[str]:
    """Sorted names of all registered scenarios."""
    return sorted(_REGISTRY)


def all_scenarios() -> List[ScenarioSpec]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]


# ---------------------------------------------------------------------- #
# Built-in scenarios
# ---------------------------------------------------------------------- #
register(
    ScenarioSpec(
        name="steady_state",
        description="Zipf-popular Poisson demand on a comfortable homogeneous system.",
        paper_claim=(
            "Theorem 1 baseline regime: u > 1 with moderate replication keeps "
            "every round feasible under benign demand."
        ),
        catalog=CatalogSpec(num_videos=16, num_stripes=4, duration=12),
        population=PopulationSpec("homogeneous", {"n": 32, "u": 2.0, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=4),
        workload=(WorkloadPhaseSpec("zipf", params={"arrival_rate": 3.0}),),
        mu=1.5,
        horizon=24,
    )
)

register(
    ScenarioSpec(
        name="flashcrowd_spike",
        description="A mu-rate flash crowd on one video over light background demand.",
        paper_claim=(
            "Lemma 2 tightness: a swarm growing at the maximal rate mu is fed by "
            "the previous generation's preloaded stripes."
        ),
        catalog=CatalogSpec(num_videos=12, num_stripes=4, duration=10),
        population=PopulationSpec("homogeneous", {"n": 40, "u": 2.0, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=4),
        workload=(
            WorkloadPhaseSpec("zipf", params={"arrival_rate": 1.0}),
            WorkloadPhaseSpec(
                "flashcrowd",
                start=2,
                params={"target_videos": [0], "max_members": 25},
            ),
        ),
        mu=1.5,
        horizon=20,
    )
)

register(
    ScenarioSpec(
        name="adaptive_adversary",
        description="Demand floods the least-replicated videos of the drawn allocation.",
        paper_claim=(
            "Worst-case quantification over any demand sequence: an adaptive "
            "adversary probes the weakest part of the expander."
        ),
        catalog=CatalogSpec(num_videos=14, num_stripes=4, duration=10),
        population=PopulationSpec("homogeneous", {"n": 36, "u": 2.0, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=4),
        workload=(
            WorkloadPhaseSpec(
                "least_replicated", params={"num_target_videos": 2, "mu": 1.4}
            ),
        ),
        mu=1.4,
        horizon=20,
    )
)

register(
    ScenarioSpec(
        name="hetero_upload_tiers",
        description="Rich/poor two-class population served without relaying.",
        paper_claim=(
            "Section 4 premise: heterogeneous upload tiers with average u > 1 "
            "still admit per-round feasible matchings."
        ),
        catalog=CatalogSpec(num_videos=12, num_stripes=4, duration=10),
        population=PopulationSpec(
            "two_class",
            {
                "n": 40,
                "rich_fraction": 0.4,
                "u_rich": 3.0,
                "u_poor": 1.0,
                "d_rich": 4.5,
                "d_poor": 1.5,
                "shuffle": True,
            },
        ),
        allocation=AllocationSpec("permutation", replicas_per_stripe=4),
        workload=(WorkloadPhaseSpec("zipf", params={"arrival_rate": 2.5}),),
        mu=1.5,
        horizon=20,
    )
)

register(
    ScenarioSpec(
        name="churn_storm",
        description="Random box outages take replicas and upload offline mid-run.",
        paper_claim=(
            "Robustness extension: k independent replicas tolerate moderate "
            "churn without any repair mechanism."
        ),
        catalog=CatalogSpec(num_videos=12, num_stripes=4, duration=10),
        population=PopulationSpec("homogeneous", {"n": 36, "u": 2.5, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=5),
        workload=(WorkloadPhaseSpec("zipf", params={"arrival_rate": 2.0}),),
        churn=ChurnSpec(failure_probability=0.03, outage_duration=4),
        mu=1.5,
        horizon=24,
    )
)

register(
    ScenarioSpec(
        name="catalog_growth_ramp",
        description="Cold-start demand ramps across a catalog near the storage cap.",
        paper_claim=(
            "Achievable catalog size: sourcing pressure on an m close to d*n/k "
            "catalog probes the obstruction-probability regime of Lemmas 3-4."
        ),
        catalog=CatalogSpec(num_videos=23, num_stripes=4, duration=8),
        population=PopulationSpec("homogeneous", {"n": 32, "u": 2.0, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=4),
        workload=(
            WorkloadPhaseSpec(
                "cold_start", start=0, stop=8, params={"max_demands_per_round": 1}
            ),
            WorkloadPhaseSpec(
                "cold_start", start=8, stop=16, params={"max_demands_per_round": 3}
            ),
            WorkloadPhaseSpec(
                "cold_start", start=16, params={"max_demands_per_round": 5}
            ),
        ),
        mu=1.5,
        horizon=24,
    )
)

register(
    ScenarioSpec(
        name="warm_cold_restart",
        description="Two flash crowds separated by an idle gap on one simulator.",
        paper_claim=(
            "Warm-start correctness: after caches evict and requests expire, "
            "re-matching from a stale assignment must equal a cold solve."
        ),
        catalog=CatalogSpec(num_videos=12, num_stripes=4, duration=8),
        population=PopulationSpec("homogeneous", {"n": 40, "u": 2.0, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=4),
        workload=(
            WorkloadPhaseSpec(
                "flashcrowd",
                start=1,
                params={"target_videos": [0], "max_members": 20},
            ),
            WorkloadPhaseSpec(
                "flashcrowd",
                start=12,
                params={"target_videos": [1], "max_members": 20},
            ),
        ),
        mu=1.5,
        horizon=24,
    )
)

# Scale tiers: the same homogeneous regime at 10k/100k/500k boxes with
# proportional catalogs, exercising the vectorized engine core at sizes
# the asymptotic threshold statements are actually about.  Lean traces,
# CI-feasible horizons; `tests/test_scale_stress.py` and
# `benchmarks/bench_scale.py` drive them.
from repro.scenarios.scale import SCALE_TIERS, scale_tier_spec  # noqa: E402

for _tier in SCALE_TIERS:
    register(scale_tier_spec(_tier))


register(
    ScenarioSpec(
        name="near_threshold_load",
        description="Aggressive uniform demand with upload barely above the threshold.",
        paper_claim=(
            "The u > 1 threshold itself: just above it the system is workable "
            "but obstruction witnesses appear under heavy load."
        ),
        catalog=CatalogSpec(num_videos=14, num_stripes=4, duration=10),
        population=PopulationSpec("homogeneous", {"n": 48, "u": 1.05, "d": 2.5}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=3),
        workload=(WorkloadPhaseSpec("uniform", params={"arrival_rate": 10.0}),),
        mu=1.5,
        horizon=20,
    )
)

# Chaos scenarios: the regimes above with declarative, seed-deterministic
# fault plans (:mod:`repro.faults.plan`) layered on top.  They are golden
# scenarios like any other — injected faults replay bit-identically — and
# the recovery properties they pin down are asserted in
# `tests/test_faults_plan.py` and the `fault_recovery` campaign.
register(
    ScenarioSpec(
        name="chaos_box_crash",
        description="A correlated crash burst takes 20% of boxes down mid-run.",
        paper_claim=(
            "Robustness extension under correlated failure: k independent "
            "replicas keep most rounds feasible through a crash burst, and "
            "the crashed boxes rejoin without repair."
        ),
        catalog=CatalogSpec(num_videos=12, num_stripes=4, duration=10),
        population=PopulationSpec("homogeneous", {"n": 36, "u": 2.5, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=5),
        workload=(WorkloadPhaseSpec("zipf", params={"arrival_rate": 2.0}),),
        mu=1.5,
        horizon=24,
        faults=(
            FaultSpec("box_crash", {"start": 4, "duration": 4, "fraction": 0.2}),
        ),
    )
)

register(
    ScenarioSpec(
        name="chaos_brownout",
        description="A quarter of the boxes run at half upload for a window.",
        paper_claim=(
            "Capacity-margin sensitivity: a partial upload brownout erodes "
            "the u > 1 margin without disconnecting any replica."
        ),
        catalog=CatalogSpec(num_videos=16, num_stripes=4, duration=12),
        population=PopulationSpec("homogeneous", {"n": 32, "u": 2.0, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=4),
        workload=(WorkloadPhaseSpec("zipf", params={"arrival_rate": 3.0}),),
        mu=1.5,
        horizon=24,
        faults=(
            FaultSpec(
                "brownout",
                {"start": 6, "duration": 6, "fraction": 0.25, "factor": 0.5},
            ),
        ),
    )
)

register(
    ScenarioSpec(
        name="zipf_steady",
        description=(
            "Stationary truncated-Zipf demand with the classic VoD "
            "exponent over a comfortable homogeneous system."
        ),
        paper_claim=(
            "Workload realism for Theorem 1: the feasibility guarantee is "
            "demand-oblivious, so the stationary Zipf regime real VoD "
            "catalogs exhibit (alpha near 1) must stay feasible exactly "
            "like the near-uniform synthetic demand."
        ),
        catalog=CatalogSpec(num_videos=20, num_stripes=4, duration=10),
        population=PopulationSpec("homogeneous", {"n": 36, "u": 2.0, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=4),
        workload=(
            WorkloadPhaseSpec(
                "zipf", params={"arrival_rate": 4.0, "exponent": 1.2}
            ),
        ),
        mu=1.5,
        horizon=24,
    )
)

register(
    ScenarioSpec(
        name="zipf_drift",
        description=(
            "Zipf demand whose popularity ranks reshuffle on a schedule, "
            "with a rotating promoted hot set layered on top."
        ),
        paper_claim=(
            "Temporal drift stress: the allocation is drawn once but real "
            "popularity drifts, so feasibility must not depend on which "
            "videos happen to be hot — the expander argument is "
            "permutation-invariant."
        ),
        catalog=CatalogSpec(num_videos=16, num_stripes=4, duration=10),
        population=PopulationSpec("homogeneous", {"n": 32, "u": 2.0, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=4),
        workload=(
            WorkloadPhaseSpec(
                "drift",
                params={"arrival_rate": 2.5, "exponent": 1.0, "drift_period": 6},
            ),
            WorkloadPhaseSpec(
                "flash_rotation",
                start=8,
                params={
                    "arrival_rate": 1.0,
                    "hot_videos": 3,
                    "rotation_period": 4,
                    "boost": 6.0,
                },
            ),
        ),
        mu=1.5,
        horizon=24,
    )
)

register(
    ScenarioSpec(
        name="trace_replay",
        description=(
            "Replay of the bundled zipf_small demand trace through the "
            "streaming trace reader."
        ),
        paper_claim=(
            "Trace-driven validation: recorded request logs replayed "
            "bit-reproducibly stand in for the parametric workload models, "
            "closing the loop between the paper's analysis and measured "
            "demand."
        ),
        catalog=CatalogSpec(num_videos=16, num_stripes=4, duration=12),
        population=PopulationSpec("homogeneous", {"n": 32, "u": 2.0, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=4),
        workload=(WorkloadPhaseSpec("trace", params={"trace": "zipf_small"}),),
        mu=1.5,
        horizon=24,
    )
)

register(
    ScenarioSpec(
        name="cdn_hybrid_baseline",
        description=(
            "Zipf demand served by the operator-shaped CDN / vCDN / muCDN "
            "hierarchy with whole-video helper caches."
        ),
        paper_claim=(
            "Catalog-vs-replication tradeoff against deployment practice: "
            "a capacity hierarchy with LRU-fixed-point helper caches is "
            "the baseline operators actually run, and the paper's "
            "distributed scheme must be compared against it on the same "
            "engine."
        ),
        catalog=CatalogSpec(num_videos=12, num_stripes=4, duration=10),
        population=PopulationSpec(
            "tiered",
            {
                "cdn_count": 2,
                "vcdn_count": 4,
                "mucdn_count": 8,
                "client_count": 18,
            },
        ),
        allocation=AllocationSpec(
            "hierarchical_cache",
            replicas_per_stripe=3,
            params={
                "cdn_count": 2,
                "vcdn_count": 4,
                "mucdn_count": 8,
                "client_count": 18,
            },
        ),
        workload=(
            WorkloadPhaseSpec(
                "zipf", params={"arrival_rate": 3.0, "exponent": 1.2}
            ),
        ),
        mu=1.5,
        horizon=20,
    )
)
