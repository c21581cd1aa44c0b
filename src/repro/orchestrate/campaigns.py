"""Registered campaigns: the migrated ``benchmarks/bench_*.py`` experiments.

Each experiment's *logic* lives here as a registered ``"experiment"``
component (:mod:`repro.api.registry`) — a runner ``f(params) -> rows``
that the campaign runner resolves by name.  The campaign definitions
then declare the paper's sweeps over those runners; the former benchmark
scripts are thin wrappers that execute the same cells without a store
and keep their pytest-benchmark timings and assertions.

Determinism contract: a runner's rows are a pure function of its params
dict.  Anything stochastic takes an explicit ``seed`` parameter and
derives its streams with the :mod:`repro.util.rng` helpers, exactly like
the Monte-Carlo estimators — which is what makes the content addressing
of :mod:`repro.orchestrate.store` sound.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.api.registry import register_component
from repro.orchestrate.spec import CampaignSpec

__all__ = [
    "register_campaign",
    "get_campaign",
    "campaign_names",
    "all_campaigns",
]

_CAMPAIGNS: Dict[str, CampaignSpec] = {}


def register_campaign(spec: CampaignSpec, overwrite: bool = False) -> CampaignSpec:
    """Add ``spec`` to the campaign registry (refusing silent redefinitions)."""
    if not overwrite and spec.name in _CAMPAIGNS:
        raise ValueError(f"campaign {spec.name!r} is already registered")
    _CAMPAIGNS[spec.name] = spec
    return spec


def get_campaign(name: str) -> CampaignSpec:
    """Look a campaign up by name."""
    try:
        return _CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(_CAMPAIGNS))
        raise KeyError(f"unknown campaign {name!r}; registered: {known}") from None


def campaign_names() -> List[str]:
    """Sorted names of all registered campaigns."""
    return sorted(_CAMPAIGNS)


def all_campaigns() -> List[CampaignSpec]:
    """All registered campaigns, sorted by name."""
    return [_CAMPAIGNS[name] for name in campaign_names()]


# ====================================================================== #
# Experiment runners (registered "experiment" components)
# ====================================================================== #
def run_threshold_design(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """E5 — one Theorem 1 design point: c(u, mu), k(u, d, mu), catalog bound."""
    from repro.analysis.bounds import threshold_design_table

    return threshold_design_table(
        n=int(params["n"]),
        d=float(params["d"]),
        mu=float(params["mu"]),
        u_values=[float(params["u"])],
    )


def run_catalog_scaling(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """E5 — the catalog guarantee at one system size n (linear-in-n check)."""
    from repro.analysis.bounds import catalog_bound_vs_n

    data = catalog_bound_vs_n(
        [int(params["n"])], float(params["u"]), float(params["d"]), float(params["mu"])
    )
    return [
        {
            "n": int(data["n"][0]),
            "k": int(data["k"][0]),
            "catalog": int(data["catalog"][0]),
            "catalog_per_box": float(data["catalog_per_box"][0]),
        }
    ]


def run_quality_tradeoff(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """E10 — catalog guarantee at one bitrate (fixed physical upload)."""
    from repro.analysis.bounds import quality_tradeoff_table

    return quality_tradeoff_table(
        bitrates=[float(params["bitrate"])],
        raw_upload=float(params["raw_upload"]),
        n=int(params["n"]),
        d=float(params["d"]),
        mu=float(params["mu"]),
    )


def run_obstruction_probability(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """E6 — obstruction probability at one replication factor k.

    Always evaluates the paper's aggregated first-moment bound and the
    exact Equation 1 double sum; when ``trials > 0`` additionally runs the
    Monte-Carlo cold-start probe of real random allocations.
    """
    from repro.analysis.montecarlo import estimate_static_obstruction_probability
    from repro.core import obstruction as ob
    from repro.core import thresholds as th

    n = int(params["n"])
    u = float(params["u"])
    d = float(params["d"])
    c = int(params["c"])
    mu = float(params["mu"])
    k = int(params["k"])
    trials = int(params.get("trials", 0))

    nu = th.nu_homogeneous(u, c, mu)
    u_prime = th.effective_upload(u, c)
    d_prime = th.d_prime(d, u)
    m = max(int(d * n // k), 1)
    row: Dict[str, Any] = {
        "k": k,
        "catalog": m,
        "paper_bound": ob.first_moment_bound_paper(n, c, u_prime, d_prime, k, nu),
        "exact_eq1_bound": ob.first_moment_bound_exact(n, c, m, k, u_prime, nu),
    }
    if trials > 0:
        estimate = estimate_static_obstruction_probability(
            n=n,
            u=u,
            d=d,
            c=c,
            k=k,
            num_cold_videos=[min(m, n // 3)],
            trials=trials,
            random_state=int(params["seed"]),
        )
        row["montecarlo_estimate"] = estimate.failure_probability
        row["montecarlo_ci"] = round(estimate.confidence_halfwidth, 3)
    return [row]


def _configure_homogeneous(params: Mapping[str, Any]):
    """A ``VodSystem`` over the bench harness's homogeneous setup."""
    from repro.api import VodSystem

    system = VodSystem.configure(
        catalog={
            "num_videos": int(params["m"]),
            "num_stripes": int(params["c"]),
            "duration": int(params.get("duration", 30)),
        },
        population=(
            "homogeneous",
            {"n": int(params["n"]), "u": float(params["u"]), "d": float(params["d"])},
        ),
        mu=float(params["mu"]),
    )
    system.allocate(
        "permutation",
        replicas_per_stripe=int(params["k"]),
        seed=int(params["seed"]),
    )
    return system


def run_churn_robustness(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """A2 — feasibility of one churn level (no repair mechanism)."""
    from repro.api import create_component
    from repro.util.rng import as_generator

    system = _configure_homogeneous(params)
    rounds = int(params["rounds"])
    n = int(params["n"])
    failure_probability = float(params["failure_probability"])
    churn = create_component(
        "churn",
        "random",
        n,
        rounds,
        {
            "failure_probability": failure_probability,
            "outage_duration": int(params["outage_duration"]),
        },
        as_generator(int(params["seed"]) + 100),
    )
    workload = create_component(
        "workload",
        "flashcrowd",
        {},
        0,
        float(params["mu"]),
        as_generator(int(params["seed"])),
    )
    result = system.run(workload, rounds, churn=churn)
    return [
        {
            "failure_probability": failure_probability,
            "max_concurrent_offline": churn.max_concurrent_outages(rounds),
            "offline_fraction_peak": round(churn.max_concurrent_outages(rounds) / n, 3),
            "feasible": result.feasible,
            "infeasible_rounds": result.metrics.infeasible_rounds,
            "unmatched_requests": result.metrics.unmatched_requests,
            "demands": result.metrics.total_demands,
        }
    ]


def run_startup_delay(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """E8 — realized start-up delay of one workload on the preloading strategy."""
    from repro.api import create_component
    from repro.util.rng import as_generator

    system = _configure_homogeneous(params)
    workload = create_component(
        "workload",
        str(params["workload_kind"]),
        dict(params.get("workload_params", {})),
        0,
        float(params["mu"]),
        as_generator(int(params["workload_seed"])),
    )
    result = system.run(workload, int(params["rounds"]))
    return [
        {
            "strategy": "homogeneous preloading",
            "workload": str(params.get("workload_label", params["workload_kind"])),
            "feasible": result.feasible,
            "playbacks": len(result.trace.playback_starts()),
            "max_startup_delay": result.metrics.max_startup_delay,
            "mean_startup_delay": result.metrics.mean_startup_delay,
        }
    ]


def run_baseline_comparison(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """E11 — one baseline system under the same maximal flash crowd."""
    from repro.api import VodSystem
    from repro.baselines.central_server import CentralServerModel
    from repro.baselines.full_replication import (
        full_replication_allocation,
        max_catalog_full_replication,
    )
    from repro.baselines.sourcing_only import SourcingOnlyPossessionIndex
    from repro.core.allocation import random_permutation_allocation
    from repro.core.parameters import homogeneous_population
    from repro.core.video import Catalog

    system_kind = str(params["system"])
    n = int(params["n"])
    u = float(params["u"])
    d = float(params["d"])
    c = int(params["c"])
    k = int(params["k"])
    mu = float(params["mu"])
    duration = int(params["duration"])
    seed = int(params["seed"])
    rounds = int(params["rounds"])

    if system_kind == "central_server":
        server = CentralServerModel(upload_capacity=u, storage_capacity=d)
        return [
            {
                "system": "central server sized like one box",
                "catalog": server.catalog_size,
                "catalog_scaling": "O(1)",
                "flash_crowd_served": server.can_serve(n),
                "infeasible_rounds": "n/a",
                "max_startup_delay": "n/a",
            }
        ]

    population = homogeneous_population(n, u=u, d=d)
    if system_kind == "full_replication":
        label = "full replication (Push-to-Peer [22])"
        catalog = Catalog(
            num_videos=max_catalog_full_replication(d, c),
            num_stripes=c,
            duration=duration,
        )
        allocation = full_replication_allocation(catalog, population)
    else:
        label = (
            "random stripes + swarming (paper)"
            if system_kind == "random_swarming"
            else "random stripes, sourcing only [3]"
        )
        catalog = Catalog(num_videos=int(d * n // k), num_stripes=c, duration=duration)
        allocation = random_permutation_allocation(
            catalog, population, k, random_state=seed
        )
    simulator = VodSystem.for_allocation(allocation, mu=mu).build_simulator()
    if system_kind == "sourcing_only":
        simulator._possession = SourcingOnlyPossessionIndex(
            allocation, cache_window=duration
        )
    from repro.api import create_component
    from repro.util.rng import as_generator

    workload = create_component(
        "workload", "flashcrowd", {"target_videos": [0]}, 0, mu, as_generator(seed)
    )
    result = simulator.run(workload, num_rounds=rounds)
    return [
        {
            "system": label,
            "catalog": allocation.catalog_size,
            "catalog_scaling": "Θ(n)" if system_kind != "full_replication" else "O(1)",
            "flash_crowd_served": result.feasible,
            "infeasible_rounds": result.metrics.infeasible_rounds,
            "max_startup_delay": result.metrics.max_startup_delay,
        }
    ]


def run_scenario_digest(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Scenario regression cell: run a registered scenario and digest it."""
    from repro.scenarios.replay import run_scenario

    run = run_scenario(
        str(params["scenario"]),
        seed=int(params["seed"]),
        num_rounds=int(params["rounds"]),
    )
    return [
        {
            "scenario": run.spec.name,
            "seed": run.seed,
            "rounds": run.rounds,
            "digest": run.digest,
            "infeasible_rounds": run.summary["infeasible_rounds"],
            "unmatched_requests": run.summary["unmatched_requests"],
            "total_demands": run.summary["total_demands"],
            "peak_box_load": run.summary["peak_box_load"],
        }
    ]


for _name, _runner, _desc in (
    ("threshold_design", run_threshold_design, "E5: Theorem 1 design constants at one u"),
    ("catalog_scaling", run_catalog_scaling, "E5: catalog guarantee at one n"),
    ("quality_tradeoff", run_quality_tradeoff, "E10: catalog vs bitrate at fixed upload"),
    (
        "obstruction_probability",
        run_obstruction_probability,
        "E6: obstruction bounds + Monte-Carlo at one k",
    ),
    ("churn_robustness", run_churn_robustness, "A2: feasibility at one churn level"),
    ("startup_delay", run_startup_delay, "E8: start-up delay of one workload"),
    (
        "baseline_comparison",
        run_baseline_comparison,
        "E11: one baseline system under a flash crowd",
    ),
    ("scenario_digest", run_scenario_digest, "replay digest of one registered scenario"),
):
    register_component("experiment", _name, _runner, _desc)


# ====================================================================== #
# Campaign definitions (the paper's sweeps)
# ====================================================================== #
register_campaign(
    CampaignSpec(
        name="threshold_formulas",
        description="Theorem 1 design constants c(u,mu), k(u,d,mu) and the catalog bound vs u.",
        runner="threshold_design",
        base={"n": 10_000, "d": 4.0, "mu": 1.3},
        grid={"u": (1.1, 1.2, 1.5, 2.0, 3.0, 5.0)},
        paper_claim=(
            "Theorem 1 constants: the stripe-count and replication prescriptions, "
            "the nu margin and the catalog lower bound as functions of u."
        ),
        columns=(
            "u", "c", "k", "nu", "u_prime", "d_prime", "catalog_size", "asymptotic_bound",
        ),
        benchmark="bench_threshold_formulas.py",
    )
)

register_campaign(
    CampaignSpec(
        name="catalog_scaling",
        description="The Theorem 1 catalog guarantee grows linearly with n (u=2, d=4, mu=1.3).",
        runner="catalog_scaling",
        base={"u": 2.0, "d": 4.0, "mu": 1.3},
        grid={"n": (1_000, 5_000, 20_000, 100_000)},
        paper_claim=(
            "Theorem 1: the achievable catalog m = d*n/k is linear in the system "
            "size — catalog-per-box converges as n grows."
        ),
        columns=("n", "k", "catalog", "catalog_per_box"),
        benchmark="bench_threshold_formulas.py",
    )
)

register_campaign(
    CampaignSpec(
        name="quality_tradeoff",
        description="Section 5: video quality (bitrate) vs catalog size at fixed physical upload.",
        runner="quality_tradeoff",
        base={"raw_upload": 1.0, "n": 10_000, "d": 4.0, "mu": 1.3},
        grid={"bitrate": (0.30, 0.40, 0.50, 0.65, 0.80, 0.90, 0.99, 1.00, 1.20)},
        paper_claim=(
            "Section 5: with physical upload fixed, raising the bitrate lowers "
            "u and the catalog guarantee degrades like (u-1)^3, vanishing at u <= 1."
        ),
        columns=("bitrate", "u", "scalable", "catalog", "asymptotic", "cube_approx"),
        benchmark="bench_quality_tradeoff.py",
    )
)

register_campaign(
    CampaignSpec(
        name="obstruction_probability",
        description="Lemmas 3-4 / Equation 1: obstruction probability vs replication k.",
        runner="obstruction_probability",
        base={"n": 48, "u": 1.5, "d": 3.0, "c": 6, "mu": 1.2, "seed": 7},
        points=(
            {"k": 1, "trials": 20},
            {"k": 2, "trials": 20},
            {"k": 4, "trials": 20},
            {"k": 8, "trials": 20},
            {"k": 64, "trials": 0},
            {"k": 256, "trials": 0},
        ),
        paper_claim=(
            "Lemmas 3-4 / Equation 1: the obstruction probability drops steeply "
            "with k; the exact Equation 1 sum is never looser than the paper's "
            "majorization, and the Monte-Carlo cold-start estimate sits below both."
        ),
        columns=(
            "k", "catalog", "paper_bound", "exact_eq1_bound",
            "montecarlo_estimate", "montecarlo_ci",
        ),
        benchmark="bench_obstruction_probability.py",
    )
)

register_campaign(
    CampaignSpec(
        name="churn_robustness",
        description="Feasibility under box churn without any repair mechanism (u=2, k=4).",
        runner="churn_robustness",
        base={
            "n": 60, "u": 2.0, "d": 3.0, "m": 30, "c": 4, "k": 4,
            "mu": 1.5, "rounds": 12, "outage_duration": 4, "seed": 0,
        },
        grid={"failure_probability": (0.0, 0.02, 0.05, 0.15, 0.35)},
        paper_claim=(
            "Robustness extension: replication k and the playback caches absorb "
            "moderate churn; feasibility degrades as the offline fraction grows."
        ),
        columns=(
            "failure_probability", "max_concurrent_offline", "offline_fraction_peak",
            "feasible", "infeasible_rounds", "unmatched_requests", "demands",
        ),
        benchmark="bench_churn_robustness.py",
    )
)

register_campaign(
    CampaignSpec(
        name="startup_delay",
        description="Constant 3-round start-up delay of the preloading strategy across workloads.",
        runner="startup_delay",
        base={
            "n": 60, "u": 2.0, "d": 3.0, "m": 30, "c": 4, "k": 4,
            "mu": 1.5, "rounds": 12, "seed": 0, "workload_seed": 1,
        },
        points=(
            {"workload_kind": "flashcrowd", "workload_params": {}, "workload_label": "flash crowd"},
            {
                "workload_kind": "zipf",
                "workload_params": {"arrival_rate": 4.0},
                "workload_label": "zipf",
            },
            {
                "workload_kind": "uniform",
                "workload_params": {"arrival_rate": 4.0},
                "workload_label": "uniform",
            },
            {
                "workload_kind": "cold_start",
                "workload_params": {"max_demands_per_round": 10},
                "workload_label": "cold start",
            },
        ),
        paper_claim=(
            "Constant 3-round start-up delay (preload at t, postponed requests at "
            "t+1, playback at t+2) regardless of the workload, while feasible."
        ),
        columns=(
            "workload", "strategy", "feasible", "playbacks",
            "max_startup_delay", "mean_startup_delay",
        ),
        benchmark="bench_startup_delay.py",
    )
)

register_campaign(
    CampaignSpec(
        name="baseline_comparison",
        description="Random stripe allocation + swarming vs sourcing-only, full replication, central server.",
        runner="baseline_comparison",
        base={
            "n": 48, "u": 1.5, "d": 2.0, "c": 4, "k": 3,
            "mu": 2.0, "duration": 40, "rounds": 9, "seed": 9,
        },
        grid={
            "system": ("random_swarming", "sourcing_only", "full_replication", "central_server"),
        },
        paper_claim=(
            "The paper's system wins the catalog race at equal feasibility: "
            "Theta(n) catalog and the flash crowd served, vs O(1) catalogs or a "
            "collapsing sourcing-only variant."
        ),
        columns=(
            "system", "catalog", "catalog_scaling", "flash_crowd_served",
            "infeasible_rounds", "max_startup_delay",
        ),
        benchmark="bench_baseline_comparison.py",
    )
)

register_campaign(
    CampaignSpec(
        name="scenario_regressions",
        description="Replay digests and feasibility of the registered regression scenarios.",
        runner="scenario_digest",
        base={"seed": 0, "rounds": 12},
        grid={
            "scenario": (
                "steady_state",
                "flashcrowd_spike",
                "adaptive_adversary",
                "hetero_upload_tiers",
                "churn_storm",
                "catalog_growth_ramp",
                "warm_cold_restart",
                "near_threshold_load",
            ),
        },
        paper_claim=(
            "One reproducible digest per named scenario: the claim-to-scenario "
            "map of EXPERIMENTS.md backed by content-addressed runs."
        ),
        columns=(
            "scenario", "seed", "rounds", "digest", "infeasible_rounds",
            "unmatched_requests", "total_demands", "peak_box_load",
        ),
        benchmark="",
    )
)

register_campaign(
    CampaignSpec(
        name="workload_realism",
        description="Digests and feasibility of the workload-realism tier: "
        "Zipf steady/drifting demand, trace replay, and the hierarchical "
        "CDN baseline.",
        runner="scenario_digest",
        base={"seed": 0, "rounds": 12},
        grid={
            "scenario": (
                "zipf_steady",
                "zipf_drift",
                "trace_replay",
                "cdn_hybrid_baseline",
            ),
        },
        paper_claim=(
            "The catalog-vs-replication tradeoff measured under realistic "
            "demand: stationary Zipf popularity, scheduled popularity drift "
            "with a rotating promoted hot set, recorded trace replay, and "
            "the CDN/vCDN/muCDN hierarchy operators actually deploy — all "
            "feasible and replay-deterministic on the same engine as the "
            "paper's scheme."
        ),
        columns=(
            "scenario", "seed", "rounds", "digest", "infeasible_rounds",
            "unmatched_requests", "total_demands", "peak_box_load",
        ),
        benchmark="",
    )
)


# The fault-injection chaos runner lives with the faults subsystem
# (which imports nothing from repro.orchestrate, so there is no cycle);
# its CampaignSpec is built here to keep this module the single
# registration point of every campaign.
from repro.faults.campaign import CHAOS_SCENARIOS, run_fault_recovery  # noqa: E402

FAULT_RECOVERY_CAMPAIGN = CampaignSpec(
    name="fault_recovery",
    description="Chaos scenarios: checkpoint/restore parity through fault windows "
    "and torn-checkpoint detection.",
    runner="fault_recovery",
    base={"seed": 0},
    grid={"scenario": CHAOS_SCENARIOS},
    paper_claim=(
        "Robustness of the reproduction itself: injected faults (crash "
        "bursts, brownouts) replay deterministically, checkpoints recover "
        "bit-identically through fault windows, and damaged checkpoints "
        "fail typed."
    ),
    columns=(
        "scenario", "seed", "rounds", "digest", "recovered_matches",
        "truncated_detected", "matches_fault_free",
    ),
    benchmark="",
)

register_component(
    "experiment",
    "fault_recovery",
    run_fault_recovery,
    "chaos probe: checkpoint/restore parity through an injected fault window",
)
register_campaign(FAULT_RECOVERY_CAMPAIGN)
