"""Scale-tier scenario family and the stress/soak harness.

The paper's threshold results are asymptotic — statements about catalogs
of ``n``-box systems as ``n`` grows — so the registry's toy regression
scenarios cannot exercise them.  The *scale tiers* below instantiate the
same homogeneous regime (``u = 2``, ``d = 3``, ``k = 4`` permutation
allocation, Zipf demand) at 10k / 100k / 500k boxes with proportionally
sized catalogs (``m = n/8``, comfortably under the ``d·n/k`` storage
cap), exercising the vectorized struct-of-arrays engine core at sizes
where a per-object hot loop would take minutes per round.  All tiers run
with ``trace_level="lean"`` so memory stays bounded over long horizons.

:func:`run_soak` is the long-horizon stress harness behind
``python -m repro.scenarios soak`` and ``tests/test_scale_stress.py``:
it checks digest stability across repeated runs, bounds per-round memory
growth with tracemalloc watermarks, and differentially re-solves every
K-th round's whole matching instance with the cold oracle of
:mod:`repro.scenarios.oracle`.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.scenarios.spec import (
    AllocationSpec,
    CatalogSpec,
    ChurnSpec,
    PopulationSpec,
    ScenarioSpec,
    WorkloadPhaseSpec,
)

__all__ = ["SCALE_TIERS", "scale_tier_spec", "soak_spec", "SoakReport", "run_soak"]

#: Tier name -> (boxes, videos, Zipf arrival rate, replicas per stripe).
#: The replication factor grows with the tier — the paper's whp-feasibility
#: needs k ~ O(log n), and at 500k boxes the absolute round-0 mass on the
#: Zipf head exceeds what k = 4 static replicas can serve before the
#: playback caches warm up.
SCALE_TIERS: Dict[str, tuple] = {
    "10k": (10_000, 1_250, 200.0, 4),
    "100k": (100_000, 12_500, 2_000.0, 4),
    "500k": (500_000, 62_500, 5_000.0, 6),
    # The millions-of-boxes tier runs single-process: building it takes a
    # few seconds and a round well under a second, with the whole box-side
    # state in one heap.  The arrival rate grows sublinearly from
    # the 500k tier: the Zipf head video's absolute round-0 mass scales
    # with rate/ln(m), and k = 6 static replicas must carry it until the
    # playback caches warm up.
    "2m": (2_000_000, 250_000, 6_000.0, 6),
}

#: Soak stress profiles (what the long-horizon runs are stressed with).
SOAK_PROFILES = ("steady", "churn_storm", "flashcrowd_spike")


def scale_tier_spec(tier: str, horizon: int = 50) -> ScenarioSpec:
    """The scenario spec of one scale tier (``"10k"``…``"2m"``)."""
    if tier not in SCALE_TIERS:
        raise KeyError(f"unknown scale tier {tier!r}; known: {sorted(SCALE_TIERS)}")
    boxes, videos, rate, replicas = SCALE_TIERS[tier]
    return ScenarioSpec(
        name=f"scale_tier_{tier}",
        description=(
            f"Scale tier: {boxes:,} boxes, {videos:,}-video catalog, "
            "Zipf demand on the vectorized engine core."
        ),
        paper_claim=(
            "Asymptotic thresholds: the u > 1 catalog-feasibility statements "
            "are about n -> infinity; this tier exercises the same regime at "
            f"n = {boxes:,} instead of toy sizes."
        ),
        catalog=CatalogSpec(num_videos=videos, num_stripes=4, duration=12),
        population=PopulationSpec("homogeneous", {"n": boxes, "u": 2.0, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=replicas),
        workload=(WorkloadPhaseSpec("zipf", params={"arrival_rate": rate}),),
        mu=1.5,
        horizon=horizon,
        trace_level="lean",
    )


def soak_spec(
    boxes: int = 10_000,
    profile: str = "steady",
    horizon: int = 500,
) -> ScenarioSpec:
    """A long-horizon stress spec: the 10k-tier regime plus a stress profile.

    Profiles: ``"steady"`` (Zipf only), ``"churn_storm"`` (random outages
    take replicas and upload offline throughout the run) and
    ``"flashcrowd_spike"`` (two mu-rate flash crowds on top of background
    demand).  Catalog and arrival rate scale with ``boxes`` exactly like
    the scale tiers.
    """
    if profile not in SOAK_PROFILES:
        raise ValueError(f"profile must be one of {SOAK_PROFILES}, got {profile!r}")
    videos = max(boxes // 8, 1)
    rate = boxes / 50.0
    workload: tuple = (WorkloadPhaseSpec("zipf", params={"arrival_rate": rate}),)
    churn = None
    if profile == "churn_storm":
        churn = ChurnSpec(failure_probability=0.01, outage_duration=6)
    elif profile == "flashcrowd_spike":
        crowd = max(boxes // 50, 10)
        workload = (
            WorkloadPhaseSpec("zipf", params={"arrival_rate": rate / 2}),
            WorkloadPhaseSpec(
                "flashcrowd", start=5, params={"target_videos": [0], "max_members": crowd}
            ),
            WorkloadPhaseSpec(
                "flashcrowd",
                start=max(horizon // 2, 6),
                params={"target_videos": [1], "max_members": crowd},
            ),
        )
    return ScenarioSpec(
        name=f"soak_{profile}_{boxes}",
        description=f"Soak: {boxes:,} boxes under the {profile} profile.",
        paper_claim=(
            "Operational robustness of the asymptotic regime over long "
            "horizons: feasibility and memory must be stable, not just "
            "per-round correct."
        ),
        catalog=CatalogSpec(num_videos=videos, num_stripes=4, duration=12),
        population=PopulationSpec("homogeneous", {"n": boxes, "u": 2.0, "d": 3.0}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=4),
        workload=workload,
        churn=churn,
        mu=1.5,
        horizon=horizon,
        trace_level="lean",
    )


def _heap_probe(kind: str):
    """Return ``(sample, cleanup)`` for the requested heap probe."""
    if kind == "tracemalloc":
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()

        def cleanup() -> None:
            if started_here:
                tracemalloc.stop()

        return (lambda: tracemalloc.get_traced_memory()[0]), cleanup
    if kind == "rss":
        try:
            with open("/proc/self/statm") as handle:
                handle.read()
            import os

            page = os.sysconf("SC_PAGESIZE")

            def sample_statm() -> int:
                with open("/proc/self/statm") as handle:
                    return int(handle.read().split()[1]) * page

            return sample_statm, (lambda: None)
        except OSError:
            import resource

            def sample_peak() -> int:
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

            return sample_peak, (lambda: None)
    raise ValueError(f"memory_probe must be 'tracemalloc' or 'rss', got {kind!r}")


@dataclass
class SoakReport:
    """Outcome of one :func:`run_soak` sweep."""

    scenario: str
    seed: int
    rounds: int
    digest: str
    infeasible_rounds: int = 0
    #: (round, traced bytes) watermarks sampled during the measured run.
    memory_watermarks: List[tuple] = field(default_factory=list)
    #: Traced-heap growth per round over the post-warmup window.
    bytes_per_round: float = 0.0
    memory_budget_bytes_per_round: float = 0.0
    memory_ok: bool = True
    #: Digests of the repeated runs (all must equal ``digest``).
    repeat_digests: List[str] = field(default_factory=list)
    digests_stable: bool = True
    oracle_rounds_checked: int = 0
    oracle_disagreements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every soak check passed."""
        return self.memory_ok and self.digests_stable and not self.oracle_disagreements

    def describe(self) -> str:
        """Multi-line human summary."""
        lines = [
            f"soak[{self.scenario} seed={self.seed}]: {self.rounds} rounds, "
            f"digest {self.digest[:16]}, {self.infeasible_rounds} infeasible",
            f"  memory: {self.bytes_per_round / 1024:.1f} KiB/round "
            f"(budget {self.memory_budget_bytes_per_round / 1024:.1f}) -> "
            + ("OK" if self.memory_ok else "FAIL"),
            f"  digest stability over {1 + len(self.repeat_digests)} runs -> "
            + ("OK" if self.digests_stable else "FAIL"),
            f"  oracle: {self.oracle_rounds_checked} rounds re-solved -> "
            + ("OK" if not self.oracle_disagreements else
               f"{len(self.oracle_disagreements)} DISAGREEMENTS"),
        ]
        return "\n".join(lines)


def run_soak(
    spec: ScenarioSpec,
    num_rounds: Optional[int] = None,
    seed: Optional[int] = None,
    oracle_every: int = 0,
    repeats: int = 1,
    memory_budget_bytes_per_round: float = 256 * 1024,
    memory_probe: str = "tracemalloc",
    warmup_fraction: float = 0.4,
    progress: Optional[Callable[[str], None]] = None,
) -> SoakReport:
    """Run the long-horizon soak checks against ``spec``.

    The measured run steps ``num_rounds`` rounds under tracemalloc,
    sampling heap watermarks; after a warmup window (caches filling,
    buffers reaching steady size) the traced heap may only grow by the
    per-round budget on average — unbounded per-round allocations (event
    traces, leaked records) fail the check.  ``repeats`` extra runs must
    reproduce the metric digest bit for bit, and with ``oracle_every > 0``
    every K-th round's whole live matching instance goes through
    :func:`~repro.scenarios.oracle.check_matching_instance` (cardinality
    and feasibility against SciPy's max flow, assignment validity and
    exact Hall witnesses, the engine's own included); ``0`` turns the
    oracle off and a negative value raises ``ValueError``.

    ``memory_probe`` selects the heap probe: ``"tracemalloc"`` (default)
    traces Python allocations exactly but slows the engine's
    NumPy-allocation-heavy rounds ~20x; ``"rss"`` samples the process's
    resident set from ``/proc/self/statm`` (peak RSS via ``getrusage`` as
    a fallback) at full speed — what the CI scale-smoke budgeted runs use.
    """
    from repro.scenarios.build import build_scenario
    from repro.scenarios.oracle import check_matching_instance
    from repro.scenarios.replay import digest_result

    if oracle_every < 0:
        raise ValueError(f"oracle_every must be >= 0, got {oracle_every}")
    rounds = spec.horizon if num_rounds is None else int(num_rounds)
    if seed is None:
        seed = spec.default_seed
    say = progress or (lambda message: None)

    report = SoakReport(
        scenario=spec.name,
        seed=int(seed),
        rounds=rounds,
        digest="",
        memory_budget_bytes_per_round=float(memory_budget_bytes_per_round),
    )

    observer = None
    if oracle_every > 0:
        def observer(observation) -> None:
            if observation.time == 0 or observation.time % oracle_every:
                return
            report.oracle_rounds_checked += 1
            indptr, indices = observation.possession.adjacency_for(
                observation.request_set, observation.time
            )
            report.oracle_disagreements.extend(
                check_matching_instance(
                    len(observation.request_set),
                    observation.capacities.size,
                    indptr,
                    indices,
                    observation.capacities,
                    reference_assignment=observation.matching.assignment,
                    reference_witness=observation.matching.obstruction_witness,
                    context=f"soak round {observation.time}",
                )
            )

    compiled = build_scenario(
        spec, seed=seed, min_horizon=rounds, round_observer=observer
    )
    warmup = max(int(rounds * warmup_fraction), 1)
    sample_every = max(rounds // 20, 1)

    sample, cleanup = _heap_probe(memory_probe)
    try:
        baseline = sample()
        for r in range(rounds):
            compiled.simulator.step(compiled.workload)
            if r + 1 == warmup or (r + 1) % sample_every == 0 or r + 1 == rounds:
                current = sample()
                report.memory_watermarks.append((r + 1, current - baseline))
                if (r + 1) % max(sample_every * 4, 1) == 0:
                    say(f"  round {r + 1}/{rounds}: heap +{(current - baseline) / 1e6:.1f} MB")
    finally:
        cleanup()

    result = compiled.simulator.result()
    report.infeasible_rounds = int(result.metrics.infeasible_rounds)
    report.digest = digest_result(spec, compiled.seed, rounds, result).digest

    # Memory: post-warmup growth per round must stay under budget.
    post = [(r, b) for r, b in report.memory_watermarks if r >= warmup]
    if len(post) >= 2:
        (r0, b0), (r1, b1) = post[0], post[-1]
        if r1 > r0:
            report.bytes_per_round = (b1 - b0) / (r1 - r0)
    report.memory_ok = report.bytes_per_round <= memory_budget_bytes_per_round

    # Digest stability: same (spec, seed) must reproduce bit for bit.
    for k in range(repeats):
        say(f"  repeat run {k + 1}/{repeats}")
        rerun = build_scenario(spec, seed=seed, min_horizon=rounds)
        rerun_result = rerun.run(rounds)
        report.repeat_digests.append(
            digest_result(rerun.spec, rerun.seed, rounds, rerun_result).digest
        )
    report.digests_stable = all(d == report.digest for d in report.repeat_digests)
    return report
