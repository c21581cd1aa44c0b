"""Monte-Carlo estimation of obstruction probability and catalog feasibility.

The proofs bound the probability that a *random allocation* admits an
obstruction; these estimators measure the same quantity empirically:

* :func:`estimate_simulation_failure_probability` — draw allocations,
  run the full round-based simulator against a chosen workload and count
  the fraction of runs with at least one infeasible round;
* :func:`estimate_static_obstruction_probability` — a cheaper static
  probe: draw allocations and check the Lemma 1 condition for the
  cold-start request profile (every stripe of ``j`` distinct videos
  requested once, for a sweep of ``j``), which needs no simulation;
* :func:`find_max_feasible_catalog` — binary-search the largest catalog
  ``m`` for which the failure estimate stays below a tolerance; the
  empirical analogue of "achievable catalog size".

Each trial is driven by a :class:`numpy.random.SeedSequence` child
spawned from the master seed before any trial runs, so a trial's outcome
depends only on its own child seed and an estimate is reproducible for a
fixed ``random_state``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import component_factory
from repro.api.system import VodSystem
from repro.core.allocation import Allocation, AllocationError
from repro.core.matching import ConnectionMatcher
from repro.core.parameters import BoxPopulation, homogeneous_population
from repro.core.possession import PossessionIndex
from repro.core.requests import RequestSet
from repro.core.video import Catalog
from repro.util.rng import RandomState, spawn_seed_sequences
from repro.util.validation import check_positive_integer, check_probability
from repro.workloads.base import DemandGenerator

__all__ = [
    "MonteCarloResult",
    "estimate_static_obstruction_probability",
    "estimate_simulation_failure_probability",
    "find_max_feasible_catalog",
]

AllocatorFn = Callable[[Catalog, BoxPopulation, int, object], Allocation]
WorkloadFactory = Callable[[np.random.Generator], DemandGenerator]


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of a Monte-Carlo estimation.

    Attributes
    ----------
    trials:
        Number of trials run.
    failures:
        Number of trials exhibiting at least one obstruction / infeasible
        round.
    failure_probability:
        ``failures / trials``.
    confidence_halfwidth:
        Half-width of the 95% normal-approximation confidence interval.
    details:
        Optional per-trial payload (kept small; every value is a float).
    """

    trials: int
    failures: int
    failure_probability: float
    confidence_halfwidth: float
    details: Tuple[Dict[str, float], ...] = ()

    def describe(self) -> Dict[str, float]:
        """Flat dictionary view for tables."""
        return {
            "trials": self.trials,
            "failures": self.failures,
            "failure_probability": self.failure_probability,
            "confidence_halfwidth": self.confidence_halfwidth,
        }


def _confidence_halfwidth(successes: int, trials: int) -> float:
    if trials == 0:
        return float("nan")
    p = successes / trials
    return 1.96 * math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


def _allocator(scheme: str) -> Callable:
    """Resolve an allocation scheme through the component registry.

    Returns a ``(catalog, population, k, rng) -> Allocation`` callable, the
    historical trial-function shape; any registered scheme name works
    (including the ``full_replication`` baseline).
    """
    try:
        factory = component_factory("allocation", scheme)
    except KeyError:
        raise ValueError(f"unknown allocation scheme {scheme!r}") from None

    def allocate(catalog: Catalog, population: BoxPopulation, k: int, rng) -> Allocation:
        return factory(catalog, population, k, {}, rng)

    return allocate


# ---------------------------------------------------------------------- #
# Static cold-start obstruction probe
# ---------------------------------------------------------------------- #
def _static_obstruction_trial(
    seed: np.random.SeedSequence,
    n: int,
    u: float,
    d: float,
    c: int,
    k: int,
    m: int,
    num_cold_videos: Sequence[int],
    scheme: str,
    duration: int,
    solver: str,
) -> Tuple[bool, int]:
    """One static-probe trial: ``(failed, worst unmatched request count)``."""
    gen = np.random.default_rng(seed)
    catalog = Catalog(num_videos=m, num_stripes=c, duration=duration)
    population = homogeneous_population(n, u, d)
    allocation = _allocator(scheme)(catalog, population, k, gen)
    possession = PossessionIndex(allocation, cache_window=duration)
    matcher = ConnectionMatcher(population.upload_slots(c), solver=solver)
    trial_failed = False
    worst_unmatched = 0
    for j in num_cold_videos:
        videos = gen.choice(m, size=j, replace=False)
        viewers = gen.choice(n, size=j, replace=False)
        # Video-major: the c stripes of each video, in stripe order.
        stripes = (videos[:, None] * c + np.arange(c)).ravel()
        requests = RequestSet(
            stripe_ids=stripes,
            request_times=np.zeros(stripes.size, dtype=np.int64),
            box_ids=np.repeat(viewers, c),
        )
        matching = matcher.match(requests, possession, current_time=0)
        if not matching.feasible:
            trial_failed = True
            worst_unmatched = max(worst_unmatched, len(requests) - matching.matched)
    return trial_failed, worst_unmatched


def estimate_static_obstruction_probability(
    n: int,
    u: float,
    d: float,
    c: int,
    k: int,
    num_cold_videos: Sequence[int],
    trials: int = 50,
    scheme: str = "permutation",
    random_state: RandomState = None,
    duration: int = 120,
    solver: str = "hopcroft_karp",
) -> MonteCarloResult:
    """Probability that a random allocation fails the cold-start sourcing test.

    For each trial a fresh allocation is drawn on a homogeneous
    ``(n, u, d)`` population with catalog ``m = ⌊d·n/k⌋``.  For every
    ``j ∈ num_cold_videos`` the probe requests all ``c`` stripes of ``j``
    distinct videos (one viewer per video, no cache help) and checks the
    Lemma 1 feasibility through max flow.  A trial fails if any probe is
    infeasible — i.e. the allocation admits a cold-start obstruction.
    """
    check_positive_integer(trials, "trials")
    m = int(d * n // k)
    if m <= 0:
        raise ValueError(f"storage d·n={d * n} cannot hold k={k} replicas of any catalog")
    cold = [int(j) for j in num_cold_videos]
    for j in cold:
        if j <= 0 or j > min(m, n):
            raise ValueError(
                f"num_cold_videos entries must lie in [1, min(m, n)] = "
                f"[1, {min(m, n)}], got {j}"
            )
    outcomes = [
        _static_obstruction_trial(seed, n, u, d, c, k, m, cold, scheme, duration, solver)
        for seed in spawn_seed_sequences(random_state, trials)
    ]

    failures = 0
    details: List[Dict[str, float]] = []
    for trial, (trial_failed, worst_unmatched) in enumerate(outcomes):
        if trial_failed:
            failures += 1
        details.append(
            {
                "trial": float(trial),
                "failed": float(trial_failed),
                "worst_unmatched": float(worst_unmatched),
            }
        )
    return MonteCarloResult(
        trials=trials,
        failures=failures,
        failure_probability=failures / trials,
        confidence_halfwidth=_confidence_halfwidth(failures, trials),
        details=tuple(details),
    )


# ---------------------------------------------------------------------- #
# Full simulation estimator
# ---------------------------------------------------------------------- #
def _simulation_trial(
    alloc_seed: np.random.SeedSequence,
    workload_seed: np.random.SeedSequence,
    population: BoxPopulation,
    catalog: Catalog,
    k: int,
    mu: float,
    workload_factory: WorkloadFactory,
    num_rounds: int,
    scheme: str,
    scheduler_factory: Optional[Callable[[Allocation], object]],
    compensation_plan,
) -> Tuple[bool, int, int]:
    """One full-simulator trial: ``(failed, infeasible rounds, demands)``."""
    alloc_gen = np.random.default_rng(alloc_seed)
    workload_gen = np.random.default_rng(workload_seed)
    allocation = _allocator(scheme)(catalog, population, k, alloc_gen)
    scheduler = scheduler_factory(allocation) if scheduler_factory else None
    simulator = VodSystem.for_allocation(allocation, mu=mu).build_simulator(
        scheduler=scheduler,
        compensation_plan=compensation_plan,
        stop_on_infeasible=True,
    )
    workload = workload_factory(workload_gen)
    result = simulator.run(workload, num_rounds)
    return (
        not result.feasible,
        result.metrics.infeasible_rounds,
        result.metrics.total_demands,
    )


def estimate_simulation_failure_probability(
    population: BoxPopulation,
    catalog: Catalog,
    k: int,
    mu: float,
    workload_factory: WorkloadFactory,
    num_rounds: int,
    trials: int = 20,
    scheme: str = "permutation",
    random_state: RandomState = None,
    scheduler_factory: Optional[Callable[[Allocation], object]] = None,
    compensation_plan=None,
) -> MonteCarloResult:
    """Probability that a random allocation yields an infeasible simulated run.

    For each trial a fresh allocation is drawn, a fresh workload is created
    from ``workload_factory(rng)`` and the full simulator is run for
    ``num_rounds`` rounds; the trial fails if any round's matching is
    infeasible.
    """
    check_positive_integer(trials, "trials")
    check_positive_integer(num_rounds, "num_rounds")
    seeds = spawn_seed_sequences(random_state, 2 * trials)
    outcomes = [
        _simulation_trial(
            seeds[2 * trial],
            seeds[2 * trial + 1],
            population,
            catalog,
            k,
            mu,
            workload_factory,
            num_rounds,
            scheme,
            scheduler_factory,
            compensation_plan,
        )
        for trial in range(trials)
    ]

    failures = 0
    details: List[Dict[str, float]] = []
    for trial, (failed, infeasible_rounds, demands) in enumerate(outcomes):
        if failed:
            failures += 1
        details.append(
            {
                "trial": float(trial),
                "failed": float(failed),
                "infeasible_rounds": float(infeasible_rounds),
                "demands": float(demands),
            }
        )
    return MonteCarloResult(
        trials=trials,
        failures=failures,
        failure_probability=failures / trials,
        confidence_halfwidth=_confidence_halfwidth(failures, trials),
        details=tuple(details),
    )


def find_max_feasible_catalog(
    n: int,
    u: float,
    d: float,
    c: int,
    k: int,
    mu: float,
    workload_factory: WorkloadFactory,
    num_rounds: int,
    trials_per_point: int = 5,
    tolerance: float = 0.0,
    duration: int = 120,
    scheme: str = "permutation",
    random_state: RandomState = None,
    m_min: int = 1,
    m_max: Optional[int] = None,
) -> Dict[str, float]:
    """Binary-search the largest catalog whose empirical failure rate ≤ ``tolerance``.

    Returns a dictionary with the located catalog, the failure rate at
    that point and the search bounds.  The storage constraint
    ``m ≤ ⌊d·n/k⌋`` caps the search range.  Each probed catalog size gets
    an independent child seed stream spawned from ``random_state`` (any
    :data:`~repro.util.rng.RandomState` spec, including a
    ``numpy.random.Generator``, is accepted).
    """
    check_probability(tolerance, "tolerance")
    storage_cap = int(d * n // k)
    if storage_cap < 1:
        raise ValueError("storage cannot hold even one video at this replication")
    hi = storage_cap if m_max is None else min(m_max, storage_cap)
    lo = max(m_min, 1)
    if lo > hi:
        raise ValueError(f"empty search range [{lo}, {hi}]")
    population = homogeneous_population(n, u, d)

    # One child stream per possible binary-search probe, spawned up front
    # so any RandomState spec (int, Generator, SeedSequence) works.
    max_evals = (hi - lo + 1).bit_length() + 1
    if random_state is None:
        streams: List[Optional[np.random.SeedSequence]] = [None] * max_evals
    else:
        streams = list(spawn_seed_sequences(random_state, max_evals))

    def failure_rate(m: int, seed_offset: int) -> float:
        catalog = Catalog(num_videos=m, num_stripes=c, duration=duration)
        result = estimate_simulation_failure_probability(
            population=population,
            catalog=catalog,
            k=k,
            mu=mu,
            workload_factory=workload_factory,
            num_rounds=num_rounds,
            trials=trials_per_point,
            scheme=scheme,
            random_state=streams[seed_offset],
        )
        return result.failure_probability

    best_m = 0
    best_rate = 1.0
    offset = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        rate = failure_rate(mid, offset)
        offset += 1
        if rate <= tolerance:
            best_m, best_rate = mid, rate
            lo = mid + 1
        else:
            hi = mid - 1
    return {
        "max_feasible_catalog": best_m,
        "failure_rate": best_rate,
        "storage_cap": storage_cap,
        "n": n,
        "u": u,
        "d": d,
        "c": c,
        "k": k,
        "mu": mu,
    }
