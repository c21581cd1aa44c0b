"""Warm-started incremental matching vs cold per-round solves.

The engine always warm-starts and repairs; the cold reference is the
Dinic max-flow oracle, which ignores the carried assignment and solves
every round from scratch.
"""

import numpy as np
import pytest

from repro.core.allocation import random_permutation_allocation
from repro.core.matching import ConnectionMatcher
from repro.core.parameters import homogeneous_population
from repro.core.possession import PossessionIndex
from repro.core.requests import RequestSet
from repro.core.video import Catalog
from repro.sim.churn import random_churn_schedule
from repro.sim.engine import VodSimulator
from repro.workloads.flashcrowd import FlashCrowdWorkload
from repro.workloads.popularity import ZipfDemandWorkload


def build_system(n=36, m=18, c=4, k=3, duration=15, seed=0):
    population = homogeneous_population(n, u=2.0, d=4.0)
    catalog = Catalog(num_videos=m, num_stripes=c, duration=duration)
    allocation = random_permutation_allocation(catalog, population, k, random_state=seed)
    return population, catalog, allocation


def run_simulator(allocation, solver, workload, num_rounds, **kwargs):
    simulator = VodSimulator(allocation, mu=1.5, solver=solver, **kwargs)
    return simulator.run(workload, num_rounds)


def round_signature(result):
    """Per-round (active, matched, feasible) triples from the metrics."""
    return [
        (stats.active_requests, stats.matched, stats.feasible)
        for stats in result.metrics.round_stats
    ]


class TestWarmStartEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_flashcrowd_trace_equivalence(self, seed):
        """On fully feasible traces warm and cold runs are identical.

        This is the guaranteed form of the equivalence: while every round
        is fully matched the pool state cannot depend on *which* maximum
        matching was returned, so the whole trace coincides round by round.
        """
        _, _, allocation = build_system(seed=seed)
        cold = run_simulator(
            allocation, "dinic", FlashCrowdWorkload(mu=1.5, random_state=seed), 20
        )
        warm = run_simulator(
            allocation, "hopcroft_karp", FlashCrowdWorkload(mu=1.5, random_state=seed), 20
        )
        assert cold.feasible, "scenario must be feasible for trace equality"
        assert round_signature(cold) == round_signature(warm)
        assert warm.feasible
        assert cold.metrics.total_requests == warm.metrics.total_requests

    def test_startup_delays_match_on_feasible_runs(self):
        """On feasible traces the startup-delay distribution is identical."""
        _, _, allocation = build_system(seed=5)
        cold = run_simulator(
            allocation, "dinic", FlashCrowdWorkload(mu=1.3, random_state=5), 18
        )
        warm = run_simulator(
            allocation, "hopcroft_karp", FlashCrowdWorkload(mu=1.3, random_state=5), 18
        )
        assert cold.feasible and warm.feasible
        assert cold.metrics.max_startup_delay == warm.metrics.max_startup_delay
        assert cold.metrics.mean_startup_delay == warm.metrics.mean_startup_delay

    def test_equivalence_under_overload_until_first_partial_round(self):
        """Overloaded runs agree up to and including the first partial round.

        A partially matched round may serve a different (equally sized)
        request subset under warm start, after which the trajectories may
        legitimately diverge — the guarantee is per-round maximality, and
        identical prefixes while the states coincide.
        """
        population = homogeneous_population(24, u=0.5, d=2.0)
        catalog = Catalog(num_videos=12, num_stripes=3, duration=15)
        allocation = random_permutation_allocation(catalog, population, 2, random_state=7)
        cold = run_simulator(
            allocation, "dinic", ZipfDemandWorkload(arrival_rate=8.0, random_state=7), 12
        )
        warm = run_simulator(
            allocation, "hopcroft_karp", ZipfDemandWorkload(arrival_rate=8.0, random_state=7), 12
        )
        cold_sig, warm_sig = round_signature(cold), round_signature(warm)
        assert not cold.feasible  # the scenario is meant to overload
        first_partial = next(i for i, (_, _, ok) in enumerate(cold_sig) if not ok)
        assert cold_sig[: first_partial + 1] == warm_sig[: first_partial + 1]

    def test_stop_on_infeasible_equivalence_under_overload(self):
        """The estimator path (stop at first infeasible round) is identical."""
        population = homogeneous_population(24, u=0.5, d=2.0)
        catalog = Catalog(num_videos=12, num_stripes=3, duration=15)
        allocation = random_permutation_allocation(catalog, population, 2, random_state=7)
        cold = run_simulator(
            allocation,
            "dinic",
            ZipfDemandWorkload(arrival_rate=8.0, random_state=7),
            12,
            stop_on_infeasible=True,
        )
        warm = run_simulator(
            allocation,
            "hopcroft_karp",
            ZipfDemandWorkload(arrival_rate=8.0, random_state=7),
            12,
            stop_on_infeasible=True,
        )
        assert cold.stopped_early and warm.stopped_early
        assert round_signature(cold) == round_signature(warm)
        assert cold.metrics.infeasible_rounds == warm.metrics.infeasible_rounds

    def test_equivalence_under_churn(self):
        """Offline boxes invalidate warm pairs without breaking equivalence.

        The churned scenario stays feasible (asserted), so the guaranteed
        full-trace equality applies despite capacity flapping.
        """
        _, _, allocation = build_system(seed=9)
        n = allocation.num_boxes

        def make_churn():
            return random_churn_schedule(
                num_boxes=n,
                horizon=16,
                failure_probability=0.03,
                outage_duration=2,
                random_state=11,
            )

        cold = run_simulator(
            allocation,
            "dinic",
            FlashCrowdWorkload(mu=1.5, random_state=9),
            16,
            churn=make_churn(),
        )
        warm = run_simulator(
            allocation,
            "hopcroft_karp",
            FlashCrowdWorkload(mu=1.5, random_state=9),
            16,
            churn=make_churn(),
        )
        assert cold.feasible, "churn scenario must stay feasible for trace equality"
        assert round_signature(cold) == round_signature(warm)


class TestMatcherWarmStart:
    def test_stale_warm_assignment_is_revalidated(self):
        """A warm pair whose box lost possession or capacity is dropped."""
        population, catalog, allocation = build_system(seed=2)
        possession = PossessionIndex(allocation, cache_window=catalog.duration)
        matcher = ConnectionMatcher(population.upload_slots(catalog.num_stripes_per_video))
        stripes = np.arange(10)
        requests = RequestSet(stripes, np.zeros_like(stripes), (stripes + 7) % population.n)
        cold = matcher.match(requests, possession, current_time=0)
        assert cold.feasible
        # Replay with the previous assignment and with a corrupted one.
        for warm in (cold.assignment, np.full(len(requests), 0, dtype=np.int64)):
            again = matcher.match(requests, possession, current_time=0, warm_start=warm)
            assert again.feasible
            assert again.matched == cold.matched
        with pytest.raises(ValueError):
            matcher.match(requests, possession, 0, warm_start=np.zeros(3, dtype=np.int64))

    def test_warm_start_respects_busy_slots(self):
        """Capacity stolen by busy slots invalidates warm pairs on that box."""
        population, catalog, allocation = build_system(seed=3)
        slots = population.upload_slots(catalog.num_stripes_per_video)
        possession = PossessionIndex(allocation, cache_window=catalog.duration)
        matcher = ConnectionMatcher(slots)
        stripes = np.arange(8)
        requests = RequestSet(stripes, np.zeros_like(stripes), (stripes + 5) % population.n)
        cold = matcher.match(requests, possession, current_time=0)
        assert cold.feasible
        # Fully occupy the box serving request 0: the warm pair must move.
        busy = np.zeros(population.n, dtype=np.int64)
        pinned = int(cold.assignment[0])
        busy[pinned] = slots[pinned]
        again = matcher.match(
            requests, possession, current_time=0, busy_slots=busy, warm_start=cold.assignment
        )
        assert int(again.assignment[0]) != pinned
        assert again.box_load[pinned] == 0
