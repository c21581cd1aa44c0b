"""E3 — Lemma 1: connection matching as a maximum-flow problem.

Verifies on random instances that the flow-based matcher agrees with the
exhaustive generalized-Hall oracle (the literal statement of Lemma 1), and
times the in-house Dinic (``dinic_matching``) against SciPy's compiled
``dinic`` and ``edmonds_karp`` on the CSR adjacency of a realistic round
of the simulator; all three must serve every request.
"""

import numpy as np
import pytest
from scipy.sparse.csgraph import maximum_flow

from repro.analysis.report import print_table
from repro.core.matching import (
    ConnectionMatcher,
    PossessionIndex,
    RequestSet,
    StripeRequest,
    check_feasibility_hall,
)
from repro.flow.dinic import dinic_matching
from repro.scenarios.oracle import unit_demand_network

from conftest import build_homogeneous_system


def make_round_instance(num_requests=200, seed=0):
    population, catalog, allocation = build_homogeneous_system(
        n=120, u=2.0, d=4.0, m=60, c=5, k=4, seed=seed
    )
    rng = np.random.default_rng(seed)
    requests = RequestSet(
        StripeRequest(
            stripe_id=int(rng.integers(catalog.total_stripes)),
            request_time=int(rng.integers(3)),
            box_id=int(rng.integers(population.n)),
        )
        for _ in range(num_requests)
    )
    index = PossessionIndex(allocation, cache_window=catalog.duration)
    matcher = ConnectionMatcher(population.upload_slots(5))
    return population, catalog, allocation, requests, index, matcher


def test_lemma1_flow_equals_hall_oracle(benchmark, experiment_header):
    """Flow feasibility ⇔ the Hall condition of Lemma 1 (small instances)."""
    population, catalog, allocation = build_homogeneous_system(
        n=10, u=1.0, d=2.0, m=5, c=2, k=2, seed=3
    )
    index = PossessionIndex(allocation, cache_window=catalog.duration)
    matcher = ConnectionMatcher(population.upload_slots(2))
    rng = np.random.default_rng(3)
    agreements = 0
    rows = []
    for trial in range(20):
        requests = RequestSet(
            StripeRequest(
                stripe_id=int(rng.integers(catalog.total_stripes)),
                request_time=0,
                box_id=int(rng.integers(population.n)),
            )
            for _ in range(int(rng.integers(1, 8)))
        )
        flow_feasible = matcher.match(requests, index, current_time=0).feasible
        hall_feasible, _ = check_feasibility_hall(
            requests, index, population.uploads, 2, current_time=0
        )
        agreements += flow_feasible == hall_feasible
        rows.append(
            {"trial": trial, "requests": len(requests), "flow": flow_feasible, "hall": hall_feasible}
        )
    print_table(rows[:8], title="E3 — Lemma 1: flow matcher vs exhaustive Hall oracle (first 8 trials)")
    assert agreements == 20

    def kernel():
        requests = RequestSet(
            StripeRequest(
                stripe_id=int(rng.integers(catalog.total_stripes)),
                request_time=0,
                box_id=int(rng.integers(population.n)),
            )
            for _ in range(6)
        )
        return matcher.match(requests, index, current_time=0).feasible

    benchmark(kernel)


@pytest.mark.parametrize("solver_name", ["dinic", "scipy_dinic", "scipy_edmonds_karp"])
def test_maxflow_solver_on_matching_network(benchmark, solver_name, experiment_header):
    """Time each solver, network build included, on one simulated round."""
    population, catalog, allocation, requests, index, matcher = make_round_instance()
    # Gather the round's CSR once, as the matcher does internally.
    indptr, indices = index.adjacency_for(requests, current_time=3)
    caps = population.upload_slots(5)

    if solver_name == "dinic":
        def kernel():
            return dinic_matching(
                len(requests), population.n, indptr, indices, caps
            ).matched
    else:
        # SciPy's methods solve the differential oracle's network.
        method = solver_name[len("scipy_"):]

        def kernel():
            graph, source, sink = unit_demand_network(
                len(requests), population.n, indptr, indices, caps
            )
            return int(maximum_flow(graph, source, sink, method=method).flow_value)

    value = benchmark(kernel)
    print_table(
        [
            {
                "solver": solver_name,
                "requests": len(requests),
                "edges": len(indices),
                "max_flow": value,
                "all_served": value == len(requests),
            }
        ],
        title="E3 — max-flow value on one round's connection network",
    )
    assert value == len(requests)
