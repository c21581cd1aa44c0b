"""Differential solver tests: Hopcroft–Karp vs SciPy's max flow.

:func:`repro.scenarios.oracle.check_matching_instance` re-solves each
instance with the kernel and with SciPy's ``maximum_flow`` and verifies
cardinality agreement, feasibility agreement, assignment validity and
exact Hall witnesses (deficiency equal to the unmatched count).  This
module feeds it

* 200 randomized instances spanning feasible, overloaded and degenerate
  regimes (the acceptance floor of the differential harness),
* crafted edge cases: zero capacities, empty adjacencies, single-box
  instances, duplicate edges,
* full scenario replays through :func:`run_differential_oracle`, which
  checks the engine's *repaired* per-round matchings and Hall witnesses
  against cold solves on the live possession index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flow.dinic import dinic_matching
from repro.flow.hopcroft_karp import csr_from_edges
from repro.scenarios.oracle import check_matching_instance, run_differential_oracle
from repro.scenarios.registry import scenario_names


def _random_instance(rng: np.random.Generator):
    """One random bipartite instance (possibly degenerate)."""
    num_left = int(rng.integers(0, 28))
    num_right = int(rng.integers(1, 12))
    # Mix of tight and slack capacity regimes, including zero-capacity boxes.
    capacities = rng.integers(0, 4, size=num_right).tolist()
    edges = []
    for i in range(num_left):
        degree = int(rng.integers(0, min(num_right, 5) + 1))
        if degree:
            for j in rng.choice(num_right, size=degree, replace=False):
                edges.append((i, int(j)))
    # Occasionally duplicate some edges — the kernels must tolerate them.
    if edges and rng.random() < 0.3:
        for _ in range(int(rng.integers(1, 4))):
            edges.append(edges[int(rng.integers(len(edges)))])
    indptr, indices = csr_from_edges(num_left, num_right, edges)
    return num_left, num_right, indptr, indices, capacities


class TestRandomizedAgreement:
    def test_two_hundred_randomized_instances_agree(self):
        rng = np.random.default_rng(20260729)
        checked = 0
        infeasible_seen = 0
        for _ in range(200):
            num_left, num_right, indptr, indices, caps = _random_instance(rng)
            errors = check_matching_instance(
                num_left, num_right, indptr, indices, caps,
                context=f"random#{checked}",
            )
            assert errors == [], errors
            checked += 1
            if num_left > sum(caps):
                infeasible_seen += 1
        assert checked == 200
        # The generator must actually exercise the infeasible branch.
        assert infeasible_seen > 10

    def test_reference_assignment_cross_check(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            num_left, num_right, indptr, indices, caps = _random_instance(rng)
            reference = dinic_matching(num_left, num_right, indptr, indices, caps)
            errors = check_matching_instance(
                num_left, num_right, indptr, indices, caps,
                reference_assignment=reference.assignment,
                reference_witness=reference.unsatisfied_witness,
            )
            assert errors == [], errors


class TestEdgeCases:
    def test_empty_instance(self):
        assert check_matching_instance(0, 3, [0], [], [1, 1, 1]) == []

    def test_empty_adjacency_rows(self):
        # Three requests, none of which any box can serve.
        indptr, indices = csr_from_edges(3, 2, [])
        assert check_matching_instance(3, 2, indptr, indices, [2, 2]) == []

    def test_all_zero_capacities(self):
        indptr, indices = csr_from_edges(2, 2, [(0, 0), (1, 1)])
        assert check_matching_instance(2, 2, indptr, indices, [0, 0]) == []

    def test_single_box_bottleneck(self):
        # Every request can only reach box 0 with capacity 1.
        edges = [(i, 0) for i in range(4)]
        indptr, indices = csr_from_edges(4, 1, edges)
        assert check_matching_instance(4, 1, indptr, indices, [1]) == []

    def test_single_box_exact_capacity(self):
        edges = [(i, 0) for i in range(4)]
        indptr, indices = csr_from_edges(4, 1, edges)
        assert check_matching_instance(4, 1, indptr, indices, [4]) == []

    def test_detects_invalid_reference_assignment(self):
        indptr, indices = csr_from_edges(2, 2, [(0, 0), (1, 1)])
        errors = check_matching_instance(
            2, 2, indptr, indices, [1, 1], reference_assignment=[1, 1]
        )
        assert any("outside its" in e for e in errors)

    def test_detects_undermatched_reference(self):
        indptr, indices = csr_from_edges(2, 2, [(0, 0), (1, 1)])
        errors = check_matching_instance(
            2, 2, indptr, indices, [1, 1], reference_assignment=[-1, -1]
        )
        assert any("cold" in e for e in errors)

    def test_detects_missing_reference_witness(self):
        # Two requests share one single-slot box: the maximum leaves one out.
        indptr, indices = csr_from_edges(2, 1, [(0, 0), (1, 0)])
        errors = check_matching_instance(
            2, 1, indptr, indices, [1], reference_assignment=[0, -1]
        )
        assert any("engine" in e and "without a Hall witness" in e for e in errors)
        assert check_matching_instance(
            2, 1, indptr, indices, [1], reference_assignment=[0, -1],
            reference_witness=(0, 1),
        ) == []

    def test_detects_reference_witness_off_by_one(self):
        indptr, indices = csr_from_edges(3, 2, [(0, 0), (1, 0), (2, 1)])
        # X = {0} alone has deficiency 0, not the 1 unmatched request.
        errors = check_matching_instance(
            3, 2, indptr, indices, [1, 1], reference_assignment=[0, -1, 1],
            reference_witness=(0,),
        )
        assert any("deficiency 0, but 1 requests" in e for e in errors)
        # X = {0, 1} needs 2 slots of box 0's 1: deficiency 1, exact.
        assert check_matching_instance(
            3, 2, indptr, indices, [1, 1], reference_assignment=[0, -1, 1],
            reference_witness=(0, 1),
        ) == []

    def test_capacities_past_int32_do_not_wrap(self):
        # SciPy reads capacities as int32: unclipped, 2**32 would become 0.
        indptr, indices = csr_from_edges(2, 1, [(0, 0), (1, 0)])
        assert check_matching_instance(2, 1, indptr, indices, [2**32]) == []


class TestScenarioOracle:
    # The 10k tier's eight rounds take about half a second; the 100k and
    # larger tiers (several seconds each) are left to the soak harness in
    # tests/test_scale_stress.py and the CLI.
    @pytest.mark.parametrize(
        "name",
        [
            n for n in scenario_names()
            if not n.startswith("scale_tier") or n == "scale_tier_10k"
        ],
    )
    def test_every_scenario_agrees_for_eight_rounds(self, name):
        report = run_differential_oracle(name, seed=11, num_rounds=8)
        assert report.ok, "\n".join(report.disagreements)
        assert report.instances_checked == 8

    def test_near_threshold_overload_rounds_agree(self):
        # Seed 2 drives this scenario into infeasible rounds, exercising
        # the witness branch on the engine's real trajectory.
        report = run_differential_oracle("near_threshold_load", seed=2)
        assert report.ok, "\n".join(report.disagreements)
        assert report.rounds_checked == 20

    def test_sampling_and_limits(self):
        report = run_differential_oracle(
            "steady_state", seed=3, num_rounds=10, sample_every=2, max_instances=3
        )
        assert report.ok
        assert report.rounds_checked == 10
        assert report.instances_checked == 3
        with pytest.raises(ValueError, match="sample_every"):
            run_differential_oracle("steady_state", sample_every=0)
