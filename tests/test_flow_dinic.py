"""Tests of the in-house Dinic, the cold twin of the Hopcroft–Karp path."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import Allocation
from repro.core.matching import ConnectionMatcher
from repro.core.parameters import homogeneous_population
from repro.core.possession import PossessionIndex
from repro.core.requests import RequestSet
from repro.core.video import Catalog
from repro.flow.bipartite import hall_deficiency, hall_violations
from repro.flow.dinic import dinic_matching
from repro.flow.hopcroft_karp import csr_from_edges, hopcroft_karp_matching


def solve(num_left, num_right, edges, caps):
    """``dinic_matching`` on the CSR of an edge list."""
    indptr, indices = csr_from_edges(num_left, num_right, edges)
    return dinic_matching(num_left, num_right, indptr, indices, caps)


class TestDinicMatching:
    def test_perfect_matching(self):
        edges = [(0, 0), (1, 1), (2, 2), (0, 1)]
        result = solve(3, 3, edges, [1, 1, 1])
        assert result.feasible
        assert result.matched == 3
        assert result.deficient_left == ()
        assert result.unsatisfied_witness is None
        # Every left node is assigned a valid admissible right node.
        for left, right in enumerate(result.assignment):
            assert (left, int(right)) in set(edges)

    def test_right_capacity_allows_multiple_clients(self):
        result = solve(3, 1, [(0, 0), (1, 0), (2, 0)], [3])
        assert result.feasible
        assert result.matched == 3
        assert all(int(r) == 0 for r in result.assignment)

    def test_infeasible_by_capacity(self):
        result = solve(3, 1, [(0, 0), (1, 0), (2, 0)], [2])
        assert not result.feasible
        assert result.matched == 2
        assert len(result.deficient_left) == 1

    def test_infeasible_by_missing_edges_witness(self):
        # Left node 2 has no admissible server: it forms a Hall violation.
        result = solve(3, 2, [(0, 0), (1, 1)], [1, 1])
        assert not result.feasible
        assert result.unsatisfied_witness is not None
        assert 2 in result.unsatisfied_witness
        assert result.assignment[2] == -1

    def test_empty_instance(self):
        result = solve(0, 3, [], [1, 1, 1])
        assert result.feasible
        assert result.matched == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            solve(2, 2, [], [1])
        with pytest.raises(ValueError):
            solve(1, 1, [(5, 0)], [1])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_matched_value_equals_hall_optimum_on_small_instances(self, seed):
        rng = np.random.default_rng(seed)
        num_left = int(rng.integers(1, 6))
        num_right = int(rng.integers(1, 6))
        caps = [int(rng.integers(0, 3)) for _ in range(num_right)]
        edges = [
            (i, j)
            for i in range(num_left)
            for j in range(num_right)
            if rng.random() < 0.5
        ]
        result = solve(num_left, num_right, edges, caps)
        # Feasibility ⇔ no generalized Hall violation (deficiency form).
        neighbourhoods = [set(j for (i, j) in edges if i == left) for left in range(num_left)]
        violations = hall_violations(neighbourhoods, caps, demand_per_left=1.0)
        assert result.feasible == (len(violations) == 0)


#: Malformed CSR instances ``(num_left, num_right, indptr, indices,
#: capacities)`` and the message each must be rejected with.
MALFORMED_CSR = [
    ((2, 1, [0, 1], [0], [1, 1]), r"num_left \+ 1 entries"),
    ((2, 1, [0, 0], [], [1]), r"num_left \+ 1 entries"),
    ((1, 2, [1, 2], [0, 1], [1, 1]), "start at 0"),
    ((1, 2, [0, 1], [0, 1], [1, 1]), "end at len"),
    ((1, 2, [0, 3], [0, 1], [1, 1]), "end at len"),
    ((3, 2, [0, 2, 1, 2], [0, 1], [1, 1]), "non-decreasing"),
    # A negative right id once indexed the last box and returned a
    # "feasible" matching over a non-edge.
    ((2, 3, [0, 2, 3], [0, -1, 0], [1, 0, 1]), r"\[0, num_right\)"),
    ((1, 2, [0, 1], [2], [1, 1]), r"\[0, num_right\)"),
    ((2, 1, [0, 0, 0], [], [1, 1]), "one entry per right node"),
    ((1, 1, [0, 0], [], [-1]), "non-negative"),
]


@pytest.mark.parametrize(
    "kernel", [hopcroft_karp_matching, dinic_matching], ids=["hopcroft_karp", "dinic"]
)
def test_both_kernels_reject_malformed_csr(kernel):
    for args, message in MALFORMED_CSR:
        with pytest.raises(ValueError, match=message):
            kernel(*args)


def dinic_instance(seed):
    """A seeded CSR instance with unsorted rows and duplicate edges.

    About half the instances give every row at least two edges and every
    box ``num_left // num_right`` extra capacity, so the batch holds
    feasible instances next to infeasible ones; the others have empty
    rows and zero-capacity boxes.  Every fourth instance has 150 to 400
    lefts.
    """
    rng = np.random.default_rng(seed)
    if seed % 4 == 3:
        num_left, num_right = int(rng.integers(150, 401)), int(rng.integers(20, 121))
    else:
        num_left, num_right = int(rng.integers(1, 41)), int(rng.integers(1, 21))
    roomy = bool(rng.random() < 0.5)
    caps = rng.integers(0, 3, size=num_right)
    degrees = rng.integers(0, 6, size=num_left)
    if roomy:
        caps += num_left // num_right
        degrees = np.maximum(degrees, 2)
    indptr = np.zeros(num_left + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = rng.integers(0, num_right, size=int(indptr[-1]))
    return num_left, num_right, indptr, indices, caps


#: SHA-256 of the Dinic's exact output over ``dinic_instance`` seeds
#: 0..59: assignment, matched count, deficient lefts and Hall witness.
#: It was recorded with the edge-list max-flow reduction that
#: ``dinic_matching`` replaced, on each CSR's row-order edge list.  Any
#: change to which maximum matching or witness the Dinic returns moves it.
PINNED_DINIC_DIGEST = "dbf5fbe656ed3d81c6bb198ccadcb3807817cef0795f4e46c94db3f2fa15231c"


class TestDinicOutputPin:
    def test_batch_output_is_pinned(self):
        digest = hashlib.sha256()
        feasible = infeasible = 0
        for seed in range(60):
            num_left, num_right, indptr, indices, caps = dinic_instance(seed)
            result = dinic_matching(num_left, num_right, indptr, indices, caps)
            digest.update(result.assignment.astype("<i8").tobytes())
            digest.update(repr((
                result.matched, result.deficient_left, result.unsatisfied_witness,
            )).encode())
            if result.feasible:
                feasible += 1
                continue
            infeasible += 1
            # Exact: the witness's deficiency is the unmatched count.
            deficiency = hall_deficiency(
                result.unsatisfied_witness, indptr, indices, caps
            )
            assert deficiency == num_left - result.matched
        assert feasible >= 10 and infeasible >= 10, (feasible, infeasible)
        assert digest.hexdigest() == PINNED_DINIC_DIGEST


class TestLongAugmentingPaths:
    """A path through every request must not overflow the interpreter's stack."""

    def test_kernel_chain(self):
        # Row i lists box i + 1 before box i; the last row only its own
        # box.  The first phase gives each row its first box, so the last
        # row's augmenting path alternates back through every row.
        n = 2_500
        indptr = np.concatenate(([0], np.arange(2, 2 * n, 2), [2 * n - 1]))
        indices = np.empty(2 * n - 1, dtype=np.int64)
        indices[0:-1:2] = np.arange(1, n)
        indices[1::2] = np.arange(n - 1)
        indices[-1] = n - 1
        caps = np.ones(n, dtype=np.int64)
        dinic = dinic_matching(n, n, indptr, indices, caps)
        hk = hopcroft_karp_matching(n, n, indptr, indices, caps)
        assert dinic.feasible and dinic.matched == hk.matched == n
        assert sorted(dinic.assignment.tolist()) == list(range(n))

    def test_matcher_chain(self):
        # Request i asks stripe i, which box i + 1 stores and box i caches
        # from its own playback, so each row lists box i + 1 first.  The
        # requester, box n, has no upload capacity; it stores stripe n - 1
        # and never serves itself, so request n - 1 has box n - 1 only.
        n = 600
        catalog = Catalog(num_videos=n, num_stripes=1, duration=10)
        population = homogeneous_population(n + 1, u=1.0, d=2.0)
        allocation = Allocation(catalog, population, 1, np.arange(1, n + 1))
        index = PossessionIndex(allocation, cache_window=10)
        for stripe in range(n):
            index.record_download(stripe_id=stripe, box_id=stripe, time=0)
        requests = RequestSet(np.arange(n), np.ones(n, dtype=np.int64), np.full(n, n))
        slots = [1] * n + [0]
        default = ConnectionMatcher(slots).match(requests, index, current_time=1)
        twin = ConnectionMatcher(slots, solver="dinic").match(
            requests, index, current_time=1
        )
        assert default.matched == twin.matched == n
        assert twin.feasible
        assert twin.box_load.tolist() == [1] * n + [0]
