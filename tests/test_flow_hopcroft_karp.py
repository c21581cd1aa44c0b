"""Cross-validation of the Hopcroft–Karp kernel against the max-flow solvers."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.sparse.csgraph import maximum_flow

from repro.flow import hopcroft_karp as hk_module
from repro.flow.bipartite import hall_deficiency, solve_b_matching
from repro.flow.dinic import dinic_max_flow
from repro.flow.hopcroft_karp import csr_from_edges, hopcroft_karp_matching
from repro.flow.network import build_bipartite_network
from repro.scenarios.oracle import unit_demand_network

solver_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_instance(seed):
    """A random bipartite unit-demand instance (possibly infeasible)."""
    rng = np.random.default_rng(seed)
    num_left = int(rng.integers(0, 14))
    num_right = int(rng.integers(1, 10))
    caps = [int(rng.integers(0, 4)) for _ in range(num_right)]
    density = float(rng.uniform(0.1, 0.7))
    edges = [
        (i, j)
        for i in range(num_left)
        for j in range(num_right)
        if rng.random() < density
    ]
    return num_left, num_right, edges, caps, rng


def assert_valid_assignment(result, num_right, edges, caps):
    """The assignment respects adjacency and right capacities."""
    edge_set = set(edges)
    loads = [0] * num_right
    for left, right in enumerate(result.assignment):
        right = int(right)
        if right >= 0:
            assert (left, right) in edge_set
            loads[right] += 1
    assert all(load <= cap for load, cap in zip(loads, caps))
    assert result.matched == sum(loads)
    assert result.feasible == (result.matched == len(result.assignment))


def csr_instance(seed):
    """A seeded CSR instance with unsorted rows and duplicate edges.

    Odd seeds are small (up to 40 lefts), so the greedy deficit mostly
    stays within the single-source Kuhn threshold.  Even seeds have 50 to
    400 lefts and scarce capacity, so most calls reach the layered phases.
    """
    rng = np.random.default_rng(seed)
    if seed % 2:
        num_left, num_right = int(rng.integers(1, 41)), int(rng.integers(1, 21))
        max_cap, max_degree = 3, 5
    else:
        num_left, num_right = int(rng.integers(50, 401)), int(rng.integers(5, 81))
        max_cap, max_degree = 2, 6
    caps = rng.integers(0, max_cap + 1, size=num_right)
    indptr = np.zeros(num_left + 1, dtype=np.int64)
    np.cumsum(rng.integers(0, max_degree + 1, size=num_left), out=indptr[1:])
    indices = rng.integers(0, num_right, size=int(indptr[-1]))
    return rng, num_left, num_right, indptr, indices, caps


def csr_edges(indptr, indices):
    """The ``(left, right)`` edge list of a CSR adjacency."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return list(zip(rows.tolist(), np.asarray(indices).tolist()))


class TestKernelAgainstMaxFlowSolvers:
    @solver_settings
    @given(seed=st.integers(0, 100_000))
    def test_all_four_solvers_agree_on_flow_value(self, seed):
        """HK, the in-house Dinic and SciPy's Dinic and Edmonds–Karp agree."""
        num_left, num_right, edges, caps, _ = random_instance(seed)
        indptr, indices = csr_from_edges(num_left, num_right, edges)
        hk = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps)
        network, source, sink = build_bipartite_network(
            num_left=num_left,
            num_right=num_right,
            edges=edges,
            left_capacities=[1] * num_left,
            right_capacities=caps,
        )
        values = {
            "hopcroft_karp": hk.matched,
            "dinic": dinic_max_flow(network, source, sink),
        }
        graph, source, sink = unit_demand_network(
            num_left, num_right, indptr, indices, caps
        )
        for method in ("dinic", "edmonds_karp"):
            values[f"scipy_{method}"] = maximum_flow(
                graph, source, sink, method=method
            ).flow_value
        assert len(set(values.values())) == 1, values
        assert_valid_assignment(hk, num_right, edges, caps)

    @solver_settings
    @given(seed=st.integers(0, 100_000))
    def test_solve_b_matching_methods_agree(self, seed):
        """The dispatching front-end returns equivalent results per method."""
        num_left, num_right, edges, caps, _ = random_instance(seed)
        dinic = solve_b_matching(num_left, num_right, edges, caps, method="dinic")
        hk = solve_b_matching(num_left, num_right, edges, caps, method="hopcroft_karp")
        auto = solve_b_matching(num_left, num_right, edges, caps, method="auto")
        assert dinic.matched == hk.matched == auto.matched
        assert dinic.feasible == hk.feasible == auto.feasible
        assert set(dinic.deficient_left) == set() or len(hk.deficient_left) == len(
            dinic.deficient_left
        )
        assert_valid_assignment(hk, num_right, edges, caps)

    @solver_settings
    @given(seed=st.integers(0, 100_000))
    def test_witness_is_a_hall_violation(self, seed):
        """The infeasibility witness genuinely violates the Hall condition."""
        num_left, num_right, edges, caps, _ = random_instance(seed)
        hk = solve_b_matching(num_left, num_right, edges, caps, method="hopcroft_karp")
        if hk.feasible:
            assert hk.unsatisfied_witness is None
            return
        witness = hk.unsatisfied_witness
        assert witness is not None and len(witness) >= 1
        indptr, indices = csr_from_edges(num_left, num_right, edges)
        # Exact: the deficiency of the witness equals the unmatched count,
        # which proves the matching maximum.
        assert hall_deficiency(witness, indptr, indices, caps) == num_left - hk.matched

    @solver_settings
    @given(seed=st.integers(0, 100_000))
    def test_warm_start_never_changes_the_optimum(self, seed):
        """Any warm start — exact, stale or garbage — yields the same optimum."""
        num_left, num_right, edges, caps, rng = random_instance(seed)
        indptr, indices = csr_from_edges(num_left, num_right, edges)
        cold = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps)
        warm_starts = [
            cold.assignment,
            np.full(num_left, -1, dtype=np.int64),
            rng.integers(-1, num_right, size=num_left),
        ]
        for warm in warm_starts:
            again = hopcroft_karp_matching(
                num_left, num_right, indptr, indices, caps, initial_assignment=warm
            )
            assert again.matched == cold.matched
            assert again.feasible == cold.feasible
            assert_valid_assignment(again, num_right, edges, caps)


#: SHA-256 of the kernel's exact output over the ``csr_instance`` batch:
#: seeds 0..39, each solved cold, from its exact optimum, from a stale
#: assignment and from garbage.  Any change to which maximum matching,
#: deficient set or Hall witness the kernel returns moves this digest.
PINNED_KERNEL_DIGEST = "b04b8fe30deb287c4c11858e1140b35d6d92fbc420e248db978ca7f53d743ce5"


class TestKernelOutputPin:
    def test_batch_output_is_pinned(self, monkeypatch):
        kuhn_calls = [0]
        kuhn_augment = hk_module._kuhn_augment

        def counting_kuhn_augment(*args):
            kuhn_calls[0] += 1
            return kuhn_augment(*args)

        monkeypatch.setattr(hk_module, "_kuhn_augment", counting_kuhn_augment)
        digest = hashlib.sha256()
        kuhn_then_phases = phase_path = 0
        for seed in range(40):
            rng, num_left, num_right, indptr, indices, caps = csr_instance(seed)
            cold = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps)
            # A maximum matching of the same rows under looser capacities:
            # like a previous round's, it overloads boxes and is not maximal.
            stale = hopcroft_karp_matching(
                num_left, num_right, indptr, indices, caps + 1
            ).assignment
            garbage = rng.integers(-2, num_right + 2, size=num_left)
            for warm in (None, cold.assignment, stale, garbage):
                before = kuhn_calls[0]
                result = hopcroft_karp_matching(
                    num_left, num_right, indptr, indices, caps,
                    initial_assignment=warm,
                )
                deficit = num_left - result.matched
                kuhn_then_phases += kuhn_calls[0] > before and deficit > 0
                phase_path += deficit > max(8, math.isqrt(num_left))
                digest.update(result.assignment.astype("<i8").tobytes())
                digest.update(repr((
                    result.feasible,
                    result.matched,
                    result.deficient_left,
                    result.unsatisfied_witness,
                )).encode())
        # The batch reaches both deficit paths: a failed Kuhn search that
        # falls through to the phases, and a deficit above the threshold.
        assert kuhn_then_phases > 0 and phase_path > 0
        assert digest.hexdigest() == PINNED_KERNEL_DIGEST


class TestPhasePathWithWarmStarts:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 50_000),
        warm_kind=st.sampled_from(["stale", "garbage", "partial"]),
    )
    def test_warm_started_deficit_is_maximum_with_a_hall_witness(self, seed, warm_kind):
        # Even seeds: 50 to 400 lefts with scarce capacity (the phase path).
        rng, num_left, num_right, indptr, indices, caps = csr_instance(2 * seed)
        if warm_kind == "stale":
            warm = hopcroft_karp_matching(
                num_left, num_right, indptr, indices, caps + 1
            ).assignment
        elif warm_kind == "garbage":
            warm = rng.integers(-2, num_right + 2, size=num_left)
        else:
            warm = hopcroft_karp_matching(
                num_left, num_right, indptr, indices, caps
            ).assignment.copy()
            warm[rng.random(num_left) < 0.5] = -1
        result = hopcroft_karp_matching(
            num_left, num_right, indptr, indices, caps, initial_assignment=warm
        )
        edges = csr_edges(indptr, indices)
        assert_valid_assignment(result, num_right, edges, caps.tolist())
        dinic = solve_b_matching(num_left, num_right, edges, caps.tolist(), method="dinic")
        assert result.matched == dinic.matched
        unmatched = tuple(np.flatnonzero(result.assignment < 0).tolist())
        assert result.deficient_left == unmatched
        if not unmatched:
            assert result.unsatisfied_witness is None
            return
        witness = result.unsatisfied_witness
        assert set(unmatched) <= set(witness)
        assert hall_deficiency(witness, indptr, indices, caps) == len(unmatched)


class TestKernelEdgeCases:
    def test_empty_instance(self):
        result = hopcroft_karp_matching(0, 3, [0], [], [1, 1, 1])
        assert result.feasible
        assert result.matched == 0
        assert result.unsatisfied_witness is None

    def test_no_edges_is_infeasible(self):
        indptr, indices = csr_from_edges(2, 2, [])
        result = hopcroft_karp_matching(2, 2, indptr, indices, [1, 1])
        assert not result.feasible
        assert result.matched == 0
        assert set(result.deficient_left) == {0, 1}
        assert result.unsatisfied_witness is not None

    def test_zero_capacity_right_is_useless(self):
        indptr, indices = csr_from_edges(1, 1, [(0, 0)])
        result = hopcroft_karp_matching(1, 1, indptr, indices, [0])
        assert not result.feasible
        assert result.assignment[0] == -1

    def test_duplicate_edges_are_harmless(self):
        indptr, indices = csr_from_edges(2, 1, [(0, 0), (0, 0), (1, 0)])
        result = hopcroft_karp_matching(2, 1, indptr, indices, [2])
        assert result.feasible
        assert result.matched == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            hopcroft_karp_matching(2, 1, [0, 1], [0], [1, 1])  # wrong cap length
        with pytest.raises(ValueError):
            hopcroft_karp_matching(1, 1, [0], [], [-1])  # negative capacity
        with pytest.raises(ValueError):
            hopcroft_karp_matching(2, 1, [0, 0], [], [1])  # wrong indptr length
        with pytest.raises(ValueError):
            hopcroft_karp_matching(
                1, 1, [0, 0], [], [1], initial_assignment=[0, 0]
            )  # wrong warm-start length
        # A negative right id once indexed the last box and returned a
        # "feasible" matching over a non-edge.
        with pytest.raises(ValueError, match=r"\[0, num_right\)"):
            hopcroft_karp_matching(
                2, 3, [0, 2, 3], [0, -1, 0], [1, 0, 1], initial_assignment=[0, -1]
            )
        with pytest.raises(ValueError, match=r"\[0, num_right\)"):
            hopcroft_karp_matching(1, 2, [0, 1], [2], [1, 1])  # right id too large
        with pytest.raises(ValueError, match="non-decreasing"):
            hopcroft_karp_matching(3, 2, [0, 2, 1, 2], [0, 1], [1, 1])
        with pytest.raises(ValueError, match="start at 0"):
            hopcroft_karp_matching(1, 2, [1, 2], [0, 1], [1, 1])
        with pytest.raises(ValueError, match="end at len"):
            hopcroft_karp_matching(1, 2, [0, 1], [0, 1], [1, 1])
        with pytest.raises(ValueError, match="end at len"):
            hopcroft_karp_matching(1, 2, [0, 3], [0, 1], [1, 1])
        with pytest.raises(ValueError):
            csr_from_edges(1, 1, [(1, 0)])
        with pytest.raises(ValueError):
            csr_from_edges(1, 1, [(0, 5)])

    def test_solve_b_matching_rejects_hk_with_general_demands(self):
        with pytest.raises(ValueError):
            solve_b_matching(
                1, 1, [(0, 0)], [2], left_demands=[2], method="hopcroft_karp"
            )

    def test_solve_b_matching_auto_falls_back_for_general_demands(self):
        result = solve_b_matching(
            num_left=2,
            num_right=2,
            edges=[(0, 0), (0, 1), (1, 1)],
            right_capacities=[1, 2],
            left_demands=[2, 1],
            method="auto",
        )
        assert result.feasible
        assert result.matched == 3

    def test_solve_b_matching_unknown_method(self):
        with pytest.raises(ValueError):
            solve_b_matching(1, 1, [(0, 0)], [1], method="bogus")

    def test_large_deficit_uses_phase_path(self):
        # Many unmatched lefts (far above the Kuhn threshold) exercise the
        # layered BFS/DFS phases and the witness extraction.
        num_left, num_right = 60, 3
        edges = [(i, j) for i in range(num_left) for j in range(num_right)]
        indptr, indices = csr_from_edges(num_left, num_right, edges)
        result = hopcroft_karp_matching(num_left, num_right, indptr, indices, [2, 2, 2])
        assert result.matched == 6
        assert not result.feasible
        assert result.unsatisfied_witness is not None
        assert len(result.unsatisfied_witness) == num_left


class TestStableRightOrder:
    """The fast right-node order must equal the stable argsort for any ids."""

    def test_small_ids_use_int32_and_stay_stable(self):
        from repro.flow.hopcroft_karp import _stable_right_order

        seq = np.array([5, 2, 5, 2, 0], dtype=np.int64)
        expected = np.argsort(seq, kind="stable")
        assert list(_stable_right_order(seq)) == list(expected)

    def test_ids_past_int32_sort_correctly(self):
        from repro.flow.hopcroft_karp import _stable_right_order

        boundary = np.iinfo(np.int32).max
        # Just past the int32 boundary: the old unconditional cast wrapped
        # these negative and scrambled the stable CSR adoption order.
        seq = np.array(
            [boundary + 1, 3, boundary + 1, 2, boundary + 2], dtype=np.int64
        )
        expected = np.argsort(seq, kind="stable")
        assert list(_stable_right_order(seq)) == list(expected)
        wrapped = np.argsort(seq.astype(np.int32), kind="stable")
        assert list(wrapped) != list(expected)

    def test_boundary_id_still_uses_the_cast(self):
        from repro.flow.hopcroft_karp import _stable_right_order

        boundary = np.iinfo(np.int32).max
        seq = np.array([boundary, 0, boundary], dtype=np.int64)
        expected = np.argsort(seq, kind="stable")
        assert list(_stable_right_order(seq)) == list(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 6),
                st.integers(-(2**40), 2**40),
                st.sampled_from([-1, 2**31 - 1, 2**31, 2**32, 2**62]),
            ),
            max_size=40,
        )
    )
    @example([])
    @example([3, 1, 3, 3, 0, 1])
    @example([-1, 0, -1, 2])
    @example([2**31, 0, 2**31, 2**31 - 1])
    def test_equals_the_stable_argsort(self, ids):
        from repro.flow.hopcroft_karp import _stable_right_order

        seq = np.array(ids, dtype=np.int64)
        expected = np.argsort(seq, kind="stable")
        assert list(_stable_right_order(seq)) == list(expected)
