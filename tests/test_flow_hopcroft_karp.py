"""Cross-validation of the Hopcroft–Karp kernel against the max-flow solvers."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.sparse.csgraph import maximum_flow

from repro.flow import hopcroft_karp as hk_module
from repro.flow.bipartite import hall_deficiency
from repro.flow.dinic import dinic_matching
from repro.flow.hopcroft_karp import (
    csr_from_edges,
    hopcroft_karp_matching,
    hopcroft_karp_rows,
)
from repro.scenarios.oracle import unit_demand_network
from repro.util import stable_argsort
from seeded_kernel import csr_rows, solve_seeded

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
        values = {
            "hopcroft_karp": hk.matched,
            "dinic": dinic_matching(num_left, num_right, indptr, indices, caps).matched,
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
    def test_witness_is_a_hall_violation(self, seed):
        """The infeasibility witness genuinely violates the Hall condition."""
        num_left, num_right, edges, caps, _ = random_instance(seed)
        indptr, indices = csr_from_edges(num_left, num_right, edges)
        hk = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps)
        if hk.feasible:
            assert hk.unsatisfied_witness is None
            return
        witness = hk.unsatisfied_witness
        assert witness is not None and len(witness) >= 1
        # Exact: the deficiency of the witness equals the unmatched count,
        # which proves the matching maximum.
        assert hall_deficiency(witness, indptr, indices, caps) == num_left - hk.matched

    @solver_settings
    @given(seed=st.integers(0, 100_000))
    def test_warm_start_never_changes_the_optimum(self, seed):
        """Any warm start — exact, stale or garbage — yields the same optimum.

        Each is seeded as the matcher seeds the kernel (``solve_seeded``).
        """
        num_left, num_right, edges, caps, rng = random_instance(seed)
        indptr, indices = csr_from_edges(num_left, num_right, edges)
        cold = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps)
        warm_starts = [
            cold.assignment,
            np.full(num_left, -1, dtype=np.int64),
            rng.integers(-1, num_right, size=num_left),
        ]
        for warm in warm_starts:
            again = solve_seeded(num_left, num_right, indptr, indices, caps, warm)
            assert again.matched == cold.matched
            assert again.feasible == cold.feasible
            assert_valid_assignment(again, num_right, edges, caps)


#: SHA-256 of the kernel's exact output over the ``csr_instance`` batch:
#: seeds 0..39, each solved cold, and from its exact optimum, a stale
#: assignment and garbage, seeded as the matcher seeds (``solve_seeded``).
#: Any change to which maximum matching, deficient set or Hall witness the
#: kernel returns moves this digest.
PINNED_KERNEL_DIGEST = "b04b8fe30deb287c4c11858e1140b35d6d92fbc420e248db978ca7f53d743ce5"

#: SHA-256 of the kernel's exact output over the ``near_threshold_instance``
#: batch: 400, 1,000 and 2,000 lefts, seeds 0..3 each, warm-started
#: through ``solve_seeded``.
PINNED_NEAR_THRESHOLD_DIGEST = "37c5498bd42962793540fc71f70bca6f2ff9f88317899ca8f142f5c029a27b09"


def near_threshold_instance(seed, num_left):
    """A warm-started instance just past the capacity threshold.

    ``num_left / 2`` boxes of capacity 2, two to five of them one slot
    short, and rows of 2 to 5 random boxes: the Hall witness spans nearly
    every left.  The warm start is a maximum matching with
    ``⌊√n⌋ / 3`` pairs dropped, so the free lefts stay within the Kuhn
    loop's threshold and most of its searches fail.
    """
    rng = np.random.default_rng(seed)
    num_right = num_left // 2
    caps = np.full(num_right, 2, dtype=np.int64)
    caps[rng.choice(num_right, size=int(rng.integers(2, 6)), replace=False)] -= 1
    indptr = np.zeros(num_left + 1, dtype=np.int64)
    np.cumsum(rng.integers(2, 6, size=num_left), out=indptr[1:])
    indices = rng.integers(0, num_right, size=int(indptr[-1]))
    warm = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps).assignment
    warm = warm.copy()
    dropped = rng.choice(
        np.flatnonzero(warm >= 0), size=math.isqrt(num_left) // 3, replace=False
    )
    warm[dropped] = -1
    return num_right, indptr, indices, caps, warm


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
                if warm is None:
                    result = hopcroft_karp_matching(
                        num_left, num_right, indptr, indices, caps
                    )
                else:
                    result = solve_seeded(
                        num_left, num_right, indptr, indices, caps, warm
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

    def test_near_threshold_output_is_pinned(self, monkeypatch):
        failed_searches = [0]
        kuhn_augment = hk_module._kuhn_augment

        def counting_kuhn_augment(*args):
            found = kuhn_augment(*args)
            failed_searches[0] += not found
            return found

        monkeypatch.setattr(hk_module, "_kuhn_augment", counting_kuhn_augment)
        digest = hashlib.sha256()
        for num_left in (400, 1000, 2000):
            for seed in range(4):
                num_right, indptr, indices, caps, warm = near_threshold_instance(
                    seed, num_left
                )
                assert (warm < 0).sum() <= math.isqrt(num_left)
                before = failed_searches[0]
                result = solve_seeded(num_left, num_right, indptr, indices, caps, warm)
                assert failed_searches[0] > before
                assert len(result.unsatisfied_witness) > 0.9 * num_left
                digest.update(result.assignment.astype("<i8").tobytes())
                digest.update(repr((
                    result.feasible,
                    result.matched,
                    result.deficient_left,
                    result.unsatisfied_witness,
                )).encode())
        assert digest.hexdigest() == PINNED_NEAR_THRESHOLD_DIGEST


def result_fields(result):
    """Everything a kernel result says, comparable with ``==``."""
    return (
        result.assignment.tolist(),
        result.feasible,
        result.matched,
        result.deficient_left,
        result.unsatisfied_witness,
    )


class TestTrustedSeed:
    @solver_settings
    @given(seed=st.integers(0, 100_000), keep=st.floats(0.0, 1.0))
    def test_a_valid_seed_gives_the_validated_result(self, seed, keep):
        """The row entry, on a seed of edges within capacity, equals the
        seeding reference.

        The row entry does not test the seed against the adjacency; the
        reference (``solve_seeded``) retires every seed pair that is not
        an edge first, as if its left came unmatched.  A seed entry out of
        range, or a right node seeded past its capacity, raises.
        """
        rng, num_left, num_right, indptr, indices, caps = csr_instance(seed)
        # A valid seed: a random edge of each row, kept with probability
        # ``keep`` while its right node has room, in left order.
        seed_pairs = np.full(num_left, -1, dtype=np.int64)
        room = caps.copy()
        for i in range(num_left):
            row = indices[indptr[i]:indptr[i + 1]]
            if row.size and rng.random() < keep:
                j = int(row[rng.integers(row.size)])
                if room[j]:
                    seed_pairs[i] = j
                    room[j] -= 1
        validated = solve_seeded(num_left, num_right, indptr, indices, caps, seed_pairs)
        on_rows = hopcroft_karp_rows(
            num_left, num_right, csr_rows(indptr, indices), caps, seed_pairs
        )
        assert result_fields(on_rows) == result_fields(validated)
        assert_valid_assignment(on_rows, num_right, csr_edges(indptr, indices), caps.tolist())

        # Stale pairs: lefts moved to a right node outside their row.
        stale = seed_pairs.copy()
        for i in range(num_left):
            outside = np.setdiff1d(np.arange(num_right), indices[indptr[i]:indptr[i + 1]])
            if outside.size and rng.random() < 0.3:
                stale[i] = int(outside[rng.integers(outside.size)])
        dropped = np.where(stale == seed_pairs, seed_pairs, -1)
        assert result_fields(
            solve_seeded(num_left, num_right, indptr, indices, caps, stale)
        ) == result_fields(
            hopcroft_karp_rows(
                num_left, num_right, csr_rows(indptr, indices), caps, dropped
            )
        )

        # The row entry's own checks raise instead of dropping pairs: a
        # right id out of range, and a right node seeded past its capacity.
        out_of_range = seed_pairs.copy()
        out_of_range[rng.integers(num_left)] = int(
            rng.choice([-3, num_right, num_right + 2])
        )
        with pytest.raises(ValueError, match=r"\[0, num_right\)"):
            hopcroft_karp_rows(
                num_left, num_right, csr_rows(indptr, indices), caps, out_of_range
            )
        crowded = np.full(num_left, -1, dtype=np.int64)
        for i in range(num_left):
            row = indices[indptr[i]:indptr[i + 1]]
            if row.size and rng.random() < keep:
                crowded[i] = int(row[rng.integers(row.size)])
        load = np.bincount(crowded[crowded >= 0], minlength=num_right)
        if (load > caps).any():
            with pytest.raises(ValueError, match="past its capacity"):
                hopcroft_karp_rows(
                    num_left, num_right, csr_rows(indptr, indices), caps, crowded
                )
        else:
            assert result_fields(
                hopcroft_karp_rows(
                    num_left, num_right, csr_rows(indptr, indices), caps, crowded
                )
            ) == result_fields(
                solve_seeded(num_left, num_right, indptr, indices, caps, crowded)
            )


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
        result = solve_seeded(num_left, num_right, indptr, indices, caps, warm)
        assert_valid_assignment(result, num_right, csr_edges(indptr, indices), caps.tolist())
        dinic = dinic_matching(num_left, num_right, indptr, indices, caps)
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
        with pytest.raises(ValueError, match="one entry per left"):
            hopcroft_karp_rows(1, 1, csr_rows([0, 0], []), [1], [0, 0])
        # A negative right id once indexed the last box and returned a
        # "feasible" matching over a non-edge: in the CSR, and in a seed.
        with pytest.raises(ValueError, match=r"\[0, num_right\)"):
            hopcroft_karp_matching(2, 3, [0, 2, 3], [0, -1, 0], [1, 0, 1])
        with pytest.raises(ValueError, match=r"\[0, num_right\)"):
            hopcroft_karp_rows(2, 3, csr_rows([0, 2, 3], [0, 1, 0]), [1, 0, 1], [0, -2])
        with pytest.raises(ValueError, match="past its capacity"):
            hopcroft_karp_rows(2, 1, csr_rows([0, 1, 2], [0, 0]), [1], [0, 0])
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

    def test_csr_from_edges_rejects_anything_but_pairs(self):
        # Triples were once reshaped into pairs: (0, 1, 2), (1, 0, 0) read
        # as (0, 1), (2, 1), (0, 0).
        with pytest.raises(ValueError, match="pairs"):
            csr_from_edges(3, 3, [(0, 1, 2), (1, 0, 0)])
        with pytest.raises(ValueError, match="pairs"):
            csr_from_edges(3, 3, [0, 1])
        indptr, indices = csr_from_edges(3, 3, [])
        assert indptr.tolist() == [0, 0, 0, 0] and indices.size == 0

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


class TestGreedyFirstFit:
    """The greedy pass is first-fit in left order, in CSR row order.

    Its vectorized prefix (every left takes its row's head until some
    head is full) must not change which box any left gets.
    """

    @staticmethod
    def first_fit(num_left, indptr, indices, caps):
        """Plain sequential first-fit; also reports whether a head was full."""
        load = [0] * len(caps)
        assignment = [-1] * num_left
        head_was_full = False
        for i in range(num_left):
            row = indices[indptr[i]:indptr[i + 1]].tolist()
            head_was_full |= bool(row) and load[row[0]] >= caps[row[0]]
            for j in row:
                if load[j] < caps[j]:
                    load[j] += 1
                    assignment[i] = j
                    break
        return assignment, head_was_full

    def test_a_full_head_sends_the_left_down_its_row(self):
        indptr, indices = np.array([0, 2, 4, 5]), np.array([0, 1, 0, 2, 1])
        result = hopcroft_karp_matching(3, 3, indptr, indices, [1, 1, 1])
        assert result.assignment.tolist() == [0, 2, 1]

    def test_a_complete_first_fit_is_returned_unchanged(self):
        """Where first-fit matches every left with a row, nothing augments."""
        checked = with_full_head = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            num_left, num_right = int(rng.integers(1, 60)), int(rng.integers(1, 15))
            caps = rng.integers(0, 6, size=num_right)
            indptr = np.zeros(num_left + 1, dtype=np.int64)
            np.cumsum(rng.integers(0, 6, size=num_left), out=indptr[1:])
            indices = rng.integers(0, num_right, size=int(indptr[-1]))
            expected, head_was_full = self.first_fit(num_left, indptr, indices, caps)
            has_row = np.diff(indptr) > 0
            if any(j < 0 for j, row in zip(expected, has_row) if row):
                continue
            result = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps)
            assert result.assignment.tolist() == expected
            checked += 1
            with_full_head += head_was_full
        # The batch reaches the sequential part past the vectorized prefix.
        assert checked >= 40 and with_full_head >= 20

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=40))
    @example([])
    @example([3, 1, 3, 3, 0, 1])
    def test_rank_among_equal_counts_earlier_equal_entries(self, ids):
        seq = np.array(ids, dtype=np.int64)
        expected = [ids[:k].count(b) for k, b in enumerate(ids)]
        assert hk_module._rank_among_equal(seq).tolist() == expected


class TestStableRightOrder:
    """The kernel's right-node order, :func:`repro.util.stable_argsort`, must
    equal the stable argsort for any ids."""

    def test_small_ids_use_int32_and_stay_stable(self):
        seq = np.array([5, 2, 5, 2, 0], dtype=np.int64)
        expected = np.argsort(seq, kind="stable")
        assert list(stable_argsort(seq)) == list(expected)

    def test_ids_past_int32_sort_correctly(self):
        boundary = np.iinfo(np.int32).max
        # Just past the int32 boundary: the old unconditional cast wrapped
        # these negative and scrambled the stable CSR adoption order.
        seq = np.array(
            [boundary + 1, 3, boundary + 1, 2, boundary + 2], dtype=np.int64
        )
        expected = np.argsort(seq, kind="stable")
        assert list(stable_argsort(seq)) == list(expected)
        wrapped = np.argsort(seq.astype(np.int32), kind="stable")
        assert list(wrapped) != list(expected)

    def test_boundary_id_still_uses_the_cast(self):
        boundary = np.iinfo(np.int32).max
        seq = np.array([boundary, 0, boundary], dtype=np.int64)
        expected = np.argsort(seq, kind="stable")
        assert list(stable_argsort(seq)) == list(expected)

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
        seq = np.array(ids, dtype=np.int64)
        expected = np.argsort(seq, kind="stable")
        assert list(stable_argsort(seq)) == list(expected)
