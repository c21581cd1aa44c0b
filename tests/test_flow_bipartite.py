"""Tests for Hall violations, the exact Hall deficiency and expansion."""

import itertools

import numpy as np
import pytest

from repro.flow.bipartite import (
    expansion_ratio,
    hall_deficiency,
    hall_violations,
    worst_expansion_subset,
)


class TestHallViolations:
    def test_no_violation_in_complete_graph(self):
        neighbourhoods = [{0, 1}, {0, 1}]
        assert hall_violations(neighbourhoods, [1.0, 1.0], 1.0) == []

    def test_violation_detected(self):
        neighbourhoods = [{0}, {0}]
        violations = hall_violations(neighbourhoods, [1.0], 1.0)
        assert (0, 1) in violations

    def test_weighted_capacity(self):
        # One server of weight 2 can cover both left nodes.
        neighbourhoods = [{0}, {0}]
        assert hall_violations(neighbourhoods, [2.0], 1.0) == []

    def test_fractional_demand(self):
        # Each request needs 1/c = 0.5: one unit server covers two requests.
        neighbourhoods = [{0}, {0}, {0}]
        violations = hall_violations(neighbourhoods, [1.0], 0.5)
        assert violations == [(0, 1, 2)]

    def test_max_subset_size_limits_search(self):
        neighbourhoods = [{0}, {0}, {0}]
        assert hall_violations(neighbourhoods, [1.0], 0.5, max_subset_size=2) == []

    def test_empty_neighbourhood_is_violation(self):
        violations = hall_violations([set()], [1.0], 1.0)
        assert violations == [(0,)]


class TestHallDeficiency:
    # Rows: 0 -> {0, 0, 1} (a duplicate edge), 1 -> {} (no edges), 2 -> {2}.
    INDPTR = [0, 3, 3, 4]
    INDICES = [0, 0, 1, 2]

    def test_empty_witness(self):
        assert hall_deficiency([], self.INDPTR, self.INDICES, [1, 1, 1]) == 0

    def test_duplicate_edges_count_a_box_once(self):
        # |X| = 1, B(X) = {0, 1} with capacity 1 + 2.
        assert hall_deficiency([0], self.INDPTR, self.INDICES, [1, 2, 5]) == -2

    def test_zero_capacity_boxes_add_nothing(self):
        assert hall_deficiency([0, 2], self.INDPTR, self.INDICES, [0, 0, 0]) == 2
        assert hall_deficiency([0, 2], self.INDPTR, self.INDICES, [0, 1, 0]) == 1

    def test_row_with_no_edges_is_fully_deficient(self):
        assert hall_deficiency([1], self.INDPTR, self.INDICES, [4, 4, 4]) == 1
        # Repeated witness ids count once; the edgeless row adds demand only.
        assert hall_deficiency([1, 2, 1], self.INDPTR, self.INDICES, [4, 4, 1]) == 1

    def test_matches_the_exhaustive_hall_search(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            num_left, num_right = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            caps = rng.integers(0, 3, size=num_right)
            indptr = np.concatenate(([0], np.cumsum(rng.integers(0, 4, size=num_left))))
            indices = rng.integers(0, num_right, size=int(indptr[-1]))
            neighbourhoods = [
                set(indices[indptr[i]:indptr[i + 1]].tolist()) for i in range(num_left)
            ]
            violations = set(hall_violations(neighbourhoods, caps, 1.0))
            for size in range(num_left + 1):
                for subset in itertools.combinations(range(num_left), size):
                    deficiency = hall_deficiency(subset, indptr, indices, caps)
                    assert (deficiency > 0) == (subset in violations)

    def test_out_of_range_ids_rejected(self):
        for witness in ([3], [-1]):
            with pytest.raises(ValueError, match="outside"):
                hall_deficiency(witness, self.INDPTR, self.INDICES, [1, 1, 1])


class TestExpansion:
    def test_worst_expansion_subset(self):
        neighbourhoods = [{0, 1}, {1}, {1, 2}]
        subset, ratio = worst_expansion_subset(neighbourhoods)
        assert ratio == pytest.approx(1.0)
        assert 1 in subset

    def test_empty_input(self):
        subset, ratio = worst_expansion_subset([])
        assert subset == ()
        assert ratio == float("inf")

    def test_expansion_ratio_of_given_subsets(self):
        neighbourhoods = [{0, 1}, {1}, {2, 3}]
        ratios = expansion_ratio(neighbourhoods, [(0,), (0, 1), (0, 1, 2)])
        assert ratios[(0,)] == pytest.approx(2.0)
        assert ratios[(0, 1)] == pytest.approx(1.0)
        assert ratios[(0, 1, 2)] == pytest.approx(4 / 3)

    def test_expansion_ratio_rejects_empty_subset(self):
        with pytest.raises(ValueError):
            expansion_ratio([{0}], [()])

    def test_worst_subset_bounded_by_single_nodes(self):
        neighbourhoods = [{0, 1, 2}, {3}, {4, 5}]
        _, ratio = worst_expansion_subset(neighbourhoods)
        assert ratio <= min(len(nb) for nb in neighbourhoods)
