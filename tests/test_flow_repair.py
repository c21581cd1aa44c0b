"""Tests for the incremental repair's pair retirement and exact searches
(repro.flow.repair)."""

from collections import deque
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.flow.repair as repair
from repro.flow.hopcroft_karp import _right_matches
from repro.flow.repair import _retire_pairs, repair_matching


def retire_reference(assignment, pair_expiry, capacities, current_time):
    """Pair by pair in left order: drop expired pairs, then keep each box's
    pairs while it has capacity left.  Returns the assignment and the load."""
    kept = [
        -1 if box < 0 or expiry < current_time else box
        for box, expiry in zip(assignment, pair_expiry)
    ]
    load = [0] * len(capacities)
    for i, box in enumerate(kept):
        if box >= 0:
            if load[box] < capacities[box]:
                load[box] += 1
            else:
                kept[i] = -1
    return kept, load


@st.composite
def carried_pairs(draw):
    num_boxes = draw(st.integers(1, 6))
    num_pairs = draw(st.integers(0, 25))

    def column(values, size):
        return draw(st.lists(values, min_size=size, max_size=size))

    assignment = column(st.integers(-1, num_boxes - 1), num_pairs)
    pair_expiry = column(st.integers(-1, 6), num_pairs)
    capacities = column(st.integers(0, 3), num_boxes)
    return assignment, pair_expiry, capacities, draw(st.integers(0, 6))


@given(instance=carried_pairs())
@settings(max_examples=200, deadline=None)
def test_retire_pairs_matches_the_pair_by_pair_reference(instance):
    """Expired pairs go; a box over capacity keeps its first pairs in left
    order; the returned load counts exactly the pairs that remain."""
    assignment, pair_expiry, capacities, current_time = instance
    got = np.array(assignment, dtype=np.int64)
    load = _retire_pairs(
        got,
        np.array(pair_expiry, dtype=np.int64),
        np.array(capacities, dtype=np.int64),
        current_time,
    )
    expected, expected_load = retire_reference(
        assignment, pair_expiry, capacities, current_time
    )
    assert got.tolist() == expected
    assert load.tolist() == expected_load


def kuhn_augment_reference(
    i0, rows, expiries, cap, load, has_free, match_left, right_matches,
    pair_expiry, budget,
):
    """One breadth-first search of the exact repair over explicit rows,
    testing every discovered left's row for a free box and recording each
    parent edge's expiry when the edge is met."""
    parent = {i0: None}

    def try_free(u):
        boxes_arr = np.array(rows[u], dtype=np.int64)
        if not boxes_arr.size:
            return False
        mask = has_free[boxes_arr]
        e = int(np.argmax(mask))
        if not mask[e]:
            return False
        j = rows[u][e]
        right_matches[j].append(u)
        load[j] += 1
        if load[j] >= cap[j]:
            has_free[j] = False
        match_left[u] = j
        pair_expiry[u] = expiries[u][e]
        cur = u
        link = parent[cur]
        while link is not None:
            p, b, x = link
            siblings = right_matches[b]
            siblings[siblings.index(cur)] = p
            match_left[p] = b
            pair_expiry[p] = x
            cur = p
            link = parent[cur]
        return True

    if try_free(i0):
        return True
    visited = set()
    frontier = deque((i0,))
    while frontier:
        u = frontier.popleft()
        for e in range(len(rows[u])):
            j = rows[u][e]
            if j in visited:
                continue
            visited.add(j)
            x = expiries[u][e]
            for k in right_matches[j]:
                if k in parent:
                    continue
                if budget[0] <= 0:
                    return None
                budget[0] -= 1
                parent[k] = (u, j, x)
                if try_free(k):
                    return True
                frontier.append(k)
    return False


def repair_reference(
    num_right, rows, expiries, capacities, assignment, load, pair_expiry,
    deficit_rows, search_budget, budget_floor, budget_per_row,
):
    """The exact repair with every box's matched lefts indexed at entry."""
    if search_budget is not None and len(deficit_rows) > search_budget:
        return False
    matched_i = np.flatnonzero(assignment >= 0)
    right_matches = _right_matches(num_right, matched_i, assignment[matched_i])
    has_free = load < capacities
    budget = [max(budget_floor, budget_per_row * len(deficit_rows))]
    for i in deficit_rows:
        if not kuhn_augment_reference(
            i, rows, expiries, capacities, load, has_free, assignment,
            right_matches, pair_expiry, budget,
        ):
            return False
    return True


class ExplicitRows(dict):
    """The exact searches' row source over explicit rows and expiries.

    ``array(i)``, ``rows[i]`` (converted once, cached) and ``expiry(i,
    e)``, as :meth:`repro.core.possession.PossessionIndex.search_rows`
    serves them; ``arrays`` and ``lists`` record, in order, every array
    read and every list conversion.
    """

    def __init__(self, rows, expiries):
        super().__init__()
        self._rows, self._expiries = rows, expiries
        self.arrays, self.lists = [], []

    def __missing__(self, i):
        self.lists.append(i)
        row = self[i] = list(self._rows[i])
        return row

    def array(self, i):
        self.arrays.append(i)
        return np.array(self._rows[i], dtype=np.int64)

    def expiry(self, i, e):
        return self._expiries[i][e]


@st.composite
def repair_instances(draw):
    num_boxes = draw(st.integers(1, 6))
    num_left = draw(st.integers(1, 24))
    capacities = draw(st.lists(st.integers(0, 3), min_size=num_boxes, max_size=num_boxes))
    rows = [
        draw(st.lists(st.integers(0, num_boxes - 1), max_size=5)) for _ in range(num_left)
    ]
    expiries = [
        draw(st.lists(st.integers(0, 9), min_size=len(row), max_size=len(row)))
        for row in rows
    ]
    # A valid start: some lefts hold one box of their row, within capacity.
    assignment, load = [-1] * num_left, [0] * num_boxes
    for i, row in enumerate(rows):
        if row and draw(st.booleans()):
            j = draw(st.sampled_from(row))
            if load[j] < capacities[j]:
                assignment[i], load[j] = j, load[j] + 1
    pair_expiry = draw(st.lists(st.integers(-1, 9), min_size=num_left, max_size=num_left))
    unmatched = [i for i in range(num_left) if assignment[i] < 0]
    deficit = draw(st.permutations(unmatched))[: draw(st.integers(1, 8))]
    search_budget = draw(st.none() | st.integers(0, len(deficit) + 1))
    budget_floor = draw(st.sampled_from([100_000, 0, 3, 8]))
    budget_per_row = draw(st.integers(0, 4))
    return (
        num_boxes, capacities, rows, expiries, assignment, load, pair_expiry,
        deficit, search_budget, budget_floor, budget_per_row,
    )


def run_both(instance):
    """The repair and the reference on copies of one instance: per side, the
    return value, the assignment, the load and the pair expiries."""
    (num_boxes, capacities, rows, expiries, assignment, load, pair_expiry,
     deficit, search_budget, budget_floor, budget_per_row) = instance
    outcomes = []
    for side in ("repair", "reference"):
        state = [np.array(column, dtype=np.int64) for column in (assignment, load, pair_expiry)]
        caps = np.array(capacities, dtype=np.int64)
        if side == "repair":
            with mock.patch.object(repair, "_DISPLACEMENT_BUDGET_FLOOR", budget_floor), \
                    mock.patch.object(repair, "_DISPLACEMENT_BUDGET_PER_ROW", budget_per_row):
                done = repair_matching(
                    len(rows), num_boxes, ExplicitRows(rows, expiries), caps, *state,
                    deficit, search_budget,
                )
        else:
            done = repair_reference(
                num_boxes, rows, expiries, caps, *state, deficit, search_budget,
                budget_floor, budget_per_row,
            )
        outcomes.append((done, *(column.tolist() for column in state)))
    return outcomes


@given(instance=repair_instances())
@settings(max_examples=400, deadline=None)
def test_exact_searches_match_the_eagerly_indexed_reference(instance):
    """Indexing matched lefts on a box's first expansion and skipping rows
    already found without a free box change no search: the return value,
    assignment, load and pair expiries equal the reference's, including
    when the search or displacement budget runs out."""
    got, expected = run_both(instance)
    assert got == expected


def test_lefts_appended_before_the_first_expansion_come_last():
    """Box 0 (capacity 2) starts with left 5.  Left 0 takes box 0's second
    slot at its search's root; left 1, whose row is box 0 only, then
    expands box 0.  Box 0 lists left 5 before the appended left 0, so
    left 5 moves to box 1; an index sorted by the current assignment
    would list left 0 first and move it to box 2 instead."""
    rows = [[0, 2], [0], [], [], [], [1]]
    expiries = [[4, 5], [6], [], [], [], [7]]
    assignment = [-1, -1, -1, -1, -1, 0]
    instance = (
        3, [2, 1, 1], rows, expiries, assignment, [1, 0, 0], [0] * 6,
        [0, 1], None, 100_000, 16,
    )
    got, expected = run_both(instance)
    assert got == expected
    done, assignment, load, pair_expiry = got
    assert done
    assert assignment == [0, 0, -1, -1, -1, 1]
    assert load == [2, 1, 0]
    assert pair_expiry == [4, 6, 0, 0, 0, 7]


def test_a_row_found_without_a_free_box_still_counts_against_the_budget():
    """Boxes 0 to 4 hold one slot each; left 0 (row [0]) holds box 0, left
    1 (row [1, 2]) box 1 and left 2 (row [3, 4]) box 3.  Left 3's search
    discovers left 0, whose row has no free box, and left 1, who moves to
    box 2.  Left 4's search discovers left 0 again without testing it;
    with a budget of 3 that spends the last unit, so the search stops
    before it reaches left 2, who could move to box 4."""
    rows = [[0], [1, 2], [3, 4], [0, 1], [0, 3]]
    expiries = [[1], [2, 3], [4, 5], [6, 7], [8, 9]]
    instance = (
        5, [1] * 5, rows, expiries, [0, 1, 3, -1, -1], [1, 1, 0, 1, 0], [0] * 5,
        [3, 4], None, 3, 0,
    )
    got, expected = run_both(instance)
    assert got == expected
    done, assignment, load, pair_expiry = got
    assert not done
    assert assignment == [0, 2, 3, 1, -1]
    assert load == [1, 1, 1, 1, 0]
    assert pair_expiry == [0, 3, 0, 7, 0]


def test_a_dead_left_rediscovered_is_fetched_only_when_popped():
    """Boxes 0 to 4 hold one slot each; left 0 (row [0]) holds box 0, left
    1 (row [1, 2]) box 1 and left 2 box 3.  Left 3's search tests left 0's
    row, finds no free box in it, and moves left 1 to box 2.  Left 4's
    search (row [0, 3]) discovers left 0 again and queues it without
    reading its row.  With left 2's row [3, 4], the search moves left 2 to
    box 4 before it pops left 0, whose row is never read again.  With left
    2's row [3], the search pops left 0 and only then reads its row, as a
    list, and fails.  A row is tested on its array when its left is
    discovered and converted to a list only when its left is popped."""
    for row_2, lists_expected, done_expected, assignment_expected in (
        ([3, 4], [3, 4], True, [0, 2, 4, 1, 3]),
        ([3], [3, 4, 0, 2], False, [0, 2, 3, 1, -1]),
    ):
        rows = [[0], [1, 2], row_2, [0, 1], [0, 3]]
        expiries = [[1] * len(row) for row in rows]
        instance = (
            5, [1] * 5, rows, expiries, [0, 1, 3, -1, -1], [1, 1, 0, 1, 0], [0] * 5,
            [3, 4], None, 100_000, 16,
        )
        got, expected = run_both(instance)
        assert got == expected
        source = ExplicitRows(rows, expiries)
        assignment = np.array([0, 1, 3, -1, -1], dtype=np.int64)
        done = repair_matching(
            5, 5, source, np.ones(5, dtype=np.int64), assignment,
            np.array([1, 1, 0, 1, 0], dtype=np.int64), np.zeros(5, dtype=np.int64),
            [3, 4],
        )
        assert source.arrays == [3, 0, 1, 4, 2]
        assert source.lists == lists_expected
        assert done is done_expected
        assert assignment.tolist() == assignment_expected == got[1]
