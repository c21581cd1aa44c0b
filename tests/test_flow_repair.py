"""Tests for the incremental repair's pair retirement (repro.flow.repair)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.repair import _retire_pairs


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
