"""Round state that stops growing with the horizon.

The swarm registry and the churn schedule are read only over a window of
rounds, so a session's memory and its snapshot must not grow with every
round it steps.  The pin steps a scenario past six swarm durations ``T``
and compares the state at rounds ``3T`` and ``6T``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario


def _registry_state_outside_the_window(registry) -> bytes:
    """The registry's pickled state without its violation count and window counts."""
    state = dict(vars(registry))
    del state["_violation_count"], state["_counts"]
    return pickle.dumps(state)


@pytest.mark.parametrize("name", ["steady_state", "churn_storm"])
def test_round_state_stops_growing_between_3T_and_6T(name):
    spec = get_scenario(name)
    duration = spec.catalog.duration
    num_videos = spec.catalog.num_videos
    session = build_scenario(spec.with_overrides(horizon=6 * duration + 1)).session()
    registry = session.engine.swarms

    outside = []
    for rounds in (3 * duration, 6 * duration):
        session.step_until(round=rounds)
        # At most T + 1 rounds of counts, none longer than the catalog, and
        # one live size per video.
        assert len(registry._counts) <= duration + 1
        assert all(videos.size <= num_videos for videos, _ in registry._counts.values())
        assert registry._sizes.size <= num_videos
        outside.append(len(_registry_state_outside_the_window(registry)))
    assert outside[1] <= outside[0]

    churn = session.engine._churn
    if churn is not None:
        assert len(churn) > 0
        columns = [value for value in vars(churn).values() if isinstance(value, np.ndarray)]
        assert len(columns) >= 3
        assert all(column.dtype == np.int64 for column in columns)
        assert b"Outage" not in pickle.dumps(churn)
