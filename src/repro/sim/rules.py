"""Pure per-round admission and playback rules of the round engine.

:class:`~repro.sim.engine.VodSimulator` applies these rules over its
struct-of-arrays state.  They are kept as pure array functions with no
engine state, so each can be tested and timed on its own; both only ever
look at one box's (or one demand's) own columns.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.util.soa import stable_argsort

__all__ = ["admission_mask", "detect_playback_starts"]


def admission_mask(
    busy_until: np.ndarray, box_ids: np.ndarray, time: int
) -> np.ndarray:
    """Boolean accept mask over one round's demand arrivals, in order.

    Implements the engine's admission rule on arrays: a demand is
    rejected when its box is still playing (``busy_until > time``), and
    only each box's *first* demand of the round is kept — accepting one
    makes the box busy, so a sequential admission loop would reject the
    rest.  The rule depends only on the demanding box's own state.
    """
    n = int(box_ids.size)
    accept = busy_until[box_ids] <= time
    if accept.any() and n > 1:
        order = stable_argsort(box_ids)
        sorted_boxes = box_ids[order]
        dup_sorted = np.empty(n, dtype=bool)
        dup_sorted[0] = False
        np.equal(sorted_boxes[1:], sorted_boxes[:-1], out=dup_sorted[1:])
        if dup_sorted.any():
            duplicate = np.empty(n, dtype=bool)
            duplicate[order] = dup_sorted
            accept &= ~duplicate
    return accept


def detect_playback_starts(
    pool_demand_indices: np.ndarray,
    pool_first_matched: np.ndarray,
    demand_count: int,
    demand_time: np.ndarray,
    demand_started: np.ndarray,
    expected_stripes: int,
    time: int,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Find the demands whose playback starts as of round ``time``.

    A demand's playback starts once all ``expected_stripes`` of its
    stripe requests have been served at least once and the playback round
    (one past the last first-service round) has been reached.  Marks the
    started demands in ``demand_started`` (in place) and returns
    ``(demand_indices, playback_rounds, startup_delays)`` — or ``None``
    when nothing starts.  Indices are into the caller's demand log.
    """
    if not pool_demand_indices.size or not demand_count:
        return None
    served = (pool_demand_indices >= 0) & (pool_first_matched >= 0)
    if not served.any():
        return None
    d = pool_demand_indices[served]
    # Pool entries expire after ``duration`` rounds, so the demand
    # indices present span a short window — bincount over that window
    # instead of the whole (ever-growing) demand log.
    lo = int(d.min())
    d = d - lo
    width = demand_count - lo
    counts = np.bincount(d, minlength=width)
    last_first = np.full(width, -1, dtype=np.int64)
    np.maximum.at(last_first, d, pool_first_matched[served])
    started = demand_started[lo:demand_count]
    # All stripes served, playback round reached, not yet started.
    ready = (counts >= expected_stripes) & (last_first + 1 <= time + 1) & ~started
    ready_idx = np.flatnonzero(ready)
    if not ready_idx.size:
        return None
    started[ready_idx] = True
    playback_rounds = last_first[ready_idx] + 1
    delays = playback_rounds - demand_time[lo + ready_idx] + 1
    return lo + ready_idx, playback_rounds, delays
