"""Active-request bookkeeping for the per-round connection scheduler.

The engine re-wires connections every round over the set ``Y`` of *active*
stripe requests (Section 2.2): a request stays active from the round it is
issued until its stripe playback completes ``T`` rounds later.  The pool
below tracks activation, first-service rounds (used to measure start-up
delays) and expiry, and produces the :class:`~repro.core.matching.RequestSet`
handed to the matcher each round.

The pool's state is struct-of-arrays: one NumPy column per request field
(stripe, issue time, box, first-service round, demand index, warm-start
assignment), kept in activation order, plus the last matching's pair
expiries, one per request it matched over (the incremental repair's
input).  The pool is the one owner of this per-request round state: the
matcher keeps none.  Its only writers are the engine's three whole-array
steps of a round: :meth:`~ActiveRequestPool.drop_expired_keeping`
expires requests, :meth:`~ActiveRequestPool.extend_from_arrays`
activates the round's new ones and
:meth:`~ActiveRequestPool.apply_matching` adopts its matching; the
full-solve twin also drops the pair expiries after every round
(:meth:`~ActiveRequestPool.forget_expiries`).  A pickled pool holds its
live rows only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.requests import RequestSet
from repro.util.soa import ensure_column_capacity, live_column_state
from repro.util.validation import check_non_negative_integer, check_positive_integer

__all__ = ["ActiveRequestPool"]


class ActiveRequestPool:
    """The set of currently active stripe requests (struct-of-arrays).

    Parameters
    ----------
    duration:
        Video duration ``T``: a request expires ``T`` rounds after it first
        gets served (or after it was issued, when it was never served).
    """

    def __init__(self, duration: int):
        self._duration = check_positive_integer(duration, "duration")
        capacity = 64
        self._stripe = np.empty(capacity, dtype=np.int64)
        self._rtime = np.empty(capacity, dtype=np.int64)
        self._box = np.empty(capacity, dtype=np.int64)
        self._first = np.empty(capacity, dtype=np.int64)
        self._demand = np.empty(capacity, dtype=np.int64)
        self._assigned = np.empty(capacity, dtype=np.int64)
        # The last matching's pair expiries, exactly one per request it
        # matched over (the first rows), or ``None`` when it kept none.
        self._expiry: Optional[np.ndarray] = None
        self._size = 0
        self._expired_unserved = 0

    @property
    def duration(self) -> int:
        """Video duration ``T`` used for expiry."""
        return self._duration

    @property
    def expired_unserved(self) -> int:
        """Requests that expired without ever being served."""
        return self._expired_unserved

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # Array views (the engine's hot path; read-only by convention)
    # ------------------------------------------------------------------ #
    @property
    def stripe_ids(self) -> np.ndarray:
        """Per-request stripe identifiers, in activation order."""
        return self._stripe[: self._size]

    @property
    def request_times(self) -> np.ndarray:
        """Per-request issue rounds, in activation order."""
        return self._rtime[: self._size]

    @property
    def box_ids(self) -> np.ndarray:
        """Per-request requesting boxes, in activation order."""
        return self._box[: self._size]

    @property
    def first_matched(self) -> np.ndarray:
        """Per-request first-service round (``-1`` = never served)."""
        return self._first[: self._size]

    @property
    def demand_indices(self) -> np.ndarray:
        """Per-request generating-demand index (``-1`` = none)."""
        return self._demand[: self._size]

    @property
    def assigned_boxes(self) -> np.ndarray:
        """Per-request previous-round server (``-1`` = unmatched)."""
        return self._assigned[: self._size]

    def assigned_snapshot(self) -> np.ndarray:
        """A copy of the warm-start assignment column (safe to hand out)."""
        return self._assigned[: self._size].copy()

    @property
    def pair_expiry(self) -> Optional[np.ndarray]:
        """Per-request last round of its warm-start pair (a new array).

        The rows activated since the last matching read ``-1``.  ``None``
        when that matching kept no pair expiries.
        """
        expiry = self._expiry
        if expiry is None:
            return None
        return np.concatenate(
            (expiry, np.full(self._size - expiry.size, -1, dtype=np.int64))
        )

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    _COLUMNS = ("_stripe", "_rtime", "_box", "_first", "_demand", "_assigned")

    def extend_from_arrays(
        self,
        stripe_ids: np.ndarray,
        request_time: int,
        box_ids: np.ndarray,
        demand_indices: np.ndarray,
    ) -> None:
        """Activate a block of requests sharing one issue round (hot path)."""
        count = int(stripe_ids.size)
        if count == 0:
            return
        ensure_column_capacity(self, self._COLUMNS, self._size, self._size + count)
        lo, hi = self._size, self._size + count
        self._stripe[lo:hi] = stripe_ids
        self._rtime[lo:hi] = request_time
        self._box[lo:hi] = box_ids
        self._first[lo:hi] = -1
        self._demand[lo:hi] = demand_indices
        self._assigned[lo:hi] = -1
        self._size = hi

    def drop_expired_keeping(self, current_time: int) -> None:
        """Remove the requests whose playback window has elapsed.

        The survivors keep their order, and their pair expiries.
        """
        check_non_negative_integer(current_time, "current_time")
        n = self._size
        if n == 0:
            return
        first = self._first[:n]
        anchor = np.where(first >= 0, first, self._rtime[:n])
        removed_mask = current_time - anchor >= self._duration
        if not removed_mask.any():
            return
        self._expired_unserved += int((removed_mask & (first < 0)).sum())
        keep = ~removed_mask
        kept = int(keep.sum())
        for name in self._COLUMNS:
            arr = getattr(self, name)
            arr[:kept] = arr[:n][keep]
        if self._expiry is not None:
            self._expiry = self._expiry[keep[: self._expiry.size]]
        self._size = kept

    def request_set(self) -> RequestSet:
        """The multiset ``Y`` of active requests, in activation order.

        The returned set owns copies of the field columns, so it stays
        valid after the pool mutates (observers hold on to it across
        rounds).
        """
        n = self._size
        return RequestSet(
            stripe_ids=self._stripe[:n].copy(),
            request_times=self._rtime[:n].copy(),
            box_ids=self._box[:n].copy(),
        )

    def apply_matching(
        self,
        assignment: np.ndarray,
        time: int,
        pair_expiry: Optional[np.ndarray] = None,
    ) -> None:
        """Adopt one round's matching: warm-start column, first-service
        rounds and its pair expiries (``None`` when it kept none)."""
        check_non_negative_integer(time, "time")
        n = self._size
        if assignment.shape != (n,):
            raise ValueError("assignment must have one entry per active request")
        if pair_expiry is not None and pair_expiry.shape != (n,):
            raise ValueError("pair_expiry must have one entry per active request")
        self._expiry = pair_expiry
        self._assigned[:n] = assignment
        first = self._first[:n]
        newly = (first < 0) & (assignment >= 0)
        first[newly] = time

    def forget_expiries(self) -> None:
        """Drop the last matching's pair expiries: the next has nothing to repair."""
        self._expiry = None

    def __getstate__(self):
        return live_column_state(self, self._COLUMNS, self._size)
