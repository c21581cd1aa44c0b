"""Active-request bookkeeping for the per-round connection scheduler.

The engine re-wires connections every round over the set ``Y`` of *active*
stripe requests (Section 2.2): a request stays active from the round it is
issued until its stripe playback completes ``T`` rounds later.  The pool
below tracks activation, first-service rounds (used to measure start-up
delays) and expiry, and produces the :class:`~repro.core.matching.RequestSet`
handed to the matcher each round.

The pool's state is struct-of-arrays: one NumPy column per request field
(stripe, issue time, box, preload flag, first-service round, demand index,
warm-start assignment), kept in activation order.  Everything the engine
does per round — expiry, warm-start extraction, assignment write-back,
playback detection — is a whole-array operation; the object records
(:class:`ActiveRequest`) are materialized views for tests and external
inspection, not the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.matching import ArrayRequestSet, RequestSet, StripeRequest
from repro.util.soa import ensure_column_capacity
from repro.util.validation import check_non_negative_integer, check_positive_integer

__all__ = ["ActiveRequest", "ActiveRequestPool"]


@dataclass
class ActiveRequest:
    """A stripe request together with its service state.

    A materialized *view* of one pool row: reading is always consistent
    with the pool at materialization time, but mutations do not write back
    (the engine mutates through the pool's array operations).
    """

    request: StripeRequest
    #: Round at which the request was first served by the matching
    #: (``None`` while it has never been matched).
    first_matched_round: Optional[int] = None
    #: Identifier of the demand that generated the request (index into the
    #: engine's demand log), used to detect playback starts.
    demand_index: Optional[int] = None
    #: Box that served the request in the previous round's matching
    #: (``-1`` = unmatched); seeds the warm-started incremental rematch.
    assigned_box: int = -1

    @property
    def is_served(self) -> bool:
        """Whether the request has been matched at least once."""
        return self.first_matched_round is not None


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
        self._preload = np.empty(capacity, dtype=bool)
        self._first = np.empty(capacity, dtype=np.int64)
        self._demand = np.empty(capacity, dtype=np.int64)
        self._assigned = np.empty(capacity, dtype=np.int64)
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

    # ------------------------------------------------------------------ #
    # Object views (tests, external inspection)
    # ------------------------------------------------------------------ #
    def _record(self, index: int) -> ActiveRequest:
        first = int(self._first[index])
        demand = int(self._demand[index])
        return ActiveRequest(
            request=StripeRequest(
                stripe_id=int(self._stripe[index]),
                request_time=int(self._rtime[index]),
                box_id=int(self._box[index]),
                is_preload=bool(self._preload[index]),
            ),
            first_matched_round=None if first < 0 else first,
            demand_index=None if demand < 0 else demand,
            assigned_box=int(self._assigned[index]),
        )

    @property
    def active(self) -> List[ActiveRequest]:
        """The currently active requests, materialized in activation order."""
        return [self._record(i) for i in range(self._size)]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    _COLUMNS = ("_stripe", "_rtime", "_box", "_preload", "_first", "_demand", "_assigned")

    def _ensure_capacity(self, extra: int) -> None:
        ensure_column_capacity(self, self._COLUMNS, self._size, self._size + extra)

    def add(self, request: StripeRequest, demand_index: Optional[int] = None) -> ActiveRequest:
        """Activate a request."""
        self._ensure_capacity(1)
        i = self._size
        self._stripe[i] = request.stripe_id
        self._rtime[i] = request.request_time
        self._box[i] = request.box_id
        self._preload[i] = request.is_preload
        self._first[i] = -1
        self._demand[i] = -1 if demand_index is None else int(demand_index)
        self._assigned[i] = -1
        self._size += 1
        return self._record(i)

    def extend_from_arrays(
        self,
        stripe_ids: np.ndarray,
        request_time: int,
        box_ids: np.ndarray,
        demand_indices: np.ndarray,
        is_preload: Union[bool, np.ndarray],
    ) -> None:
        """Activate a block of requests sharing one issue round (hot path).

        ``is_preload`` is one flag for the whole block or one per request.
        """
        count = int(stripe_ids.size)
        if count == 0:
            return
        self._ensure_capacity(count)
        lo, hi = self._size, self._size + count
        self._stripe[lo:hi] = stripe_ids
        self._rtime[lo:hi] = request_time
        self._box[lo:hi] = box_ids
        self._preload[lo:hi] = is_preload
        self._first[lo:hi] = -1
        self._demand[lo:hi] = demand_indices
        self._assigned[lo:hi] = -1
        self._size = hi

    def drop_expired(self, current_time: int) -> int:
        """Remove expired requests without materializing them; returns the count."""
        check_non_negative_integer(current_time, "current_time")
        removed_mask = self._expired_mask(current_time)
        if removed_mask is None:
            return 0
        return self._compact_expired(removed_mask)

    def drop_expired_keeping(self, current_time: int) -> Optional[np.ndarray]:
        """Like :meth:`drop_expired`, but returns the keep mask.

        ``None`` means no request expired; otherwise the boolean mask (over
        the pre-drop rows) of the survivors, in order — the delta feed of
        the incremental matcher.
        """
        check_non_negative_integer(current_time, "current_time")
        removed_mask = self._expired_mask(current_time)
        if removed_mask is None:
            return None
        keep = ~removed_mask
        self._compact_expired(removed_mask)
        return keep

    def _expired_mask(self, current_time: int) -> Optional[np.ndarray]:
        """Mask of expired rows, or ``None`` when nothing expires."""
        n = self._size
        if n == 0:
            return None
        first = self._first[:n]
        anchor = np.where(first >= 0, first, self._rtime[:n])
        removed_mask = current_time - anchor >= self._duration
        return removed_mask if removed_mask.any() else None

    def _compact_expired(self, removed_mask: np.ndarray) -> int:
        """Drop the masked rows (updating the unserved count); returns the count."""
        n = self._size
        self._expired_unserved += int(
            (removed_mask & (self._first[:n] < 0)).sum()
        )
        keep = ~removed_mask
        kept = int(keep.sum())
        for name in self._COLUMNS:
            arr = getattr(self, name)
            arr[:kept] = arr[:n][keep]
        self._size = kept
        return n - kept

    def request_set(self) -> RequestSet:
        """The multiset ``Y`` of active requests, in activation order.

        The returned :class:`ArrayRequestSet` owns copies of the field
        columns, so it stays valid after the pool mutates (observers hold
        on to it across rounds).
        """
        n = self._size
        return ArrayRequestSet(
            stripe_ids=self._stripe[:n].copy(),
            request_times=self._rtime[:n].copy(),
            box_ids=self._box[:n].copy(),
            preload_flags=self._preload[:n].copy(),
        )

    def mark_matched(self, indices: List[int], time: int) -> None:
        """Record that the requests at ``indices`` (into the active list) were served at ``time``."""
        check_non_negative_integer(time, "time")
        first = self._first[: self._size]
        for idx in indices:
            if first[idx] < 0:
                first[idx] = time

    def apply_matching(self, assignment: np.ndarray, time: int) -> None:
        """Adopt one round's matching: warm-start column + first-service rounds."""
        check_non_negative_integer(time, "time")
        n = self._size
        if assignment.shape != (n,):
            raise ValueError("assignment must have one entry per active request")
        self._assigned[:n] = assignment
        first = self._first[:n]
        newly = (first < 0) & (assignment >= 0)
        first[newly] = time

    def expire(self, current_time: int) -> List[ActiveRequest]:
        """Remove and return the requests whose playback window has elapsed."""
        check_non_negative_integer(current_time, "current_time")
        removed_mask = self._expired_mask(current_time)
        if removed_mask is None:
            return []
        removed = [self._record(int(i)) for i in np.flatnonzero(removed_mask)]
        self._compact_expired(removed_mask)
        return removed

    def by_demand(self) -> Dict[int, List[ActiveRequest]]:
        """Group active requests by the demand that generated them."""
        groups: Dict[int, List[ActiveRequest]] = {}
        for i in range(self._size):
            if self._demand[i] >= 0:
                groups.setdefault(int(self._demand[i]), []).append(self._record(i))
        return groups
