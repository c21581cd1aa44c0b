"""The round's request multiset ``Y`` (Section 2.2) and its change.

:class:`RequestSet` holds the stripe requests not yet wired as columns;
:class:`MatchDelta` tells the matcher how they changed since the previous
round, so it can repair its previous matching instead of re-solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["RequestSet", "MatchDelta"]


class RequestSet:
    """The multiset ``Y`` of stripe requests ``(s_i, t_i, b_i)`` of one round.

    Three parallel int64 columns: request ``i`` is for stripe
    ``stripe_id_array[i]``, issued at round ``request_time_array[i]`` by
    box ``box_id_array[i]``.  The columns are shared with the caller (the
    engine's request pool hands over copies), so they are read-only by
    convention.  A negative stripe id, round or box, or columns of unequal
    shape, raise ``ValueError``.
    """

    def __init__(self, stripe_ids, request_times, box_ids):
        self._stripes = np.asarray(stripe_ids, dtype=np.int64)
        self._times = np.asarray(request_times, dtype=np.int64)
        self._boxes = np.asarray(box_ids, dtype=np.int64)
        if not self._stripes.shape == self._times.shape == self._boxes.shape:
            raise ValueError("request columns must have identical shapes")
        for name, column in (
            ("stripe_id", self._stripes),
            ("request_time", self._times),
            ("box_id", self._boxes),
        ):
            if column.size and int(column.min()) < 0:
                raise ValueError(
                    f"{name} must be a non-negative integer, got {int(column.min())}"
                )

    @property
    def stripe_id_array(self) -> np.ndarray:
        """Per-request stripe identifiers."""
        return self._stripes

    @property
    def request_time_array(self) -> np.ndarray:
        """Per-request issue rounds."""
        return self._times

    @property
    def box_id_array(self) -> np.ndarray:
        """Per-request requesting boxes."""
        return self._boxes

    def __len__(self) -> int:
        return int(self._stripes.size)


@dataclass(frozen=True)
class MatchDelta:
    """The inter-round change of the active request multiset.

    Produced by the engine each round and handed to
    :meth:`repro.core.matching.ConnectionMatcher.match`: the new request
    set equals the previous one filtered by ``keep_mask`` (order
    preserved) followed by ``num_new`` appended arrivals.  ``keep_mask``
    is ``None`` when no request expired.  Capacity changes (churn, faults,
    joins) need no explicit feed — the matcher compares its own load
    bookkeeping against the capacities of the current round.
    """

    #: Boolean mask over the *previous* round's requests (``None`` = all kept).
    keep_mask: Optional[np.ndarray]
    #: Number of requests appended after the survivors.
    num_new: int
