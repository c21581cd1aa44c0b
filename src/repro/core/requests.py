"""The round's request multiset ``Y`` (Section 2.2).

:class:`RequestSet` holds the stripe requests not yet wired as columns.
What the previous round's matching left to repair (its assignment and
pair expiries) lives with the requests in the engine's pool,
:class:`repro.sim.scheduler.ActiveRequestPool`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RequestSet"]


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

