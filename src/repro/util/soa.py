"""Struct-of-arrays buffer helpers.

The vectorized engine core keeps its hot-path state as parallel NumPy
columns with amortized doubling growth (request pool, demand log).
:func:`ensure_column_capacity` is the one shared growth routine: every
column keeps its dtype, the live prefix is preserved, and capacity at
least doubles so appends stay O(1) amortized; :func:`live_column_state`
pickles only the live prefix.  :func:`stable_argsort` is the one order
that groups a column's equal ids (boxes, videos, stripes, right nodes)
with each group in arrival order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["ensure_column_capacity", "live_column_state", "stable_argsort"]


def ensure_column_capacity(owner, names: Sequence[str], live: int, needed: int) -> None:
    """Grow the array attributes ``names`` of ``owner`` to hold ``needed``.

    No-op while the current capacity suffices; otherwise every column is
    reallocated to ``max(needed, 2 * capacity)`` entries of its own dtype
    with the first ``live`` entries copied over.
    """
    capacity = getattr(owner, names[0]).size
    if needed <= capacity:
        return
    new_capacity = max(needed, 2 * capacity)
    for name in names:
        old = getattr(owner, name)
        new = np.empty(new_capacity, dtype=old.dtype)
        new[:live] = old[:live]
        setattr(owner, name, new)


def live_column_state(owner, names: Sequence[str], live: int) -> dict:
    """``owner``'s attributes with the columns ``names`` cut to ``live`` entries.

    The ``__getstate__`` of a column owner: the slack past the live prefix
    is not pickled.  Loading needs nothing more, since
    :func:`ensure_column_capacity` grows a column whose capacity equals its
    live count, zero included.
    """
    state = vars(owner).copy()
    for name in names:
        state[name] = state[name][:live]
    return state


def stable_argsort(ids: np.ndarray) -> np.ndarray:
    """``np.argsort(ids, kind="stable")``, through composite keys.

    Each entry becomes the int64 key ``(id << 32) | position``.  The keys
    are distinct, so the plain ``np.sort`` of them, which is much faster
    than a stable argsort, orders equal ids by position: their low 32
    bits are the stable argsort.  Inputs a key cannot hold (a negative
    id, an id of ``2**31`` or more, ``2**32`` entries or more) take the
    stable argsort itself.
    """
    n = ids.size
    if not n or n >= 1 << 32 or int(ids.min()) < 0 or int(ids.max()) >= 1 << 31:
        return np.argsort(ids, kind="stable")
    keys = ids.astype(np.int64) << 32
    keys |= np.arange(n, dtype=np.int64)
    keys.sort()
    keys &= 0xFFFFFFFF
    return keys
