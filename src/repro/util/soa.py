"""Struct-of-arrays buffer helpers.

The vectorized engine core keeps its hot-path state as parallel NumPy
columns with amortized doubling growth (request pool, demand log).
:func:`ensure_column_capacity` is the one shared growth routine: every
column keeps its dtype, the live prefix is preserved, and capacity at
least doubles so appends stay O(1) amortized.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["ensure_column_capacity"]


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
