"""Parameter grids.

Every experiment in EXPERIMENTS.md is a sweep over a grid of parameter
points; :func:`cartesian_grid` builds one from named axes.  The campaign
layer (:mod:`repro.orchestrate`) runs the sweeps the repository records.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Sequence

__all__ = ["cartesian_grid"]


def cartesian_grid(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named parameter axes as a list of dictionaries.

    >>> cartesian_grid(u=[1.5, 2.0], n=[10, 20])  # doctest: +NORMALIZE_WHITESPACE
    [{'u': 1.5, 'n': 10}, {'u': 1.5, 'n': 20},
     {'u': 2.0, 'n': 10}, {'u': 2.0, 'n': 20}]
    """
    if not axes:
        return [{}]
    names = list(axes)
    for name, values in axes.items():
        if len(values) == 0:
            raise ValueError(f"axis {name!r} has no values")
    combos = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]
