"""Hall-style feasibility and expansion measurement.

The connection-matching problem of Section 2.2 is a bipartite *b-matching*:
every request (left node) must be matched with degree exactly 1, and every
box (right node) may be matched with degree at most ``⌊u_b·c⌋``.  The
kernels that solve it live in :mod:`repro.flow.hopcroft_karp` and
:mod:`repro.flow.dinic`; this module measures the instance side of
Lemma 1 and of the expander argument:

* :func:`hall_violations` — search for a violated (generalized) Hall
  condition, i.e. a request subset ``X`` with ``U_{B(X)} < |X|/c``;
  used to exhibit *obstruction witnesses*;
* :func:`hall_deficiency` — the exact deficiency ``|X| − U_{B(X)}`` of
  one request subset on a CSR instance, which certifies a matching
  maximum when it equals the number of unmatched requests;
* :func:`expansion_ratio` — measure the vertex expansion of the bipartite
  graph, the quantity the paper's probabilistic argument controls
  (the allocation graph must be a ``1/(u·c)``-expander).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "hall_violations",
    "hall_deficiency",
    "worst_expansion_subset",
    "expansion_ratio",
]


def hall_violations(
    neighbourhoods: Sequence[Set[int]],
    right_weights: Sequence[float],
    demand_per_left: float,
    max_subset_size: Optional[int] = None,
) -> List[Tuple[int, ...]]:
    """Exhaustively search for violated generalized Hall conditions.

    A subset ``X`` of left nodes is a violation when
    ``Σ_{b ∈ B(X)} w_b < |X| · demand_per_left`` where ``B(X)`` is the
    union of the neighbourhoods.  Exponential in the number of left nodes —
    intended for the small crafted instances used in tests and for
    extracting human-readable obstruction witnesses.
    """
    num_left = len(neighbourhoods)
    limit = num_left if max_subset_size is None else min(max_subset_size, num_left)
    weights = np.asarray(right_weights, dtype=np.float64)
    violations: List[Tuple[int, ...]] = []
    for size in range(1, limit + 1):
        for subset in combinations(range(num_left), size):
            neighbourhood: Set[int] = set()
            for left in subset:
                neighbourhood |= neighbourhoods[left]
            capacity = float(weights[list(neighbourhood)].sum()) if neighbourhood else 0.0
            if capacity + 1e-12 < size * demand_per_left:
                violations.append(subset)
    return violations


def hall_deficiency(
    witness: Sequence[int],
    indptr: Sequence[int],
    indices: Sequence[int],
    capacities: Sequence[int],
) -> int:
    """Hall deficiency ``|X| − U_{B(X)}`` of a left subset of a CSR instance.

    ``X`` is the set of left nodes in ``witness`` (repeats count once),
    ``B(X)`` the union of their adjacency rows and ``U_{B(X)}`` the summed
    capacity of those right nodes.  No matching serves more than
    ``U_{B(X)}`` of ``X``'s requests, so a positive value is a generalized
    Hall violation (Lemma 1), and a valid matching that leaves exactly
    this many left nodes unmatched is maximum.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    rows = np.unique(np.asarray(witness, dtype=np.int64))
    if rows.size and (rows[0] < 0 or rows[-1] >= indptr.size - 1):
        raise ValueError(f"witness holds left ids outside [0, {indptr.size - 1})")
    in_witness = np.zeros(indptr.size - 1, dtype=bool)
    in_witness[rows] = True
    edges_of_x = np.repeat(in_witness, np.diff(indptr))
    boxes = np.unique(np.asarray(indices, dtype=np.int64)[edges_of_x])
    return int(rows.size - np.asarray(capacities, dtype=np.int64)[boxes].sum())


def worst_expansion_subset(
    neighbourhoods: Sequence[Set[int]],
    max_subset_size: Optional[int] = None,
) -> Tuple[Tuple[int, ...], float]:
    """Find the left subset with the smallest ``|B(X)| / |X|`` ratio.

    Exhaustive (exponential) search; used on small instances to validate
    the expander claims and the Monte-Carlo estimator.
    Returns ``(subset, ratio)``; for an empty input returns ``((), inf)``.
    """
    num_left = len(neighbourhoods)
    if num_left == 0:
        return (), float("inf")
    limit = num_left if max_subset_size is None else min(max_subset_size, num_left)
    best_subset: Tuple[int, ...] = ()
    best_ratio = float("inf")
    for size in range(1, limit + 1):
        for subset in combinations(range(num_left), size):
            neighbourhood: Set[int] = set()
            for left in subset:
                neighbourhood |= neighbourhoods[left]
            ratio = len(neighbourhood) / size
            if ratio < best_ratio:
                best_ratio = ratio
                best_subset = subset
    return best_subset, best_ratio


def expansion_ratio(
    neighbourhoods: Sequence[Set[int]],
    subsets: Sequence[Sequence[int]],
) -> Dict[Tuple[int, ...], float]:
    """Expansion ``|B(X)|/|X|`` of each given subset ``X`` of left nodes."""
    result: Dict[Tuple[int, ...], float] = {}
    for subset in subsets:
        subset_t = tuple(subset)
        if not subset_t:
            raise ValueError("subsets must be non-empty")
        neighbourhood: Set[int] = set()
        for left in subset_t:
            neighbourhood |= neighbourhoods[left]
        result[subset_t] = len(neighbourhood) / len(subset_t)
    return result
