"""Bipartite b-matchings, Hall-style feasibility and expansion measurement.

The connection-matching problem of Section 2.2 is a bipartite *b-matching*:
every request (left node) must be matched with degree exactly 1, and every
box (right node) may be matched with degree at most ``⌊u_b·c⌋``.  This
module provides:

* :func:`solve_b_matching` — solve the b-matching through max flow and
  return the request→box assignment;
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

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.flow.dinic import dinic_max_flow
from repro.flow.hopcroft_karp import csr_from_edges, hopcroft_karp_matching
from repro.flow.mincut import residual_reachable
from repro.flow.network import build_bipartite_network

__all__ = [
    "BMatchingResult",
    "solve_b_matching",
    "hall_violations",
    "hall_deficiency",
    "worst_expansion_subset",
    "expansion_ratio",
]


@dataclass(frozen=True)
class BMatchingResult:
    """Result of a bipartite b-matching computation.

    Attributes
    ----------
    feasible:
        Whether every left node was matched (flow value == number of left
        nodes weighted by their demand).
    assignment:
        ``assignment[i]`` is the right node serving left node ``i`` or
        ``-1`` if the instance is infeasible and ``i`` was left unmatched.
    matched:
        Total matched demand (the max-flow value).
    deficient_left:
        Left nodes that could not be fully served (empty when feasible).
    unsatisfied_witness:
        When infeasible, a set of left nodes whose neighbourhood violates
        the generalized Hall condition (extracted from the min cut);
        ``None`` when feasible.
    """

    feasible: bool
    assignment: np.ndarray
    matched: int
    deficient_left: Tuple[int, ...]
    unsatisfied_witness: Optional[Tuple[int, ...]]


def solve_b_matching(
    num_left: int,
    num_right: int,
    edges: Sequence[Tuple[int, int]],
    right_capacities: Sequence[int],
    left_demands: Optional[Sequence[int]] = None,
    method: str = "auto",
) -> BMatchingResult:
    """Solve a bipartite b-matching (left demands vs right capacities).

    Parameters
    ----------
    num_left, num_right:
        Sizes of the two sides.
    edges:
        Admissible (left, right) pairs.
    right_capacities:
        Maximum degree of each right node (``⌊u_b·c⌋`` for boxes).
    left_demands:
        Required degree of each left node; defaults to 1 for every node
        (each stripe request needs exactly one server).
    method:
        ``"auto"`` (default) uses the Hopcroft–Karp kernel when every left
        demand is 1 and falls back to the Dinic max-flow reduction
        otherwise; ``"hopcroft_karp"`` and ``"dinic"`` force one path
        (the Dinic reduction doubles as the cold twin in cross-validation
        tests).
    """
    demands = [1] * num_left if left_demands is None else [int(x) for x in left_demands]
    if len(demands) != num_left:
        raise ValueError("left_demands length must equal num_left")
    caps = [int(x) for x in right_capacities]
    if len(caps) != num_right:
        raise ValueError("right_capacities length must equal num_right")

    unit_demand = all(x == 1 for x in demands)
    if method == "auto":
        method = "hopcroft_karp" if unit_demand else "dinic"
    if method == "hopcroft_karp":
        if not unit_demand:
            raise ValueError(
                "method='hopcroft_karp' requires unit left demands; "
                "use method='dinic' (or 'auto') for general demands"
            )
        indptr, indices = csr_from_edges(num_left, num_right, edges)
        hk = hopcroft_karp_matching(num_left, num_right, indptr, indices, caps)
        return BMatchingResult(
            feasible=hk.feasible,
            assignment=hk.assignment,
            matched=hk.matched,
            deficient_left=hk.deficient_left,
            unsatisfied_witness=hk.unsatisfied_witness,
        )
    if method != "dinic":
        raise ValueError(f"unknown b-matching method {method!r}")

    network, source, sink = build_bipartite_network(
        num_left=num_left,
        num_right=num_right,
        edges=list(edges),
        left_capacities=demands,
        right_capacities=caps,
        edge_capacity=max(demands) if demands else 1,
    )
    matched = dinic_max_flow(network, source, sink)
    demand_total = sum(demands)
    feasible = matched == demand_total

    assignment = np.full(num_left, -1, dtype=np.int64)
    # Forward edges were added in order: source->left (num_left of them),
    # right->sink (num_right), then the left->right edges.
    edge_offset = 2 * (num_left + num_right)
    for idx, (left, right) in enumerate(edges):
        edge_id = edge_offset + 2 * idx
        if network.flow_on(edge_id) > 0:
            assignment[left] = right

    deficient: List[int] = []
    for left in range(num_left):
        # Left node is deficient when its source edge is not saturated.
        source_edge = 2 * left
        if network.flow_on(source_edge) < demands[left]:
            deficient.append(left)

    witness: Optional[Tuple[int, ...]] = None
    if not feasible:
        # The left nodes on the source side of the min cut form a Hall
        # violation witness (their joint neighbourhood is too small).
        reachable = residual_reachable(network, source)
        witness = tuple(
            left for left in range(num_left) if (1 + left) in reachable
        )
    return BMatchingResult(
        feasible=feasible,
        assignment=assignment,
        matched=matched,
        deficient_left=tuple(deficient),
        unsatisfied_witness=witness,
    )


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
