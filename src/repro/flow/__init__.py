"""Maximum-flow substrate.

The paper reduces the per-round connection problem to a maximum-flow
computation on a bipartite network (Section 2.2–2.3).  This subpackage
implements that substrate from scratch:

* :class:`repro.flow.network.FlowNetwork` — array-backed residual network
  with exact integer capacities;
* the Dinic max-flow solver, the degraded-round fallback and cold twin of
  the Hopcroft–Karp kernel, checked against networkx and SciPy in the
  test suite;
* residual reachability (the source side of a minimum cut), which yields
  Dinic's Hall witness;
* bipartite b-matching, generalized-Hall-violation search, the exact Hall
  deficiency of a witness and expansion measurement, the objects
  appearing in Lemma 1 and the expander argument.

The differential oracle (:mod:`repro.scenarios.oracle`) checks the
Hopcroft–Karp kernel against SciPy's compiled ``maximum_flow``.
"""

from repro.flow.network import Edge, FlowNetwork, build_bipartite_network
from repro.flow.dinic import dinic_max_flow
from repro.flow.hopcroft_karp import (
    HKMatchingResult,
    csr_from_edges,
    hopcroft_karp_matching,
)
from repro.flow.mincut import residual_reachable
from repro.flow.bipartite import (
    BMatchingResult,
    expansion_ratio,
    hall_deficiency,
    hall_violations,
    solve_b_matching,
    worst_expansion_subset,
)

__all__ = [
    "Edge",
    "FlowNetwork",
    "build_bipartite_network",
    "dinic_max_flow",
    "HKMatchingResult",
    "csr_from_edges",
    "hopcroft_karp_matching",
    "residual_reachable",
    "BMatchingResult",
    "expansion_ratio",
    "hall_deficiency",
    "hall_violations",
    "solve_b_matching",
    "worst_expansion_subset",
]
