"""Maximum-flow substrate.

The paper reduces the per-round connection problem to a maximum-flow
computation on a bipartite network (Section 2.2–2.3).  Every solver here
reads one instance format, a CSR adjacency of requests to boxes plus the
boxes' capacities, and returns one result type
(:class:`HKMatchingResult`):

* the capacitated Hopcroft–Karp kernel the hot path uses
  (:func:`hopcroft_karp_matching`; its row entry
  :func:`repro.flow.hopcroft_karp.hopcroft_karp_rows` runs the same
  kernel on rows read on demand instead of a CSR);
* Dinic's max flow on the same network (:func:`dinic_matching`), the
  cold twin of that kernel; on an infeasible instance its Hall witness
  is the source side of a minimum cut;
* generalized-Hall-violation search, the exact Hall deficiency of a
  witness and expansion measurement, the objects appearing in Lemma 1
  and the expander argument.

The differential oracle (:mod:`repro.scenarios.oracle`) checks the
Hopcroft–Karp kernel against SciPy's compiled ``maximum_flow``.
"""

from repro.flow.hopcroft_karp import (
    HKMatchingResult,
    csr_from_edges,
    hopcroft_karp_matching,
)
from repro.flow.dinic import dinic_matching
from repro.flow.bipartite import (
    expansion_ratio,
    hall_deficiency,
    hall_violations,
    worst_expansion_subset,
)

__all__ = [
    "HKMatchingResult",
    "csr_from_edges",
    "hopcroft_karp_matching",
    "dinic_matching",
    "expansion_ratio",
    "hall_deficiency",
    "hall_violations",
    "worst_expansion_subset",
]
