"""Residual reachability: the source side of a minimum cut.

After a max flow has been computed the source side of a minimum cut is the
set of nodes reachable from the source in the residual graph.  The paper's
Lemma 1 is exactly the statement that the connection-matching network has
min cut ``|Y|/c``; on an infeasible instance the request nodes on that side
form the Hall witness that :func:`repro.flow.bipartite.solve_b_matching`
returns for its Dinic path.
"""

from __future__ import annotations

from collections import deque
from typing import Set

from repro.flow.network import FlowNetwork

__all__ = ["residual_reachable"]


def residual_reachable(network: FlowNetwork, source: int) -> Set[int]:
    """Nodes reachable from ``source`` through positive-residual edges."""
    if not 0 <= source < network.num_nodes:
        raise ValueError(f"source {source} out of range")
    seen: Set[int] = {source}
    queue: deque[int] = deque([source])
    while queue:
        node = queue.popleft()
        for edge_id in network.out_edges(node):
            target = network.edge_target(edge_id)
            if target not in seen and network.residual(edge_id) > 0:
                seen.add(target)
                queue.append(target)
    return seen
