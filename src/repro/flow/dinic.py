"""Dinic's maximum-flow algorithm.

The in-house max-flow solver: the degraded-round fallback of the
Hopcroft–Karp path and the ``solver="dinic"`` cold twin.  On the unit-ish
bipartite networks produced by the connection-matching reduction Dinic
runs in ``O(E·√V)``.
"""

from __future__ import annotations

from collections import deque
from typing import List

from repro.flow.network import FlowNetwork

__all__ = ["dinic_max_flow"]

_INF = float("inf")


def _build_level_graph(
    network: FlowNetwork, source: int, sink: int, level: List[int]
) -> bool:
    """BFS from ``source`` over positive-residual edges; fill ``level``."""
    for i in range(len(level)):
        level[i] = -1
    level[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        node = queue.popleft()
        for edge_id in network.out_edges(node):
            target = network.edge_target(edge_id)
            if level[target] < 0 and network.residual(edge_id) > 0:
                level[target] = level[node] + 1
                queue.append(target)
    return level[sink] >= 0


def _send_blocking_flow(
    network: FlowNetwork,
    node: int,
    sink: int,
    pushed: int,
    level: List[int],
    next_edge: List[int],
) -> int:
    """DFS with edge pointers; returns the amount of flow pushed."""
    if node == sink:
        return pushed
    edges = network.out_edges(node)
    while next_edge[node] < len(edges):
        edge_id = edges[next_edge[node]]
        target = network.edge_target(edge_id)
        if level[target] == level[node] + 1 and network.residual(edge_id) > 0:
            amount = min(pushed, network.residual(edge_id))
            result = _send_blocking_flow(network, target, sink, amount, level, next_edge)
            if result > 0:
                network.push(edge_id, result)
                return result
        next_edge[node] += 1
    return 0


def dinic_max_flow(network: FlowNetwork, source: int, sink: int) -> int:
    """Compute the maximum ``source``→``sink`` flow in place (Dinic).

    The network's flow state is updated; returns the max-flow value.
    """
    if not 0 <= source < network.num_nodes:
        raise ValueError(f"source {source} out of range")
    if not 0 <= sink < network.num_nodes:
        raise ValueError(f"sink {sink} out of range")
    if source == sink:
        raise ValueError("source and sink must differ")

    total_flow = 0
    level = [-1] * network.num_nodes
    infinity = _int_infinity(network)
    # Iterative deepening over level graphs.
    while _build_level_graph(network, source, sink, level):
        next_edge = [0] * network.num_nodes
        while True:
            pushed = _send_blocking_flow(
                network, source, sink, infinity, level, next_edge
            )
            if pushed == 0:
                break
            total_flow += pushed
    return total_flow


def _int_infinity(network: FlowNetwork) -> int:
    """A finite "infinite" bound: more than any possible flow in the network."""
    total = 1
    for edge in network.forward_edges():
        total += edge.capacity
    return total
