"""Dinic's maximum flow on the requests→boxes network of a CSR round.

The in-house max-flow solver: the degraded-round fallback of the
Hopcroft–Karp path and the ``solver="dinic"`` cold twin.  Lemma 1 makes a
round's connection matching the maximum flow of a unit-demand network:
source→request edges of capacity 1, request→box edges of capacity 1 and
box→sink edges of the box's capacity.  :func:`dinic_matching` builds that
residual network from the CSR adjacency with NumPy and solves it by
Dinic's BFS levels and blocking flows, in ``O(E·√V)`` on these unit
networks.  Its result type and input checks are the Hopcroft–Karp
kernel's, so the two kernels read one instance format.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.flow.hopcroft_karp import HKMatchingResult, _check_csr

__all__ = ["dinic_matching"]


def dinic_matching(
    num_left: int,
    num_right: int,
    indptr: Sequence[int],
    indices: Sequence[int],
    right_capacities: Sequence[int],
) -> HKMatchingResult:
    """Maximum unit-demand b-matching of a CSR instance, by Dinic's max flow.

    Nodes are ``[source, left_0..left_{L-1}, right_0..right_{R-1}, sink]``.
    Forward edges take the even ids, in this order: source→left (capacity
    1) in left order, right→sink (the right node's capacity) in right
    order, then left→right (capacity 1) in CSR order; each edge's residual
    reverse sits at ``id ^ 1``, and every node scans its edges in id
    order.  Every augmenting path starts on a source edge of capacity 1,
    so each carries one unit; the depth-first search that finds it keeps
    an explicit stack, so a path through every request cannot overflow
    the interpreter's stack.

    A left is deficient when its source edge carries no flow.  On an
    infeasible instance the witness is the lefts reachable from the
    source in the final residual network, in ascending order: the source
    side of a minimum cut, whose neighbourhood violates the generalized
    Hall condition of Lemma 1.
    """
    indptr_arr, indices_arr, cap_arr = _check_csr(
        num_left, num_right, indptr, indices, right_capacities
    )
    source, sink = 0, num_left + num_right + 1
    num_nodes = sink + 1
    rows = np.repeat(np.arange(num_left, dtype=np.int64), np.diff(indptr_arr))
    # Forward edge k is edge 2k, its reverse edge 2k + 1.
    forward_tail = np.concatenate((
        np.zeros(num_left, dtype=np.int64),
        np.arange(num_left + 1, sink, dtype=np.int64),
        rows + 1,
    ))
    forward_head = np.concatenate((
        np.arange(1, num_left + 1, dtype=np.int64),
        np.full(num_right, sink, dtype=np.int64),
        indices_arr + (num_left + 1),
    ))
    edge_tail = np.empty(2 * forward_tail.size, dtype=np.int64)
    edge_tail[0::2], edge_tail[1::2] = forward_tail, forward_head
    edge_head = np.empty_like(edge_tail)
    edge_head[0::2], edge_head[1::2] = forward_head, forward_tail
    residual_arr = np.zeros(edge_tail.size, dtype=np.int64)
    residual_arr[0::2] = np.concatenate((
        np.ones(num_left, dtype=np.int64), cap_arr, np.ones(indices_arr.size, dtype=np.int64)
    ))
    # Node v's edges are adj[start[v]:start[v + 1]], in id order.
    order = np.argsort(edge_tail, kind="stable")
    start_arr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_tail, minlength=num_nodes), out=start_arr[1:])
    adj, adj_head = order.tolist(), edge_head[order].tolist()
    start, residual = start_arr.tolist(), residual_arr.tolist()

    matched = 0
    while True:
        # BFS levels over positive-residual edges.
        level = [-1] * num_nodes
        level[source] = 0
        queue = [source]
        for node in queue:
            next_level = level[node] + 1
            for p in range(start[node], start[node + 1]):
                head = adj_head[p]
                if level[head] < 0 and residual[adj[p]] > 0:
                    level[head] = next_level
                    queue.append(head)
        if level[sink] < 0:
            break
        # Blocking flow: depth-first along level-increasing residual
        # edges, from the source, with per-node edge pointers.  A dead
        # end advances its parent's pointer; a path to the sink carries
        # one unit, and the search restarts from the source.
        pointer = start[:-1]
        path_nodes: list = []
        path_edges: list = []
        node = source
        while True:
            if node == sink:
                for edge in path_edges:
                    residual[edge] -= 1
                    residual[edge ^ 1] += 1
                matched += 1
                path_nodes.clear()
                path_edges.clear()
                node = source
                continue
            p, stop, want = pointer[node], start[node + 1], level[node] + 1
            while p < stop and not (level[adj_head[p]] == want and residual[adj[p]] > 0):
                p += 1
            pointer[node] = p
            if p < stop:
                path_nodes.append(node)
                path_edges.append(adj[p])
                node = adj_head[p]
            elif path_nodes:
                node = path_nodes.pop()
                path_edges.pop()
                pointer[node] += 1
            else:
                break

    # Source and left→right edges have capacity 1: a zero residual means
    # the edge carries flow.
    forward = np.asarray(residual[0::2], dtype=np.int64)
    assignment = np.full(num_left, -1, dtype=np.int64)
    used = forward[num_left + num_right:] == 0
    assignment[rows[used]] = indices_arr[used]
    feasible = matched == num_left
    witness = None
    if not feasible:
        # The last BFS reached exactly the residual network's source side.
        reached = np.asarray(level[1:num_left + 1]) >= 0
        witness = tuple(np.flatnonzero(reached).tolist())
    return HKMatchingResult(
        feasible=feasible,
        assignment=assignment,
        matched=matched,
        deficient_left=tuple(np.flatnonzero(forward[:num_left] > 0).tolist()),
        unsatisfied_witness=witness,
    )
