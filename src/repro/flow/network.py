"""Flow-network data structure.

A minimal, array-backed directed flow network with integer capacities.
Every edge is stored together with its residual reverse edge at index
``edge_id ^ 1`` (the classical pairing trick), so the Dinic solver
(:mod:`repro.flow.dinic`) and the residual-reachability walk that extracts
its Hall witness (:mod:`repro.flow.mincut`) share one representation.

Capacities are integers by design: the connection-matching networks of the
paper have all capacities equal to multiples of ``1/c`` and are scaled by
``c`` (or an LCM for heterogeneous uploads) before being handed to the
solver, so flow conservation and feasibility checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.util.validation import check_non_negative_integer

__all__ = ["Edge", "FlowNetwork"]


@dataclass(frozen=True)
class Edge:
    """A view of one directed edge of the network (for inspection)."""

    edge_id: int
    source: int
    target: int
    capacity: int
    flow: int

    @property
    def residual_capacity(self) -> int:
        """Remaining capacity ``capacity − flow``."""
        return self.capacity - self.flow


class FlowNetwork:
    """Directed graph with integer edge capacities and residual edges.

    Parameters
    ----------
    num_nodes:
        Number of nodes, identified ``0 .. num_nodes-1``.

    Notes
    -----
    ``add_edge(s, t, cap)`` creates the forward edge at an even index and
    its residual (capacity 0) reverse edge at the following odd index.
    Solvers mutate the internal ``flow`` list in place; ``reset_flow()``
    restores the zero flow.
    """

    def __init__(self, num_nodes: int):
        self._num_nodes = check_non_negative_integer(num_nodes, "num_nodes")
        self._head: List[List[int]] = [[] for _ in range(self._num_nodes)]
        self._to: List[int] = []
        self._from: List[int] = []
        self._cap: List[int] = []
        self._flow: List[int] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of *forward* edges added with :meth:`add_edge`."""
        return len(self._to) // 2

    def add_node(self) -> int:
        """Append a new node and return its identifier."""
        self._head.append([])
        self._num_nodes += 1
        return self._num_nodes - 1

    def add_edge(self, source: int, target: int, capacity: int) -> int:
        """Add a directed edge and its residual; return the forward edge id."""
        source = check_non_negative_integer(source, "source")
        target = check_non_negative_integer(target, "target")
        if source >= self._num_nodes or target >= self._num_nodes:
            raise ValueError(
                f"edge ({source} -> {target}) references a node outside "
                f"0..{self._num_nodes - 1}"
            )
        if not isinstance(capacity, (int,)) or isinstance(capacity, bool):
            raise TypeError(f"capacity must be an integer, got {capacity!r}")
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        edge_id = len(self._to)
        # forward edge
        self._from.append(source)
        self._to.append(target)
        self._cap.append(int(capacity))
        self._flow.append(0)
        self._head[source].append(edge_id)
        # residual edge
        self._from.append(target)
        self._to.append(source)
        self._cap.append(0)
        self._flow.append(0)
        self._head[target].append(edge_id + 1)
        return edge_id

    # ------------------------------------------------------------------ #
    # Residual-graph primitives used by the solvers
    # ------------------------------------------------------------------ #
    def out_edges(self, node: int) -> List[int]:
        """Edge identifiers (forward and residual) leaving ``node``."""
        return self._head[node]

    def edge_target(self, edge_id: int) -> int:
        """Head node of edge ``edge_id``."""
        return self._to[edge_id]

    def edge_source(self, edge_id: int) -> int:
        """Tail node of edge ``edge_id``."""
        return self._from[edge_id]

    def residual(self, edge_id: int) -> int:
        """Residual capacity of edge ``edge_id``."""
        return self._cap[edge_id] - self._flow[edge_id]

    def push(self, edge_id: int, amount: int) -> None:
        """Push ``amount`` units of flow along ``edge_id`` (and its reverse)."""
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        if amount > self.residual(edge_id):
            raise ValueError(
                f"cannot push {amount} along edge {edge_id} with residual "
                f"{self.residual(edge_id)}"
            )
        self._flow[edge_id] += amount
        self._flow[edge_id ^ 1] -= amount

    def reset_flow(self) -> None:
        """Reset every edge flow to zero."""
        for i in range(len(self._flow)):
            self._flow[i] = 0

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def edge(self, edge_id: int) -> Edge:
        """Return an immutable view of edge ``edge_id``."""
        if not 0 <= edge_id < len(self._to):
            raise ValueError(f"edge_id {edge_id} out of range")
        return Edge(
            edge_id=edge_id,
            source=self._from[edge_id],
            target=self._to[edge_id],
            capacity=self._cap[edge_id],
            flow=self._flow[edge_id],
        )

    def forward_edges(self) -> Iterator[Edge]:
        """Iterate over the forward edges (even identifiers)."""
        for edge_id in range(0, len(self._to), 2):
            yield self.edge(edge_id)

    def flow_value(self, source: int) -> int:
        """Net flow currently leaving ``source``."""
        total = 0
        for edge_id in self._head[source]:
            if edge_id % 2 == 0:
                total += self._flow[edge_id]
            else:
                total -= self._flow[edge_id]
        return total

    def flow_on(self, edge_id: int) -> int:
        """Flow currently assigned to edge ``edge_id``."""
        return self._flow[edge_id]

    def check_conservation(self, source: int, sink: int) -> bool:
        """Verify flow conservation at every node except ``source``/``sink``."""
        balance = [0] * self._num_nodes
        for edge_id in range(0, len(self._to), 2):
            f = self._flow[edge_id]
            balance[self._from[edge_id]] -= f
            balance[self._to[edge_id]] += f
        return all(
            balance[v] == 0 for v in range(self._num_nodes) if v not in (source, sink)
        )

    def copy(self) -> "FlowNetwork":
        """Deep copy of the network (capacities and current flow)."""
        clone = FlowNetwork(self._num_nodes)
        clone._head = [list(edges) for edges in self._head]
        clone._to = list(self._to)
        clone._from = list(self._from)
        clone._cap = list(self._cap)
        clone._flow = list(self._flow)
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        return f"FlowNetwork(nodes={self._num_nodes}, edges={self.num_edges})"


def build_bipartite_network(
    num_left: int,
    num_right: int,
    edges: List[Tuple[int, int]],
    left_capacities: List[int],
    right_capacities: List[int],
    edge_capacity: int = 1,
) -> Tuple[FlowNetwork, int, int]:
    """Build the standard source/sink flow network for a bipartite b-matching.

    Nodes are laid out ``[source, left_0..left_{L-1}, right_0..right_{R-1},
    sink]``.  Left node ``i`` receives capacity ``left_capacities[i]`` from
    the source, right node ``j`` sends ``right_capacities[j]`` to the sink,
    and each pair in ``edges`` is connected with ``edge_capacity``.

    Returns ``(network, source, sink)``.
    """
    if len(left_capacities) != num_left:
        raise ValueError("left_capacities length must equal num_left")
    if len(right_capacities) != num_right:
        raise ValueError("right_capacities length must equal num_right")
    network = FlowNetwork(num_left + num_right + 2)
    source = 0
    sink = num_left + num_right + 1
    for i, cap in enumerate(left_capacities):
        network.add_edge(source, 1 + i, int(cap))
    for j, cap in enumerate(right_capacities):
        network.add_edge(1 + num_left + j, sink, int(cap))
    for left, right in edges:
        if not 0 <= left < num_left or not 0 <= right < num_right:
            raise ValueError(f"edge ({left}, {right}) out of range")
        network.add_edge(1 + left, 1 + num_left + right, int(edge_capacity))
    return network, source, sink
