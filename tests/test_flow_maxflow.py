"""Tests for the in-house Dinic max-flow solver (cross-checked against
networkx and against SciPy's Dinic and Edmonds–Karp on random instances)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from repro.flow.dinic import dinic_max_flow
from repro.flow.network import FlowNetwork

SOLVERS = {"dinic": dinic_max_flow}


def scipy_max_flows(net: FlowNetwork, source: int, sink: int) -> dict:
    """Max-flow value of ``net`` under SciPy's two methods."""
    edges = list(net.forward_edges())
    graph = csr_array(
        (
            np.array([e.capacity for e in edges], dtype=np.int32),
            ([e.source for e in edges], [e.target for e in edges]),
        ),
        shape=(net.num_nodes, net.num_nodes),
    )
    return {
        f"scipy_{method}": maximum_flow(graph, source, sink, method=method).flow_value
        for method in ("dinic", "edmonds_karp")
    }


def build_simple_network():
    """The classic 4-node example with max flow 23."""
    net = FlowNetwork(6)
    s, a, b, c, d, t = range(6)
    net.add_edge(s, a, 16)
    net.add_edge(s, b, 13)
    net.add_edge(a, b, 10)
    net.add_edge(b, a, 4)
    net.add_edge(a, c, 12)
    net.add_edge(c, b, 9)
    net.add_edge(b, d, 14)
    net.add_edge(d, c, 7)
    net.add_edge(c, t, 20)
    net.add_edge(d, t, 4)
    return net, s, t


@pytest.mark.parametrize("name,solver", SOLVERS.items())
class TestSolversOnKnownInstances:
    def test_clrs_example(self, name, solver):
        net, s, t = build_simple_network()
        assert solver(net, s, t) == 23

    def test_single_edge(self, name, solver):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 5)
        assert solver(net, 0, 1) == 5

    def test_disconnected(self, name, solver):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 5)
        assert solver(net, 0, 2) == 0

    def test_serial_bottleneck(self, name, solver):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 10)
        net.add_edge(1, 2, 3)
        net.add_edge(2, 3, 10)
        assert solver(net, 0, 3) == 3

    def test_parallel_paths(self, name, solver):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 4)
        net.add_edge(0, 2, 6)
        net.add_edge(1, 3, 5)
        net.add_edge(2, 3, 5)
        assert solver(net, 0, 3) == 9

    def test_zero_capacity_edge(self, name, solver):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 0)
        assert solver(net, 0, 1) == 0

    def test_flow_conservation_after_solve(self, name, solver):
        net, s, t = build_simple_network()
        solver(net, s, t)
        assert net.check_conservation(s, t)

    def test_same_source_sink_rejected(self, name, solver):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 1)
        with pytest.raises(ValueError):
            solver(net, 0, 0)

    def test_out_of_range_terminals_rejected(self, name, solver):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 1)
        with pytest.raises(ValueError):
            solver(net, 0, 5)
        with pytest.raises(ValueError):
            solver(net, 5, 1)


def random_network(rng: np.random.Generator, num_nodes: int, num_edges: int, max_cap: int):
    net = FlowNetwork(num_nodes)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(num_nodes))
    for _ in range(num_edges):
        a = int(rng.integers(num_nodes))
        b = int(rng.integers(num_nodes))
        if a == b:
            continue
        cap = int(rng.integers(1, max_cap + 1))
        net.add_edge(a, b, cap)
        if graph.has_edge(a, b):
            graph[a][b]["capacity"] += cap
        else:
            graph.add_edge(a, b, capacity=cap)
    return net, graph


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_match_networkx(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(4, 14))
        num_edges = int(rng.integers(num_nodes, 4 * num_nodes))
        net, graph = random_network(rng, num_nodes, num_edges, max_cap=12)
        source, sink = 0, num_nodes - 1
        expected = nx.maximum_flow_value(graph, source, sink) if graph.has_node(source) else 0
        for name, solver in SOLVERS.items():
            work = net.copy()
            value = solver(work, source, sink)
            assert value == expected, f"{name} disagrees with networkx on seed {seed}"

    @pytest.mark.parametrize("seed", range(8))
    def test_solvers_agree_on_bipartite_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        left, right = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        net = FlowNetwork(left + right + 2)
        source, sink = 0, left + right + 1
        for i in range(left):
            net.add_edge(source, 1 + i, int(rng.integers(1, 4)))
        for j in range(right):
            net.add_edge(1 + left + j, sink, int(rng.integers(1, 4)))
        for i in range(left):
            for j in range(right):
                if rng.random() < 0.4:
                    net.add_edge(1 + i, 1 + left + j, 1)
        values = scipy_max_flows(net, source, sink)
        values["dinic"] = dinic_max_flow(net.copy(), source, sink)
        assert len(set(values.values())) == 1, values


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_nodes=st.integers(3, 10),
        density=st.floats(0.1, 0.7),
        max_cap=st.integers(1, 20),
    )
    def test_dinic_equals_edmonds_karp(self, seed, num_nodes, density, max_cap):
        rng = np.random.default_rng(seed)
        net = FlowNetwork(num_nodes)
        for a in range(num_nodes):
            for b in range(num_nodes):
                if a != b and rng.random() < density:
                    net.add_edge(a, b, int(rng.integers(1, max_cap + 1)))
        values = scipy_max_flows(net, 0, num_nodes - 1)
        values["dinic"] = dinic_max_flow(net.copy(), 0, num_nodes - 1)
        assert len(set(values.values())) == 1, values

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), cap_scale=st.integers(1, 5))
    def test_flow_value_scales_with_capacities(self, seed, cap_scale):
        rng = np.random.default_rng(seed)
        num_nodes = 6
        edges = []
        for a in range(num_nodes):
            for b in range(num_nodes):
                if a != b and rng.random() < 0.5:
                    edges.append((a, b, int(rng.integers(1, 8))))
        base = FlowNetwork(num_nodes)
        scaled = FlowNetwork(num_nodes)
        for a, b, cap in edges:
            base.add_edge(a, b, cap)
            scaled.add_edge(a, b, cap * cap_scale)
        v_base = dinic_max_flow(base, 0, num_nodes - 1)
        v_scaled = dinic_max_flow(scaled, 0, num_nodes - 1)
        assert v_scaled == v_base * cap_scale
