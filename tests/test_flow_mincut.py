"""Tests for residual reachability (the source side of a minimum cut)."""

import pytest

from repro.flow.dinic import dinic_max_flow
from repro.flow.mincut import residual_reachable
from repro.flow.network import FlowNetwork


def solved_simple_network():
    net = FlowNetwork(4)
    net.add_edge(0, 1, 3)
    net.add_edge(0, 2, 2)
    net.add_edge(1, 3, 2)
    net.add_edge(2, 3, 3)
    value = dinic_max_flow(net, 0, 3)
    return net, value


class TestResidualReachable:
    def test_reachable_before_any_flow(self):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 1)
        net.add_edge(1, 2, 1)
        assert residual_reachable(net, 0) == {0, 1, 2}

    def test_reachability_shrinks_after_max_flow(self):
        net, _ = solved_simple_network()
        reachable = residual_reachable(net, 0)
        assert 0 in reachable
        assert 3 not in reachable

    def test_out_of_range_source(self):
        net = FlowNetwork(2)
        with pytest.raises(ValueError):
            residual_reachable(net, 5)
