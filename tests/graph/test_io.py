"""Tests for the networkx bridge the max-flow oracle tests convert with."""

from __future__ import annotations

from repro.graph import FlowNetwork
from tests.conftest import to_networkx


def sample() -> tuple[FlowNetwork, int, int]:
    g = FlowNetwork(4)
    g.add_arc(0, 1, 2)
    g.add_arc(0, 2, 3)
    g.add_arc(1, 3, 4)
    g.add_arc(2, 3, 1)
    return g, 0, 3


class TestNetworkxBridge:
    def test_capacities_transfer(self):
        g, s, t = sample()
        h = to_networkx(g)
        assert h[0][1]["capacity"] == 2
        assert h.number_of_edges() == 4

    def test_parallel_arcs_merge_capacities(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 2)
        g.add_arc(0, 1, 5)
        h = to_networkx(g)
        assert h[0][1]["capacity"] == 7

    def test_isolated_vertices_kept(self):
        g = FlowNetwork(3)
        g.add_arc(0, 1, 1)
        h = to_networkx(g)
        assert h.number_of_nodes() == 3
