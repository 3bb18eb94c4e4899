"""Tests for min-cost max-flow."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import GraphError
from repro.graph import FlowNetwork, assert_valid_flow
from repro.maxflow.mincost import min_cost_max_flow


def build(arcs_with_cost, n):
    """arcs_with_cost: (u, v, cap, cost)."""
    g = FlowNetwork(n)
    costs = []
    for u, v, c, w in arcs_with_cost:
        g.add_arc(u, v, c)
        costs.extend([float(w), -float(w)])
    return g, costs


class TestBasics:
    def test_prefers_cheap_path(self):
        g, costs = build(
            [(0, 1, 5, 10), (0, 2, 5, 1), (1, 3, 5, 0), (2, 3, 5, 0)], 4
        )
        r = min_cost_max_flow(g, 0, 3, costs)
        assert r.value == pytest.approx(10)
        # 5 units @1 + 5 units @10 (both needed for max flow)
        assert r.extra["total_cost"] == pytest.approx(55)
        assert_valid_flow(g, 0, 3)

    def test_cheap_path_takes_all_when_sufficient(self):
        g, costs = build(
            [(0, 1, 9, 7), (0, 2, 9, 1), (1, 3, 9, 0), (2, 3, 9, 0),
             (0, 3, 0, 0)], 4
        )
        # sink-side bottleneck of 9 on each route; source wants 18; but add
        # a capacity cap: make max flow 9 via direct... simplify: max flow
        # is 18 here; assert cost uses cheap route fully
        r = min_cost_max_flow(g, 0, 3, costs)
        assert r.value == pytest.approx(18)
        assert r.extra["total_cost"] == pytest.approx(9 * 1 + 9 * 7)

    def test_zero_costs_reduce_to_max_flow(self):
        g = FlowNetwork(4)
        g.add_arc(0, 1, 3)
        g.add_arc(1, 2, 2)
        g.add_arc(2, 3, 3)
        costs = [0.0] * g.num_arc_slots
        r = min_cost_max_flow(g, 0, 3, costs)
        assert r.value == pytest.approx(2)
        assert r.extra["total_cost"] == 0.0

    def test_disconnected(self):
        g = FlowNetwork(3)
        g.add_arc(0, 1, 5)
        r = min_cost_max_flow(g, 0, 2, [1.0, -1.0])
        assert r.value == 0

    def test_validation(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 1)
        with pytest.raises(GraphError, match="arc costs"):
            min_cost_max_flow(g, 0, 1, [1.0])
        with pytest.raises(GraphError, match="negative cost"):
            min_cost_max_flow(g, 0, 1, [-1.0, 1.0])


class TestAgainstNetworkx:
    def test_random_instances(self, rng):
        for _ in range(15):
            n = rng.randint(3, 9)
            g = FlowNetwork(n)
            costs = []
            H = nx.DiGraph()
            H.add_nodes_from(range(n))
            for _ in range(rng.randint(2, 16)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                c = rng.randint(1, 8)
                w = rng.randint(0, 6)
                g.add_arc(u, v, c)
                costs.extend([float(w), -float(w)])
                if H.has_edge(u, v):
                    # networkx min_cost_flow can't model parallel arcs with
                    # different costs cleanly; skip merging ambiguity
                    H[u][v]["capacity"] += c
                    H[u][v]["weight"] = min(H[u][v]["weight"], w)
                    continue
                H.add_edge(u, v, capacity=c, weight=w)
            s, t = 0, n - 1
            r = min_cost_max_flow(g, s, t, costs)
            expect_value = nx.maximum_flow_value(H, s, t)
            assert r.value == pytest.approx(expect_value)
            # only compare costs when no parallel arcs were merged
            if g.num_arcs == H.number_of_edges():
                expect_cost = nx.cost_of_flow(
                    H, nx.max_flow_min_cost(H, s, t)
                )
                assert r.extra["total_cost"] == pytest.approx(expect_cost)
            assert_valid_flow(g, s, t)
