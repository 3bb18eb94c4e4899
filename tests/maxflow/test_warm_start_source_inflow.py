"""Regression tests: warm starts on graphs with flow into the source.

Bug class (found by randomized cross-checking during development): a
preserved flow on an arc *into* the source leaves a residual ``s -> w``
arc, and no height labeling with ``height[s] = n`` can satisfy the
validity invariant across it — push–relabel variants could then declare
a non-maximum preflow final.  The fix cancels inbound-source flow at
warm-start initialization (a legal preflow transformation: the tail
vertex inherits the cancelled units as excess).

Retrieval networks have no arcs into the source, so the paper's solvers
were never affected; the generic engine API was.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graph import FlowNetwork, assert_valid_flow
from repro.maxflow import parallel_push_relabel, push_relabel
from tests.conftest import to_networkx

ENGINES = [
    ("fifo", push_relabel, {}),
    ("fifo-zero", push_relabel, {"initial_heights": "zero"}),
    ("parallel", parallel_push_relabel, {"num_threads": 2}),
]


def cycle_through_source() -> tuple[FlowNetwork, int, int]:
    """s on a cycle: a cold solve routes flow w->s, arming the bug."""
    g = FlowNetwork(4)
    g.add_arc(0, 1, 4)  # s -> a
    g.add_arc(1, 2, 4)  # a -> b
    g.add_arc(2, 0, 4)  # b -> s  (the trap arc)
    g.add_arc(2, 3, 1)  # b -> t, thin
    g.add_arc(1, 3, 1)  # a -> t, thin
    return g, 0, 3


def seeded_inflow() -> tuple[FlowNetwork, int, int]:
    """Manually park flow on an arc into s before the warm solve."""
    g = FlowNetwork(3)
    a_in = g.add_arc(1, 0, 5)  # w -> s
    g.add_arc(0, 1, 5)
    g.add_arc(1, 2, 5)
    g.push(a_in, 3.0)
    # compensate to keep vertex 1 conserving: push 3 on 0->1's twin? No —
    # leave it a preflow with negative excess at 1? Instead make it legal:
    # route 3 units 0->1 as well so vertex 1 conserves.
    g.push(g.forward_out_arcs(0)[0], 3.0)
    return g, 0, 2


@pytest.mark.parametrize("name,fn,kw", ENGINES, ids=[e[0] for e in ENGINES])
class TestSourceInflowWarmStart:
    def test_cycle_through_source(self, name, fn, kw):
        g, s, t = cycle_through_source()
        cold = fn(g, s, t, **kw)
        assert cold.value == 2
        # widen everything; warm start must find the new optimum
        for arc in list(g.arcs()):
            g.set_capacity(arc.index, arc.cap + 3)
        expect = nx.maximum_flow_value(to_networkx(g), s, t)
        warm = fn(g, s, t, warm_start=True, **kw)
        assert warm.value == expect
        assert_valid_flow(g, s, t)

    def test_seeded_inflow(self, name, fn, kw):
        g, s, t = seeded_inflow()
        expect = nx.maximum_flow_value(to_networkx(g), s, t)
        warm = fn(g, s, t, warm_start=True, **kw)
        assert warm.value == expect
        assert_valid_flow(g, s, t)

    def test_inbound_source_flow_cancelled(self, name, fn, kw):
        g, s, t = seeded_inflow()
        fn(g, s, t, warm_start=True, **kw)
        # the arc into s must carry no flow in the terminal state
        for arc in g.arcs():
            if arc.head == s:
                assert arc.flow == 0
