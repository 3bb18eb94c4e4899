"""Property-based tests for the max-flow engines (hypothesis).

Invariants checked on arbitrary generated networks:

* every engine's value equals networkx's reference value;
* terminal states satisfy capacity + conservation (valid flow);
* max-flow/min-cut duality: the residual-reachable cut has capacity
  equal to the flow value;
* warm starts never lose value; capacity increases are monotone.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import FlowNetwork, assert_valid_flow, min_cut_reachable
from repro.maxflow import (
    dinic,
    edmonds_karp,
    ford_fulkerson,
    parallel_push_relabel,
    push_relabel,
)
from tests.conftest import to_networkx

arc_strategy = st.tuples(
    st.integers(0, 9), st.integers(0, 9), st.integers(0, 8)
).filter(lambda a: a[0] != a[1])

network_strategy = st.lists(arc_strategy, min_size=0, max_size=25)


def build(arcs) -> tuple[FlowNetwork, int, int]:
    g = FlowNetwork(10)
    for u, v, c in arcs:
        g.add_arc(u, v, c)
    return g, 0, 9


def reference_value(g: FlowNetwork, s: int, t: int) -> int:
    return nx.maximum_flow_value(to_networkx(g), s, t)


@settings(max_examples=60, deadline=None)
@given(network_strategy)
def test_ford_fulkerson_matches_networkx(arcs):
    g, s, t = build(arcs)
    expect = reference_value(g, s, t)
    assert ford_fulkerson(g, s, t).value == expect
    assert_valid_flow(g, s, t)


@settings(max_examples=60, deadline=None)
@given(network_strategy)
def test_edmonds_karp_matches_networkx(arcs):
    g, s, t = build(arcs)
    expect = reference_value(g, s, t)
    assert edmonds_karp(g, s, t).value == expect
    assert_valid_flow(g, s, t)


@settings(max_examples=60, deadline=None)
@given(network_strategy)
def test_dinic_matches_networkx(arcs):
    g, s, t = build(arcs)
    expect = reference_value(g, s, t)
    assert dinic(g, s, t).value == expect
    assert_valid_flow(g, s, t)


@settings(max_examples=60, deadline=None)
@given(network_strategy, st.sampled_from(["exact", "zero"]))
def test_push_relabel_matches_networkx(arcs, heights):
    g, s, t = build(arcs)
    expect = reference_value(g, s, t)
    r = push_relabel(g, s, t, initial_heights=heights)
    assert r.value == expect
    assert_valid_flow(g, s, t)


@settings(max_examples=30, deadline=None)
@given(network_strategy)
def test_parallel_push_relabel_matches_networkx(arcs):
    g, s, t = build(arcs)
    expect = reference_value(g, s, t)
    r = parallel_push_relabel(g, s, t, num_threads=2)
    assert r.value == expect
    assert_valid_flow(g, s, t)


@settings(max_examples=60, deadline=None)
@given(network_strategy)
def test_min_cut_duality(arcs):
    g, s, t = build(arcs)
    value = push_relabel(g, s, t).value
    reach = min_cut_reachable(g, s)
    assert (t in reach) == False or value == reference_value(g, s, t)
    if t not in reach:
        cut = sum(
            a.cap for a in g.arcs() if a.tail in reach and a.head not in reach
        )
        assert cut == value


@settings(max_examples=40, deadline=None)
@given(network_strategy, st.integers(1, 5))
def test_capacity_increase_is_monotone_with_warm_start(arcs, bump):
    """Raising capacities never decreases max flow; warm start finds it."""
    g, s, t = build(arcs)
    v1 = push_relabel(g, s, t).value
    for arc in list(g.arcs()):
        g.set_capacity(arc.index, arc.cap + bump)
    v2 = push_relabel(g, s, t, warm_start=True).value
    assert v2 >= v1
    assert v2 == reference_value(g, s, t)
    assert_valid_flow(g, s, t)


@settings(max_examples=40, deadline=None)
@given(network_strategy)
def test_flow_decomposition_bound(arcs):
    """No arc carries more than the total value plus returned flow bound."""
    g, s, t = build(arcs)
    value = push_relabel(g, s, t).value
    for a in g.arcs():
        assert a.flow <= a.cap
        assert a.flow >= 0  # forward arcs never carry negative flow
    assert value >= 0
