"""``FlowNetwork.twin_arc_lists``: built once per topology, shared.

The exact-height BFS walks every vertex's twin arcs.  The lists live on
the network, so every push–relabel state bound to it (one per solve)
reads the same copy; a topology change — which the generic engine API
allows between solves — must rebuild them.
"""

from __future__ import annotations

from repro.bench.service_bench import _build_deployment
from repro.core.problem import RetrievalProblem
from repro.graph import FlowNetwork
from repro.maxflow import PushRelabelState, push_relabel
from repro.service import SchedulerService, ServiceConfig


def expected(g: FlowNetwork) -> list[list[int]]:
    return [[a ^ 1 for a in arcs] for arcs in g.adj]


def diamond() -> FlowNetwork:
    g = FlowNetwork(4)
    g.add_arcs([0, 0, 1, 2], [1, 2, 3, 3], [2, 1, 1, 2])
    return g


def test_built_once_and_kept():
    g = diamond()
    twin = g.twin_arc_lists()
    assert twin == expected(g)
    assert g.twin_arc_lists() is twin
    g.cap[0] = 7  # value changes keep the topology
    g.reset_flow()
    assert g.twin_arc_lists() is twin


def test_rebuilt_after_add_arc():
    g = diamond()
    before = g.twin_arc_lists()
    g.add_arc(1, 2, 1)
    after = g.twin_arc_lists()
    assert after is not before
    assert after == expected(g)


def test_rebuilt_after_add_arcs_and_add_vertex():
    g = diamond()
    before = g.twin_arc_lists()
    g.add_arcs([2, 0], [1, 3], [1, 1])
    mid = g.twin_arc_lists()
    assert mid is not before and mid == expected(g)
    v = g.add_vertex()
    after = g.twin_arc_lists()
    assert after is not mid and after == expected(g) and after[v] == []


def test_copy_builds_its_own():
    g = diamond()
    twin = g.twin_arc_lists()
    h = g.copy()
    assert h.twin_arc_lists() is not twin
    assert h.twin_arc_lists() == twin


def test_engine_sees_an_arc_added_between_solves():
    """A state keeps working after the topology grows under it."""
    g = diamond()
    state = PushRelabelState(g, 0, 3)
    state.initialize(preserve_flow=False)
    assert state.run() == 2
    g.add_arc(0, 3, 4)  # a direct arc the old twin lists do not know
    state.initialize(preserve_flow=True)
    assert state.run() == 6
    assert push_relabel(g.copy(), 0, 3).value == 6


def test_shared_across_solves_on_one_cached_network():
    svc = SchedulerService(
        *_build_deployment(4, 1), config=ServiceConfig(cache_size=8)
    )
    coords = [(0, 0), (0, 1), (1, 1), (2, 3)]
    now = 0.0
    for _ in range(2):  # a miss, then the hit that builds the network
        now += 10.0
        svc.submit(coords, arrival_ms=now)
    sig = RetrievalProblem.from_query(svc.system, svc.placement, coords).replicas
    graph = svc.cache._entries[sig].network.graph
    twin = graph.twin_arc_lists()
    for _ in range(3):
        now += 10.0
        assert svc.submit(coords, arrival_ms=now).cache_hit
        assert svc.cache._entries[sig].network.graph is graph
        assert graph.twin_arc_lists() is twin
