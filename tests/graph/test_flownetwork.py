"""Unit tests for the paired-arc FlowNetwork structure."""

from __future__ import annotations

import pytest

from repro.errors import InvalidArcError, InvalidVertexError
from repro.graph import FlowNetwork
from repro.graph.flownetwork import build_network


class TestConstruction:
    def test_empty_network(self):
        g = FlowNetwork(0)
        assert g.n == 0
        assert g.num_arcs == 0

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(InvalidVertexError):
            FlowNetwork(-1)

    def test_add_vertex_returns_new_id(self):
        g = FlowNetwork(2)
        assert g.add_vertex() == 2
        assert g.add_vertex() == 3
        assert g.n == 4

    def test_add_vertices_bulk(self):
        g = FlowNetwork(1)
        ids = g.add_vertices(3)
        assert ids == [1, 2, 3]

    def test_add_vertices_negative_rejected(self):
        g = FlowNetwork(1)
        with pytest.raises(InvalidVertexError):
            g.add_vertices(-2)

    def test_add_arc_creates_twin(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 5)
        assert a == 0
        assert g.num_arcs == 1
        assert g.num_arc_slots == 2
        fwd, rev = g.arc(a), g.arc(a ^ 1)
        assert (fwd.tail, fwd.head, fwd.cap) == (0, 1, 5.0)
        assert (rev.tail, rev.head, rev.cap) == (1, 0, 0.0)

    def test_arc_ids_are_even_for_forward(self):
        g = FlowNetwork(3)
        ids = [g.add_arc(0, 1, 1), g.add_arc(1, 2, 1), g.add_arc(0, 2, 1)]
        assert ids == [0, 2, 4]
        assert all(not g.arc(a).is_reverse for a in ids)
        assert all(g.arc(a ^ 1).is_reverse for a in ids)

    def test_negative_capacity_rejected(self):
        g = FlowNetwork(2)
        with pytest.raises(InvalidArcError):
            g.add_arc(0, 1, -3)

    def test_arc_to_unknown_vertex_rejected(self):
        g = FlowNetwork(2)
        with pytest.raises(InvalidVertexError):
            g.add_arc(0, 5, 1)
        with pytest.raises(InvalidVertexError):
            g.add_arc(-1, 0, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_add_arcs_matches_per_arc_construction(self, seed):
        import random

        rng = random.Random(seed)
        n = 7
        arcs = [
            (rng.randrange(n), rng.randrange(n), rng.randrange(4))
            for _ in range(20)
        ]
        one, bulk = FlowNetwork(n), FlowNetwork(n)
        one.add_arc(0, 1, 3)
        bulk.add_arc(0, 1, 3)  # bulk ids continue after existing arcs
        ids = [one.add_arc(u, v, c) for u, v, c in arcs]
        first = bulk.add_arcs(*map(list, zip(*arcs)))
        assert first == ids[0]
        assert (bulk.head, bulk.cap, bulk.flow, bulk.adj) == (
            one.head, one.cap, one.flow, one.adj,
        )
        assert [bulk.tail(a) for a in range(bulk.num_arc_slots)] == [
            one.tail(a) for a in range(one.num_arc_slots)
        ]
        for v in range(n):
            assert bulk.in_degree(v) == one.in_degree(v)
            assert bulk.forward_out_arcs(v) == one.forward_out_arcs(v)

    def test_add_arcs_validates_like_add_arc(self):
        g = FlowNetwork(3)
        assert g.add_arcs([], [], []) == 0
        with pytest.raises(InvalidArcError):
            g.add_arcs([0, 1], [1], [1, 1])
        with pytest.raises(InvalidVertexError):
            g.add_arcs([0, 1], [1, 3], [1, 1])
        with pytest.raises(InvalidArcError):
            g.add_arcs([0], [1], [-1])
        with pytest.raises(InvalidArcError):
            g.add_arcs([0], [1], [0.5])
        g2 = FlowNetwork(2)
        g2.add_arcs([0], [1], [2.0])  # integral floats, as add_arc
        assert g2.cap[0] == 2 and type(g2.cap[0]) is int

    def test_add_arcs_invalidates_compiled_layout(self):
        g = FlowNetwork(3)
        g.add_arc(0, 1, 1)
        c = g.compiled()
        g.add_arcs([1], [2], [1])
        assert g.compiled() is not c
        assert g.compiled().num_arc_slots == 4

    def test_build_network_helper(self):
        g, ids = build_network(3, [(0, 1, 2), (1, 2, 3)])
        assert g.n == 3
        assert ids == [0, 2]
        assert g.arc(2).cap == 3.0


class TestAdjacency:
    def test_out_arcs_include_residual_twins(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 1)
        assert list(g.out_arcs(0)) == [0]
        assert list(g.out_arcs(1)) == [1]

    def test_forward_out_arcs_filters_twins(self):
        g = FlowNetwork(3)
        g.add_arc(0, 1, 1)
        g.add_arc(1, 2, 1)
        g.add_arc(2, 1, 1)
        assert g.forward_out_arcs(1) == [2]

    def test_in_degree_counts_original_incoming_arcs(self):
        g = FlowNetwork(4)
        g.add_arc(0, 3, 1)
        g.add_arc(1, 3, 1)
        g.add_arc(2, 3, 1)
        g.add_arc(3, 0, 1)
        assert g.in_degree(3) == 3
        assert g.in_degree(0) == 1
        assert g.in_degree(1) == 0

    def test_tail_of_both_slots(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 1)
        assert g.tail(a) == 0
        assert g.tail(a ^ 1) == 1


class TestFlowOps:
    def test_push_updates_twin(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 5)
        g.push(a, 3)
        assert g.flow[a] == 3.0
        assert g.flow[a ^ 1] == -3.0
        assert g.residual(a) == 2.0
        assert g.residual(a ^ 1) == 3.0

    def test_push_beyond_residual_rejected(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 5)
        with pytest.raises(InvalidArcError):
            g.push(a, 6)

    def test_push_on_residual_twin_undoes_flow(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 5)
        g.push(a, 4)
        g.push(a ^ 1, 2)
        assert g.flow[a] == 2.0

    def test_reset_flow(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 5)
        g.push(a, 5)
        g.reset_flow()
        assert g.flow == [0.0, 0.0]

    def test_save_restore_flow(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 5)
        g.push(a, 2)
        snap = g.save_flow()
        g.push(a, 3)
        assert g.flow[a] == 5.0
        g.restore_flow(snap)
        assert g.flow[a] == 2.0

    def test_restore_flow_wrong_size_rejected(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 5)
        with pytest.raises(InvalidArcError):
            g.restore_flow([0.0])

    def test_set_capacity(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 5)
        g.set_capacity(a, 9)
        assert g.cap[a] == 9.0

    def test_set_capacity_on_twin_rejected(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 5)
        with pytest.raises(InvalidArcError):
            g.set_capacity(a ^ 1, 1)

    def test_set_negative_capacity_rejected(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 5)
        with pytest.raises(InvalidArcError):
            g.set_capacity(a, -1)


class TestCopyAndViews:
    def test_copy_is_deep(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 5)
        h = g.copy()
        h.push(a, 5)
        h.add_vertex()
        assert g.flow[a] == 0.0
        assert g.n == 2

    def test_arrays_alias_internal_state(self):
        g = FlowNetwork(2)
        a = g.add_arc(0, 1, 5)
        head, cap, flow, adj = g.arrays()
        flow[a] = 2.0
        assert g.flow[a] == 2.0

    def test_arcs_iteration_forward_only_by_default(self):
        g = FlowNetwork(3)
        g.add_arc(0, 1, 1)
        g.add_arc(1, 2, 2)
        snaps = list(g.arcs())
        assert len(snaps) == 2
        assert [a.index for a in snaps] == [0, 2]
        snaps_all = list(g.arcs(include_reverse=True))
        assert len(snaps_all) == 4

    def test_vertices_range(self):
        g = FlowNetwork(4)
        assert list(g.vertices()) == [0, 1, 2, 3]

    def test_invalid_arc_queries(self):
        g = FlowNetwork(2)
        with pytest.raises(InvalidArcError):
            g.arc(0)
        with pytest.raises(InvalidVertexError):
            g.out_arcs(9)
