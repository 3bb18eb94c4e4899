"""CompiledNetwork: the frozen CSR mirror of a FlowNetwork.

Property suite for :meth:`FlowNetwork.compile`: the compiled layout must
agree with its builder *arc-by-arc* (slot ids are shared), round-trip
flows through ``pull``/``flush``/``save_flow``/``restore_flow`` exactly,
enforce the int64 wire range loudly, and expose the disk→sink capacity
row the vectorized rescale rewrites.  The armed-sanitizer tests pin that
``restore_flow`` re-checks antisymmetry when invariants are on.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro import invariants
from repro.core.network import RetrievalNetwork
from repro.errors import InvalidArcError
from repro.graph import FlowNetwork
from repro.graph.csr import TYPECODE
from repro.invariants import InvariantViolation
from repro.maxflow.push_relabel import push_relabel

from tests.property.test_differential_fuzz import random_generalized


def random_network(rng: np.random.Generator) -> FlowNetwork:
    """A connected-ish random network with zero-cap arcs mixed in."""
    n = int(rng.integers(2, 12))
    g = FlowNetwork(n)
    for _ in range(int(rng.integers(1, 4 * n))):
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        cap = int(rng.integers(0, 50))  # zero caps included on purpose
        g.add_arc(int(u), int(v), cap)
    return g


class TestCompileIdentity:
    @pytest.mark.parametrize("seed", range(25))
    def test_arc_by_arc_identity_with_the_builder(self, seed):
        rng = np.random.default_rng(0xC58 + seed)
        g = random_network(rng)
        c = g.compile()

        assert c.n == g.n
        assert c.num_arc_slots == g.num_arc_slots
        for a in range(g.num_arc_slots):
            arc = g.arc(a)
            assert c.head[a] == arc.head
            assert c.tail[a] == arc.tail
            assert c.cap[a] == arc.cap
            assert c.flow[a] == arc.flow
            assert c.twin[a] == a ^ 1
        # CSR ranges reproduce the builder's per-vertex arc order
        for v in range(g.n):
            assert list(c.out_slots(v)) == list(g.adj[v])
        assert c.first[g.n] == g.num_arc_slots

    @pytest.mark.parametrize("seed", range(10))
    def test_list_mirrors_match_the_arrays(self, seed):
        rng = np.random.default_rng(0x115 + seed)
        c = random_network(rng).compile()
        assert c.head_list == c.head.tolist()
        assert c.first_list == c.first.tolist()
        assert c.adj_list == c.adj.tolist()

    def test_every_buffer_is_int64(self):
        rng = np.random.default_rng(3)
        c = random_network(rng).compile()
        for buf in (*c.buffers(), c.tail):
            assert isinstance(buf, array) and buf.typecode == TYPECODE

    def test_compiled_is_memoized_until_topology_changes(self):
        g = FlowNetwork(3)
        g.add_arc(0, 1, 4)
        c1 = g.compiled()
        assert g.compiled() is c1
        g.add_arc(1, 2, 4)
        c2 = g.compiled()
        assert c2 is not c1
        assert c2.num_arc_slots == 4

    def test_solved_flows_round_trip_through_pull_and_flush(self):
        rng = np.random.default_rng(11)
        problem = random_generalized(rng)
        net = RetrievalNetwork(problem)
        net.set_uniform_sink_caps(3)
        g = net.graph
        push_relabel(g, net.source, net.sink)

        c = g.compiled()
        c.pull(g)
        assert c.flow.tolist() == g.flow
        assert c.cap.tolist() == g.cap
        c.flush(g)
        assert g.flow == c.flow.tolist()


class TestInt64Boundary:
    def test_extreme_but_legal_capacities_compile(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 2**63 - 1)
        c = g.compile()
        assert c.cap[0] == 2**63 - 1
        assert c.cap[1] == 0

    def test_capacity_beyond_int64_rejected_loudly(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 2**63)
        with pytest.raises(InvalidArcError, match="int64"):
            g.compile()

    def test_pull_beyond_int64_rejected_loudly(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 5)
        c = g.compile()
        g.cap[0] = 2**63
        with pytest.raises(InvalidArcError, match="int64"):
            c.pull(g)

    def test_restore_beyond_int64_rejected_loudly(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 5)
        c = g.compile()
        with pytest.raises(InvalidArcError, match="int64"):
            c.restore_flow([2**63, -(2**63)])


class TestFlowSnapshots:
    def test_save_restore_round_trip(self):
        rng = np.random.default_rng(21)
        problem = random_generalized(rng)
        net = RetrievalNetwork(problem)
        net.set_uniform_sink_caps(2)
        g = net.graph
        push_relabel(g, net.source, net.sink)
        c = g.compiled()
        c.pull(g)

        snap = c.save_flow()
        assert isinstance(snap, array) and snap.typecode == TYPECODE
        c.reset_flow()
        assert not any(c.flow)
        c.restore_flow(snap)
        assert c.flow.tolist() == g.flow

    def test_restore_accepts_builder_list_snapshots(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 5)
        c = g.compile()
        c.restore_flow([3, -3])  # a plain-list (builder-style) snapshot
        assert c.flow.tolist() == [3, -3]

    def test_restore_rejects_wrong_length(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 5)
        c = g.compile()
        with pytest.raises(InvalidArcError, match="slots"):
            c.restore_flow([0] * 4)

    def test_snapshot_is_a_copy_not_a_view(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 5)
        c = g.compile()
        snap = c.save_flow()
        c.restore_flow([2, -2])
        assert snap.tolist() == [0, 0]


class TestArmedSanitizer:
    def test_restore_flow_rechecks_antisymmetry(self, monkeypatch):
        monkeypatch.setattr(invariants, "ENABLED", True)
        g = FlowNetwork(2)
        g.add_arc(0, 1, 5)
        c = g.compile()
        with pytest.raises(InvariantViolation, match="antisymmetry"):
            c.restore_flow([3, -2])  # twin does not cancel the forward arc

    def test_valid_snapshot_passes_armed(self, monkeypatch):
        monkeypatch.setattr(invariants, "ENABLED", True)
        g = FlowNetwork(2)
        g.add_arc(0, 1, 5)
        c = g.compile()
        c.restore_flow([4, -4])
        assert c.flow.tolist() == [4, -4]

    def test_disarmed_restore_skips_the_check(self, monkeypatch):
        # the sanitizer is opt-in: production restores stay O(1) slices
        monkeypatch.setattr(invariants, "ENABLED", False)
        g = FlowNetwork(2)
        g.add_arc(0, 1, 5)
        c = g.compile()
        c.restore_flow([3, -2])  # accepted silently when disarmed
        assert c.flow.tolist() == [3, -2]


class TestRetrievalViews:
    @pytest.mark.parametrize("seed", range(10))
    def test_sink_arc_ids_match_the_network_row(self, seed):
        rng = np.random.default_rng(0x51 + seed)
        problem = random_generalized(rng)
        net = RetrievalNetwork(problem)
        c = net.graph.compiled()
        assert c.sink_arc_ids(net.sink).tolist() == net.sink_arcs

    def test_sink_arc_ids_validates_the_vertex(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 1)
        with pytest.raises(InvalidArcError, match="range"):
            g.compile().sink_arc_ids(2)

    def test_out_slots_validates_the_vertex(self):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 1)
        with pytest.raises(InvalidArcError, match="range"):
            g.compile().out_slots(-1)

    def test_vectorized_rescale_lands_in_the_compiled_row(self):
        """set_deadline_capacities -> pull must equal per-disk rescale."""
        rng = np.random.default_rng(77)
        problem = random_generalized(rng)
        net = RetrievalNetwork(problem)
        c = net.graph.compiled()
        sys_ = problem.system
        deadline = sys_.finish_time(0, 3) + 1.0
        net.set_deadline_capacities(deadline)
        c.pull(net.graph)
        for j, a in enumerate(net.sink_arcs):
            assert c.cap[a] == sys_.capacity_at(j, deadline)
