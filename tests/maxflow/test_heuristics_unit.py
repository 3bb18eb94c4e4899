"""Unit tests targeting the push-relabel heuristics' trigger paths."""

from __future__ import annotations

from repro.graph import FlowNetwork, assert_valid_flow
from repro.maxflow.push_relabel import PushRelabelState, push_relabel


def stranded_excess_graph() -> tuple[FlowNetwork, int, int]:
    """Source feeds a dead-end chain plus a real path: excess must climb
    back to the source, exercising gap/relabel machinery."""
    g = FlowNetwork(8)
    s, t = 0, 7
    g.add_arc(s, 1, 10)  # 1 -> dead-end cluster
    g.add_arc(1, 2, 10)
    g.add_arc(2, 3, 10)
    g.add_arc(3, 4, 1)  # thin outlet
    g.add_arc(4, t, 1)
    g.add_arc(s, 5, 3)  # clean path
    g.add_arc(5, 6, 3)
    g.add_arc(6, t, 3)
    return g, s, t


class TestGapHeuristic:
    def test_gap_fires_on_stranded_cluster(self):
        g, s, t = stranded_excess_graph()
        state = PushRelabelState(g, s, t, initial_heights="zero",
                                 gap_heuristic=True,
                                 global_relabel_interval=0)
        state.initialize(preserve_flow=False)
        value = state.run()
        assert value == 4
        assert_valid_flow(g, s, t)
        # the dead-end cluster must have been lifted via the gap heuristic
        # or plain relabels; either way gap bookkeeping stayed consistent
        n = g.n
        live = [h for h in state.height if h <= 2 * n]
        assert len(live) == n

    def test_height_counts_consistent_after_run(self):
        g, s, t = stranded_excess_graph()
        state = PushRelabelState(g, s, t, gap_heuristic=True)
        state.initialize()
        state.run()
        # height_count histogram matches the actual heights
        recount = [0] * (2 * g.n + 1)
        for h in state.height:
            recount[min(h, 2 * g.n)] += 1
        assert recount == state.height_count

    def test_gap_events_counted_when_triggered(self):
        """With zero initial heights the dead-end cluster must climb, and
        on this topology a level empties below n."""
        g, s, t = stranded_excess_graph()
        state = PushRelabelState(g, s, t, initial_heights="zero",
                                 gap_heuristic=True,
                                 global_relabel_interval=0)
        state.initialize()
        state.run()
        total = state.result()
        assert total.relabels > 0
        # gap may or may not fire depending on emptying order; if it did,
        # lifted vertices sit above n
        if state.gap_events:
            assert any(h > g.n for v, h in enumerate(state.height) if v != s)


class TestGlobalRelabelUnit:
    def test_exact_heights_after_partial_flow(self):
        g, s, t = stranded_excess_graph()
        # saturate the thin outlet manually
        push_relabel(g, s, t)
        state = PushRelabelState(g, s, t)
        state.initialize(preserve_flow=True)
        # vertices 1-3 can no longer reach t residually: heights >= n
        for v in (1, 2, 3):
            assert state.height[v] >= g.n or state.excess[v] == 0

    def test_interval_zero_never_global_relabels(self):
        g, s, t = stranded_excess_graph()
        state = PushRelabelState(g, s, t, initial_heights="zero",
                                 global_relabel_interval=0)
        state.initialize()
        state.run()
        assert state.global_relabels == 0

    def test_interval_one_relabels_often(self):
        g, s, t = stranded_excess_graph()
        state = PushRelabelState(g, s, t, initial_heights="zero",
                                 global_relabel_interval=1)
        state.initialize()
        value = state.run()
        assert value == 4
        assert state.global_relabels >= 1

    def test_exact_init_counts_one_global_relabel(self):
        g, s, t = stranded_excess_graph()
        state = PushRelabelState(g, s, t, initial_heights="exact")
        state.initialize()
        assert state.global_relabels == 1  # the initialization itself
