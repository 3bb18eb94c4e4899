"""Correctness tests shared by every max-flow engine."""

from __future__ import annotations

import pytest

from repro.graph import FlowNetwork, assert_valid_flow, flow_value, min_cut_reachable
from repro.maxflow import (
    ENGINES,
    DinicEngine,
    EdmondsKarpEngine,
    FordFulkersonEngine,
    ParallelPushRelabelEngine,
    PushRelabelEngine,
    get_engine,
)

ALL_ENGINES = [
    FordFulkersonEngine(),
    EdmondsKarpEngine(),
    DinicEngine(),
    PushRelabelEngine(),
    PushRelabelEngine(initial_heights="zero"),
    PushRelabelEngine(gap_heuristic=False, global_relabel_interval=0),
    ParallelPushRelabelEngine(num_threads=1),
    ParallelPushRelabelEngine(num_threads=2),
]

IDS = [
    "ff",
    "ek",
    "dinic",
    "pr-exact",
    "pr-zero",
    "pr-plain",
    "par-1t",
    "par-2t",
]


def classic_example() -> tuple[FlowNetwork, int, int, int]:
    """CLRS figure network with known max flow 23."""
    g = FlowNetwork(6)
    for u, v, c in [
        (0, 1, 16),
        (0, 2, 13),
        (1, 2, 10),
        (2, 1, 4),
        (1, 3, 12),
        (3, 2, 9),
        (2, 4, 14),
        (4, 3, 7),
        (3, 5, 20),
        (4, 5, 4),
    ]:
        g.add_arc(u, v, c)
    return g, 0, 5, 23


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=IDS)
class TestEngineBasics:
    def test_classic_clrs_network(self, engine):
        g, s, t, expect = classic_example()
        r = engine.solve(g, s, t)
        assert r.value == expect
        assert type(r.value) is int
        assert_valid_flow(g, s, t)

    def test_single_arc(self, engine):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 7)
        assert engine.solve(g, 0, 1).value == 7

    def test_disconnected_sink(self, engine):
        g = FlowNetwork(3)
        g.add_arc(0, 1, 5)
        assert engine.solve(g, 0, 2).value == 0

    def test_zero_capacity_arcs(self, engine):
        g = FlowNetwork(3)
        g.add_arc(0, 1, 0)
        g.add_arc(1, 2, 4)
        assert engine.solve(g, 0, 2).value == 0

    def test_chain_bottleneck(self, engine):
        g = FlowNetwork(5)
        caps = [9, 3, 8, 6]
        for i, c in enumerate(caps):
            g.add_arc(i, i + 1, c)
        assert engine.solve(g, 0, 4).value == min(caps)

    def test_parallel_arcs_accumulate(self, engine):
        g = FlowNetwork(2)
        g.add_arc(0, 1, 3)
        g.add_arc(0, 1, 4)
        assert engine.solve(g, 0, 1).value == 7

    def test_antiparallel_arcs(self, engine):
        g = FlowNetwork(3)
        g.add_arc(0, 1, 5)
        g.add_arc(1, 0, 5)
        g.add_arc(1, 2, 3)
        assert engine.solve(g, 0, 2).value == 3

    def test_resolve_flags_black_box_restart(self, engine):
        """Re-solving without warm_start zeroes the flow and re-finds it."""
        g, s, t, expect = classic_example()
        engine.solve(g, s, t)
        r = engine.solve(g, s, t)
        assert r.value == expect
        assert_valid_flow(g, s, t)

    def test_warm_start_preserves_value(self, engine):
        """Warm-starting from a max flow finds nothing new, instantly."""
        g, s, t, expect = classic_example()
        engine.solve(g, s, t)
        saved = g.save_flow()
        r = engine.solve(g, s, t, warm_start=True)
        assert r.value == expect
        assert g.save_flow() == saved or flow_value(g, s, t) == expect

    def test_warm_start_after_capacity_increase(self, engine):
        """The integrated pattern: raise capacities, keep flow, re-solve."""
        g = FlowNetwork(4)
        a1 = g.add_arc(0, 1, 2)
        g.add_arc(1, 2, 10)
        a3 = g.add_arc(2, 3, 2)
        assert engine.solve(g, 0, 3).value == 2
        g.set_capacity(a1, 5)
        g.set_capacity(a3, 5)
        r = engine.solve(g, 0, 3, warm_start=True)
        assert r.value == 5
        assert_valid_flow(g, 0, 3)

    def test_min_cut_certificate(self, engine):
        g, s, t, expect = classic_example()
        r = engine.solve(g, s, t)
        reach = min_cut_reachable(g, s)
        cut_cap = sum(
            a.cap for a in g.arcs() if a.tail in reach and a.head not in reach
        )
        assert cut_cap == r.value


class TestRegistry:
    def test_all_names_resolve(self):
        for name in ENGINES:
            assert get_engine(name).name == name

    def test_registry_names_are_stable(self):
        # the CLI, bench configs and docs refer to engines by these
        # strings — renaming one is a breaking change
        assert sorted(ENGINES) == [
            "csr-push-relabel",
            "dinic",
            "edmonds-karp",
            "ford-fulkerson",
            "parallel-push-relabel",
            "push-relabel",
        ]
        for name in ("ford-fulkerson", "edmonds-karp", "push-relabel",
                     "csr-push-relabel"):
            g, s, t, best = classic_example()
            assert get_engine(name).solve(g, s, t).value == best

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown engine"):
            get_engine("simplex")

    def test_kwargs_forwarded(self):
        eng = get_engine("parallel-push-relabel", num_threads=3)
        assert eng.num_threads == 3


class TestOperationCounters:
    def test_path_engines_count_augmentations(self):
        g, s, t, _ = classic_example()
        r = FordFulkersonEngine().solve(g, s, t)
        assert r.augmentations >= 1
        assert r.work == r.augmentations

    def test_push_relabel_counts_ops(self):
        g, s, t, _ = classic_example()
        r = PushRelabelEngine().solve(g, s, t)
        assert r.pushes >= 1
        assert "global_relabels" in r.extra

    def test_parallel_reports_thread_split(self):
        g, s, t, _ = classic_example()
        r = ParallelPushRelabelEngine(num_threads=2).solve(g, s, t)
        stats = r.extra["parallel_stats"]
        assert stats.num_threads == 2
        assert stats.total_pushes == r.pushes
        assert stats.load_balance >= 1.0
