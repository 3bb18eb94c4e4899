"""Tests for the parallel engine's park-the-workers global relabeling."""

from __future__ import annotations

import random

import pytest

from repro.graph import FlowNetwork, assert_valid_flow
from repro.maxflow import parallel_push_relabel, push_relabel
from repro.maxflow.parallel_push_relabel import _exact_heights
from tests.conftest import bipartite_retrieval_like, random_network


class TestExactHeights:
    def test_distances_on_path_graph(self):
        g = FlowNetwork(4)
        g.add_arc(0, 1, 1)
        g.add_arc(1, 2, 1)
        g.add_arc(2, 3, 1)
        h = _exact_heights(g, 0, 3)
        assert h[3] == 0 and h[2] == 1 and h[1] == 2
        assert h[0] == 4  # n

    def test_stranded_vertices_above_n(self):
        g = FlowNetwork(4)
        a = g.add_arc(0, 1, 1)
        b = g.add_arc(1, 2, 1)
        g.add_arc(2, 3, 1)
        g.push(a, 1)
        g.push(b, 1)  # arc 1->2 saturated: 1 cannot reach t residually
        h = _exact_heights(g, 0, 3)
        assert h[1] >= 4  # n + dist to s


class TestGlobalRelabelTrigger:
    def test_aggressive_interval_fires_and_stays_correct(self, rng):
        for _ in range(10):
            g, s, t = bipartite_retrieval_like(rng, 20, 5, 2, 2)
            expect = push_relabel(g.copy(), s, t).value
            r = parallel_push_relabel(
                g, s, t, num_threads=2, global_relabel_interval=1
            )
            assert r.value == expect
            assert_valid_flow(g, s, t)

    def test_disabled_interval_still_correct(self, rng):
        for _ in range(10):
            g, s, t = random_network(rng)
            expect = push_relabel(g.copy(), s, t).value
            r = parallel_push_relabel(
                g, s, t, num_threads=2, global_relabel_interval=0
            )
            assert r.value == expect

    def test_gr_count_reported(self, rng):
        g, s, t = bipartite_retrieval_like(rng, 40, 6, 2, 1)
        r = parallel_push_relabel(
            g, s, t, num_threads=2, global_relabel_interval=1
        )
        stats = r.extra["parallel_stats"]
        assert stats.global_relabels >= 0  # field exists and is an int
        assert isinstance(stats.global_relabels, int)

    def test_infeasible_probe_shape(self, rng):
        """Tight sink capacities strand excess — the case the heuristic
        exists for; value must still be the max-preflow-completed flow."""
        for _ in range(8):
            g, s, t = bipartite_retrieval_like(rng, 25, 4, 2, 1)
            expect = push_relabel(g.copy(), s, t).value
            r = parallel_push_relabel(g, s, t, num_threads=3)
            assert r.value == expect
            assert_valid_flow(g, s, t)


@pytest.mark.slow
class TestManyThreadsStress:
    def test_heavy_contention(self):
        rnd = random.Random(99)
        for _ in range(10):
            g, s, t = bipartite_retrieval_like(rnd, 60, 8, 2, 3)
            expect = push_relabel(g.copy(), s, t).value
            r = parallel_push_relabel(
                g, s, t, num_threads=6, global_relabel_interval=8
            )
            assert r.value == expect
            assert_valid_flow(g, s, t)
