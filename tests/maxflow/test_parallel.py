"""Parallel push–relabel: determinism of values, thread-safety, stats."""

from __future__ import annotations

import random

import pytest

from repro.graph import assert_valid_flow
from repro.maxflow import parallel_push_relabel, push_relabel
from tests.conftest import bipartite_retrieval_like, random_network


class TestValueAgreement:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_matches_sequential_on_random_graphs(self, rng, threads):
        for _ in range(15):
            g, s, t = random_network(rng)
            expect = push_relabel(g.copy(), s, t).value
            r = parallel_push_relabel(g, s, t, num_threads=threads)
            assert r.value == expect
            assert_valid_flow(g, s, t)

    def test_repeated_runs_same_value(self, rng):
        """Internally nondeterministic schedule, deterministic answer."""
        g, s, t = bipartite_retrieval_like(rng, 20, 6, 2, 4)
        values = set()
        for _ in range(8):
            r = parallel_push_relabel(g.copy(), s, t, num_threads=2)
            values.add(round(r.value, 9))
        assert len(values) == 1

    def test_retrieval_shaped_networks(self, rng):
        for _ in range(10):
            nb = rng.randint(1, 25)
            nd = rng.randint(1, 8)
            g, s, t = bipartite_retrieval_like(rng, nb, nd, 2, rng.randint(1, 5))
            expect = push_relabel(g.copy(), s, t).value
            assert parallel_push_relabel(g, s, t, num_threads=2).value == expect


class TestWarmStart:
    def test_warm_start_after_capacity_increase(self, rng):
        g, s, t = bipartite_retrieval_like(rng, 12, 4, 2, 1)
        parallel_push_relabel(g, s, t, num_threads=2)
        # raise every disk->sink capacity and continue from preserved flow
        for arc in list(g.arcs()):
            if arc.head == t:
                g.set_capacity(arc.index, arc.cap + 2)
        r = parallel_push_relabel(g, s, t, num_threads=2, warm_start=True)
        expect = push_relabel(g.copy(), s, t).value
        assert r.value == expect
        assert_valid_flow(g, s, t)


class TestConfig:
    def test_zero_threads_rejected(self, rng):
        g, s, t = random_network(rng)
        with pytest.raises(ValueError, match="num_threads"):
            parallel_push_relabel(g, s, t, num_threads=0)

    def test_stats_shape(self, rng):
        g, s, t = bipartite_retrieval_like(rng, 30, 8, 2, 4)
        r = parallel_push_relabel(g, s, t, num_threads=3)
        stats = r.extra["parallel_stats"]
        assert len(stats.pushes_per_thread) == 3
        assert len(stats.relabels_per_thread) == 3
        assert stats.total_pushes >= 1
        assert stats.load_balance >= 1.0

    def test_empty_graph_trivial(self):
        from repro.graph import FlowNetwork

        g = FlowNetwork(2)
        r = parallel_push_relabel(g, 0, 1, num_threads=2)
        assert r.value == 0


@pytest.mark.slow
class TestStress:
    def test_many_random_graphs_high_thread_count(self):
        rnd = random.Random(7)
        for _ in range(25):
            g, s, t = random_network(rnd, max_n=20, max_m=80)
            expect = push_relabel(g.copy(), s, t).value
            r = parallel_push_relabel(g, s, t, num_threads=4)
            assert r.value == expect
