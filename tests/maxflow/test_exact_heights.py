"""Exactness of ``PushRelabelState._global_relabel``.

The engine's exact-height pass counts the height histogram inside its
BFS, skips the BFS from ``s`` when ``s`` itself reaches ``t``, and runs
that BFS only over the vertices the BFS from ``t`` left at ``INF``.
This file keeps the plain form as the reference: a full backward BFS
from ``t``, a full backward BFS from ``s``, and a separate histogram
pass.  Every global relabel of every solve below — the initial one of
each probe and, with ``initial_heights="zero"``, the periodic mid-run
ones — must leave the same heights, histogram and current-arc pointers.
"""

from __future__ import annotations

import random

import pytest

from repro.core import solve
from repro.graph import FlowNetwork
from repro.maxflow import PushRelabelState, push_relabel
from tests.conftest import random_network
from tests.core.test_golden_op_counts import instances


def reference_heights(g: FlowNetwork, s: int, t: int):
    """Heights and histogram from two full BFS passes plus a count pass."""
    n = g.n
    INF = 2 * n
    head, cap, flow, adj = g.arrays()

    def backward_bfs(root: int) -> list[int]:
        dist = [INF] * n
        dist[root] = 0
        queue = [root]
        for v in queue:
            for a in adj[v]:
                b = a ^ 1  # the arc head[a] -> v
                w = head[a]
                if cap[b] > flow[b] and dist[w] > dist[v] + 1:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    to_t = backward_bfs(t)
    to_s = backward_bfs(s)
    height = list(to_t)
    height[s] = n
    for v in range(n):
        if v != s and height[v] >= INF:
            height[v] = min(n + to_s[v], INF)
    height_count = [0] * (INF + 1)
    for h in height:
        height_count[h] += 1
    return height, height_count


@pytest.fixture
def checked(monkeypatch):
    """Compare every global relabel with the reference; count them."""
    seen = []
    real = PushRelabelState._global_relabel

    def global_relabel(self):
        real(self)
        height, height_count = reference_heights(self.g, self.s, self.t)
        assert self.height == height
        assert self.height_count == height_count
        assert self.current == [0] * self.g.n
        seen.append(height)

    monkeypatch.setattr(PushRelabelState, "_global_relabel", global_relabel)
    return seen


GOLDEN = list(instances())


@pytest.mark.parametrize(
    "key,problem", GOLDEN, ids=[key for key, _ in GOLDEN]
)
def test_golden_retrieval_solves(checked, key, problem):
    schedule = solve(problem, solver="pr-binary")
    assert schedule.stats.probes and len(checked) == schedule.stats.probes
    # the infeasible probes strand vertices below s, so the BFS from s
    # assigns heights
    n = len(checked[0])
    assert any(n < h < 2 * n for heights in checked for h in heights)


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("mode", ["exact", "zero"])
def test_random_generic_graphs(checked, seed, mode):
    rnd = random.Random(seed)
    g, s, t = random_network(rnd, max_n=16, max_m=48)
    # an extra arc into s and an isolated vertex, which reaches
    # neither t nor s and so stays at INF
    g.add_arc(rnd.randrange(1, g.n), s, rnd.randint(1, 5))
    g.add_vertex()
    interval = rnd.choice([1, 2, 3]) if mode == "zero" else None
    cold = push_relabel(
        g, s, t, initial_heights=mode, global_relabel_interval=interval
    )
    # a warm re-solve after raising some capacities
    for a in range(0, g.num_arc_slots, 2):
        if rnd.random() < 0.3:
            g.cap[a] += rnd.randint(0, 3)
    warm = push_relabel(
        g, s, t, warm_start=True, initial_heights=mode,
        global_relabel_interval=interval,
    )
    assert warm.value >= cold.value
    if mode == "exact":
        assert len(checked) == 2
    else:
        assert len(checked) == cold.extra["global_relabels"] + warm.extra[
            "global_relabels"
        ]


def test_zero_mode_runs_mid_run_global_relabels(checked):
    """The random suite above does exercise the periodic relabel."""
    total = 0
    for seed in range(60):
        rnd = random.Random(seed)
        g, s, t = random_network(rnd, max_n=16, max_m=48)
        total += push_relabel(
            g, s, t, initial_heights="zero", global_relabel_interval=1
        ).extra["global_relabels"]
    assert total == len(checked) > 0


def test_unreachable_vertices_and_arcs_into_source(checked):
    """A hand-built residual graph with an arc into s, a vertex that
    reaches nothing, and vertices that reach t only through s."""
    g = FlowNetwork(6)
    s, t, w, x, y, z = range(6)
    sz = g.add_arc(s, z, 3)
    zt = g.add_arc(z, t, 3)
    g.add_arc(w, s, 2)
    g.add_arc(y, w, 2)
    g.add_arc(s, x, 1)
    n, INF = g.n, 2 * g.n
    state = PushRelabelState(g, s, t)
    # zero flow: s reaches t, so w and y carry t-distances through s
    # and the BFS from s is skipped
    state._global_relabel()
    assert checked[-1] == [n, 0, 3, INF, 4, 1]
    # saturate s->z->t: s is cut off from t, and z, w, y hang below s
    for a in (sz, zt):
        g.flow[a], g.flow[a ^ 1] = 3, -3
    state._global_relabel()
    assert checked[-1] == [n, 0, n + 1, INF, n + 2, n + 1]
