"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

import pytest

from repro.graph import FlowNetwork

if TYPE_CHECKING:  # pragma: no cover
    import networkx


@pytest.fixture
def rng():
    """A seeded stdlib RNG; per-test determinism."""
    return random.Random(0xC0FFEE)


def random_network(
    rnd: random.Random, *, max_n: int = 14, max_m: int = 40, max_cap: int = 12
) -> tuple[FlowNetwork, int, int]:
    """Build a random multigraph flow network with s=0, t=n-1."""
    n = rnd.randint(2, max_n)
    g = FlowNetwork(n)
    for _ in range(rnd.randint(1, max_m)):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            g.add_arc(u, v, rnd.randint(0, max_cap))
    return g, 0, n - 1


def bipartite_retrieval_like(
    rnd: random.Random, n_buckets: int, n_disks: int, replicas: int, disk_cap: int
) -> tuple[FlowNetwork, int, int]:
    """Build a source→buckets→disks→sink network shaped like the paper's."""
    g = FlowNetwork(2 + n_buckets + n_disks)
    s, t = 0, 1
    bucket0, disk0 = 2, 2 + n_buckets
    for b in range(n_buckets):
        g.add_arc(s, bucket0 + b, 1)
        for d in rnd.sample(range(n_disks), min(replicas, n_disks)):
            g.add_arc(bucket0 + b, disk0 + d, 1)
    for d in range(n_disks):
        g.add_arc(disk0 + d, t, disk_cap)
    return g, s, t


def to_networkx(g: FlowNetwork) -> "networkx.DiGraph":
    """``g`` as a :class:`networkx.DiGraph` with ``capacity`` attributes.

    The max-flow oracle for the engine tests.  Parallel forward arcs
    between one vertex pair have their capacities summed, matching
    max-flow semantics.
    """
    import networkx as nx

    h = nx.DiGraph()
    h.add_nodes_from(g.vertices())
    for arc in g.arcs():
        if h.has_edge(arc.tail, arc.head):
            h[arc.tail][arc.head]["capacity"] += arc.cap
        else:
            h.add_edge(arc.tail, arc.head, capacity=arc.cap)
    return h
