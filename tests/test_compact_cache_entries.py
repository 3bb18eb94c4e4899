"""Snapshot-only cache entries against a network-retaining reference.

A cache miss stores only the solve's flow snapshot and its disk→sink
capacities; the entry's first hit rebuilds the network from the replica
signature and writes the capacities back.  This module replays seeded
streams twice — once as shipped, once with the reference below patched
in, whose entries keep the network their miss built (the cache's
behaviour before entries became compact) — and demands ``==`` on every
record, on ``online_stats()``, on the cache counters, and on every
surviving entry's checked-out flow and sink capacities.

Streams: offline with a repeating signature pool and with signatures
that never repeat, and online, where a mid-run failure and repair
re-plan in-flight work.  Cache sizes 1 and 2 evict entries between
their miss and their hit.  The invariant sanitizer is armed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import invariants
from repro.core.problem import RetrievalProblem
from repro.decluster import make_placement
from repro.online import OnlineConfig
from repro.service import NetworkCache, SchedulerService, ServiceConfig
from repro.storage import StorageSystem

N = 5
SEEDS = range(4)
FAIL_AT, REPAIR_AT = 12, 20


@pytest.fixture(autouse=True)
def _armed(monkeypatch):
    monkeypatch.setattr(invariants, "ENABLED", True)


PUT = NetworkCache.put


def retaining_put(self, signature, network, flow):
    """The reference: an entry keeps the network its miss built."""
    PUT(self, signature, network, flow)
    entry = self._entries.get(signature)
    if entry is not None and entry.network is None:
        entry.network, entry.sink_caps = network, None
        self._count_networks(1)


def deployment(seed):
    rng = np.random.default_rng(seed)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], N, delays_ms=[1.0, 4.0], rng=rng
    )
    return system, placement


def make_trace(seed, repeating, n_queries=36):
    """Poisson arrivals over a 4-signature pool, or all-fresh queries."""
    rng = np.random.default_rng(3000 + seed)

    def fresh():
        k = int(rng.integers(3, 9))
        cells = rng.choice(N * N, size=k, replace=False)
        return [(int(c) // N, int(c) % N) for c in cells]

    pool = [fresh() for _ in range(4)]
    clock, out = 0.0, []
    for _ in range(n_queries):
        clock += float(rng.exponential(6.0))
        coords = pool[int(rng.integers(len(pool)))] if repeating else fresh()
        out.append((clock, coords))
    return out


def replay(seed, cache_size, mode, repeating=True):
    """Run one stream; returns (answers, online stats, counters, entries)."""
    online = mode == "online"
    now = [0.0]  # the offline service's clock: the trace's arrival times
    svc = SchedulerService(
        *deployment(seed),
        config=ServiceConfig(
            mode=mode,
            cache_size=cache_size,
            solve_backend="thread",
            time_fn=lambda: now[0],
            online=OnlineConfig() if online else None,
        ),
    )
    records, victim = [], None
    try:
        for i, (arrival, coords) in enumerate(make_trace(seed, repeating)):
            if online and i == FAIL_AT:
                last = records[-1].counts_per_disk
                victim = max(range(len(last)), key=last.__getitem__)
                svc.mark_failed([victim])
            elif online and i == REPAIR_AT:
                svc.mark_repaired([victim])
            if online:
                records.append(svc.submit(coords, arrival_ms=arrival))
            else:
                now[0] = arrival
                records.append(svc.submit(coords))
        stats = None
        if online:
            svc.drain()
            stats = svc.online_stats()
        cache = svc.cache
        entries = []
        for sig, entry in cache._entries.items():
            net = entry.checkout(RetrievalProblem(svc.system, sig))
            invariants.check_valid_flow(
                net.graph, net.source, net.sink, "checked-out cache entry"
            )
            entries.append((sig, list(net.graph.flow), net.sink_caps()))
        counters = (cache.hits, cache.misses, cache.evictions)
        answers = [
            {
                k: v
                for k, v in dataclasses.asdict(r).items()
                if k != "decision_time_ms"
            }
            for r in records
        ]
        return answers, stats, counters, entries
    finally:
        svc.close()


def compare(seed, cache_size, mode, repeating, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(NetworkCache, "put", retaining_put)
        reference = replay(seed, cache_size, mode, repeating)
    got = replay(seed, cache_size, mode, repeating)
    assert got[0] == reference[0]  # every record
    assert got[1] == reference[1]  # online_stats()
    assert got[2] == reference[2]  # hits, misses, evictions
    assert got[3] == reference[3]  # surviving entries, checked out
    return got


@pytest.mark.parametrize("cache_size", [1, 2, 64])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("repeating", [True, False], ids=["repeat", "fresh"])
def test_offline_matches_retaining_reference(
    seed, cache_size, repeating, monkeypatch
):
    _, _, (hits, misses, _), entries = compare(
        seed, cache_size, "offline", repeating, monkeypatch
    )
    assert entries  # not vacuous: entries survived to be checked out
    if repeating and cache_size == 64:
        assert hits > 0
    if not repeating:
        assert hits == 0 and misses > 0


@pytest.mark.parametrize("cache_size", [1, 2, 64])
@pytest.mark.parametrize("seed", SEEDS)
def test_online_matches_retaining_reference(seed, cache_size, monkeypatch):
    _, _, (hits, _, _), _ = compare(
        seed, cache_size, "online", True, monkeypatch
    )
    if cache_size == 64:
        assert hits > 0
