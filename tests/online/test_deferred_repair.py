"""Deferred decremental repair against the eager reference.

A drain records its released units against the cache entry in O(1)
(``NetworkCache.release``); the flow surgery runs at the entry's next
checkout.  This module replays repeating 3-signature streams twice —
once as shipped, once with the eager reference below patched in, which
repairs the snapshot on every drain — and demands ``==`` on every
record, on ``online_stats()``, on the cache counters, and on every
surviving entry's checked-out flow and sink capacities.  Cache sizes 1
and 2 evict entries while releases are pending; a mid-run failure and
repair re-plan in-flight work.  The invariant sanitizer is armed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import invariants
from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.decluster import make_placement
from repro.graph.flownetwork import FlowNetwork
from repro.online import OnlineConfig
from repro.service import NetworkCache, SchedulerService, ServiceConfig
from repro.storage import StorageSystem

N = 5
SEEDS = range(8)
FAIL_AT, REPAIR_AT = 12, 20


@pytest.fixture(autouse=True)
def _armed(monkeypatch):
    monkeypatch.setattr(invariants, "ENABLED", True)


def eager_release(self, signature, disk, units):
    """The reference: repair the entry's snapshot on every drain.

    An entry that holds no network yet is repaired on a scratch network
    carrying its sink capacities, and stays network-less.
    """
    entry = self._entries.get(signature)
    if entry is None or entry.flow is None:
        return 0
    net = entry.network
    if net is None:
        # the topology depends on the signature and the disk count only
        net = RetrievalNetwork(RetrievalProblem(TOPOLOGY_SYSTEM, signature))
        net.set_sink_caps(entry.sink_caps)
    net.graph.restore_flow(entry.flow)
    released = net.release_flow(disk, units)
    if released:
        net.decrement_sink_cap(disk, released)
        entry.flow = net.graph.save_flow()
        if entry.network is None:
            entry.sink_caps = net.sink_caps()
    return released


def deployment(seed):
    rng = np.random.default_rng(seed)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], N, delays_ms=[1.0, 4.0], rng=rng
    )
    return system, placement


#: any system with the deployments' disk count, for scratch networks
TOPOLOGY_SYSTEM = deployment(0)[0]


def make_trace(seed, n_queries=40):
    """Poisson arrivals cycling over three signatures."""
    rng = np.random.default_rng(2000 + seed)
    pool = []
    for _ in range(3):
        k = int(rng.integers(3, 9))
        cells = rng.choice(N * N, size=k, replace=False)
        pool.append([(int(c) // N, int(c) % N) for c in cells])
    clock, out = 0.0, []
    for _ in range(n_queries):
        clock += float(rng.exponential(6.0))
        out.append((clock, pool[int(rng.integers(len(pool)))]))
    return out


def replay(seed, cache_size, repair=True):
    """Run one trace; returns (records, stats, cache counters, entries)."""
    svc = SchedulerService(
        *deployment(seed),
        config=ServiceConfig(
            mode="online",
            cache_size=cache_size,
            solve_backend="thread",
            online=OnlineConfig(repair=repair),
        ),
    )
    records, victim = [], None
    try:
        for i, (arrival, coords) in enumerate(make_trace(seed)):
            if i == FAIL_AT:
                last = records[-1].counts_per_disk
                victim = max(range(len(last)), key=last.__getitem__)
                svc.mark_failed([victim])
            elif i == REPAIR_AT:
                svc.mark_repaired([victim])
            records.append(svc.submit(coords, arrival_ms=arrival))
        svc.drain()
        cache = svc.cache
        entries = []
        for sig, entry in cache._entries.items():
            problem = RetrievalProblem(svc.system, sig)
            net = entry.checkout(problem)
            invariants.check_valid_flow(
                net.graph, net.source, net.sink, "checked-out cache entry"
            )
            assert not entry.pending
            state = (sig, list(net.graph.flow), net.sink_caps())
            # the repaired flow is the new snapshot: a second checkout
            # (say, after a solve that raised) sees the same state
            net = entry.checkout(problem)
            assert (sig, list(net.graph.flow), net.sink_caps()) == state
            entries.append(state)
        counters = (cache.hits, cache.misses, cache.evictions)
        return records, svc.online_stats(), counters, entries
    finally:
        svc.close()


def answer(rec):
    return (
        rec.query_id,
        rec.arrival_ms,
        rec.response_time_ms,
        rec.completion_ms,
        rec.predicted_ms,
        rec.assignment,
        rec.cache_hit,
        rec.counts_per_disk,
        rec.loads_before,
        rec.failed_disks,
        rec.degraded,
    )


@pytest.mark.parametrize("cache_size", [1, 2, 64])
@pytest.mark.parametrize("seed", SEEDS)
def test_deferred_repair_matches_eager_reference(seed, cache_size, monkeypatch):
    pending_hits = []
    checkout = NetworkCache.checkout

    def spy(self, problem):
        entry = self._entries.get(problem.replicas)
        pending_hits.append(entry is not None and bool(entry.pending))
        return checkout(self, problem)

    with monkeypatch.context() as m:
        m.setattr(NetworkCache, "release", eager_release)
        ref_records, ref_stats, ref_counters, ref_entries = replay(
            seed, cache_size
        )
    monkeypatch.setattr(NetworkCache, "checkout", spy)
    records, stats, counters, entries = replay(seed, cache_size)

    assert [answer(r) for r in records] == [answer(r) for r in ref_records]
    assert stats == ref_stats
    assert counters == ref_counters
    assert entries == ref_entries
    # not vacuous: warm hits happened and drains released units
    assert counters[0] > 0
    assert stats.released_units > 0 and stats.repairs > 0
    if cache_size == 64:
        # and at least one hit applied releases deferred to it
        assert any(pending_hits)


def test_a_drain_touches_no_flow():
    """Drains are O(1): no snapshot restore, copy or bucket scan."""
    svc = SchedulerService(
        *deployment(0),
        config=ServiceConfig(mode="online", solve_backend="thread"),
    )
    try:
        for arrival, coords in make_trace(0, n_queries=10):
            svc.submit(coords, arrival_ms=arrival)
        calls = []
        spied = [
            (FlowNetwork, "restore_flow"),
            (FlowNetwork, "save_flow"),
            (RetrievalNetwork, "release_flow"),
            (RetrievalNetwork, "decrement_sink_cap"),
        ]
        with pytest.MonkeyPatch.context() as m:
            for cls, name in spied:
                m.setattr(cls, name, lambda *a, _n=name: calls.append(_n))
            svc.drain()
        assert calls == []
        stats = svc.online_stats()
        assert stats.released_units > 0
        pending = [e.pending for e in svc.cache._entries.values()]
        assert any(pending)
        # bounded by the disks: one int per disk at most
        assert all(len(p) <= svc.system.num_disks for p in pending)
    finally:
        svc.close()


def test_repair_off_records_nothing():
    """``repair=False``: drains happen and the cache hits, but nothing
    is released."""
    _, stats, counters, _ = replay(3, 64, repair=False)
    assert stats.released_units == 0 and stats.repairs == 0
    assert stats.drains > 0 and counters[0] > 0
