"""The online-vs-offline replay differential (ISSUE acceptance).

For 50 seeded arrival traces (25 seeds x cold/warm cache), drain the
online scheduler and re-solve every completed query's static snapshot
— the initial loads it was admitted under and the failure set it routed
around — as an offline batch problem.  The makespans must be equal
**bit for bit** on every record; per-disk flows must be bit-for-bit
equal on every cold-path record (a warm cache hit may route the same
optimal value differently, which is exactly the tie-break freedom the
paper's certificate allows — the value is still demanded exact).

Decremental repair must also never leave a cached network in a state
the invariant sanitizer rejects: the sanitizer is armed for the whole
module, and every surviving cache entry is checked out (its pending
releases applied) and re-checked after the drain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import invariants
from repro.core.api import solve
from repro.core.degraded import degrade_problem
from repro.core.problem import RetrievalProblem
from repro.decluster import make_placement
from repro.online import OnlineConfig
from repro.service import SchedulerService, ServiceConfig
from repro.storage import StorageSystem

N = 5
SEEDS = range(25)


@pytest.fixture(autouse=True)
def _armed(monkeypatch):
    monkeypatch.setattr(invariants, "ENABLED", True)


def deployment(seed):
    rng = np.random.default_rng(seed)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], N, delays_ms=[1.0, 4.0], rng=rng
    )
    return system, placement


def make_trace(seed, n_queries=6):
    """Poisson arrivals over a small signature pool (so the warm leg
    actually hits the cache and repairs warm networks)."""
    rng = np.random.default_rng(1000 + seed)
    pool = []
    for _ in range(3):
        k = int(rng.integers(2, 8))
        cells = rng.choice(N * N, size=k, replace=False)
        pool.append([(int(c) // N, int(c) % N) for c in cells])
    clock, out = 0.0, []
    for _ in range(n_queries):
        clock += float(rng.exponential(8.0))
        out.append((clock, pool[int(rng.integers(len(pool)))]))
    return out


def check_cache_integrity(svc):
    """Every surviving warm network, in its checked-out state (pending
    releases applied), must be a valid flow under the armed sanitizer —
    repair left no poisoned entries behind."""
    cache = svc._cache
    if cache is None:
        return
    for sig, entry in cache._entries.items():
        if entry.flow is None:
            continue
        net = entry.checkout(RetrievalProblem(svc.system, sig))
        assert not entry.pending
        invariants.check_valid_flow(
            net.graph, net.source, net.sink, "post-drain cache entry"
        )


@pytest.mark.parametrize("cache_size", [0, 64], ids=["cold", "warm"])
@pytest.mark.parametrize("seed", SEEDS)
def test_online_replay_matches_offline_optimum(seed, cache_size):
    system, placement = deployment(seed)
    svc = SchedulerService(
        system,
        placement,
        config=ServiceConfig(
            mode="online", cache_size=cache_size, online=OnlineConfig()
        ),
    )
    trace = make_trace(seed)
    records = []
    try:
        for i, (arrival, coords) in enumerate(trace):
            rec = svc.submit(coords, arrival_ms=arrival)
            records.append(rec)
            if seed % 3 == 0 and i == 2:
                # failure drill mid-trace: later records must route
                # around the victim and say so in their snapshot
                victim = max(
                    range(len(rec.counts_per_disk)),
                    key=rec.counts_per_disk.__getitem__,
                )
                svc.mark_failed([victim])
        svc.drain()
        assert svc.online_stats().completed == len(records)
        check_cache_integrity(svc)
    finally:
        svc.close()

    # offline replay: fresh hardware, each record's exact static snapshot
    system2, placement2 = deployment(seed)
    for rec in records:
        system2.set_loads(rec.loads_before)
        problem = RetrievalProblem.from_query(
            system2, placement2, list(rec.assignment.keys())
        )
        if rec.failed_disks:
            problem = degrade_problem(problem, frozenset(rec.failed_disks))
        offline = solve(problem, solver="pr-binary")
        assert offline.response_time_ms == rec.response_time_ms
        if not rec.cache_hit:
            assert tuple(offline.counts_per_disk()) == rec.counts_per_disk
        else:
            # a warm hit may tie-break differently; the flow value and
            # optimal makespan must still agree exactly
            assert sum(offline.counts_per_disk()) == sum(rec.counts_per_disk)
