"""A warm start never costs more than a cold solve, and never changes one.

Seeded streams of small range queries drawn from a pool of signatures
run twice through one deployment: with the warm-start cache
(``cache_size=64``) and without it (``cache_size=0``), offline and
online.  Every record must be ``==`` across the two runs (the cache only
changes ``cache_hit`` and the decision latency).

Each decision runs under a probe trace.  A cold solve whose sink
capacities at ``tmin`` are all 0 answers its anchor from the zero cut
(its first trace event is ``cut_certified``).  A warm solve at such a
decision starts from a restored flow that the clamp zeroes, so it too
must answer the anchor without a max flow: it may run no more probes
than the cold solve of the same decision.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.decluster import make_placement
from repro.obs import ProbeTrace, capture_probes
from repro.online import OnlineConfig
from repro.service import SchedulerService, ServiceConfig
from repro.storage import StorageSystem
from repro.workloads import RangeQuery

N = 8
SEEDS = (1, 2, 3)
N_QUERIES = 120
PROBE_PHASES = ("anchor", "binary", "increment")


def make_trace(seed):
    """Exponential arrivals over a pool of 24 small range queries."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(24):
        r, c = (int(x) for x in rng.integers(2, 5, size=2))
        i, j = (int(x) for x in rng.integers(0, N, size=2))
        pool.append(RangeQuery(i, j, r, c, N).buckets())
    clock, out = 0.0, []
    for _ in range(N_QUERIES):
        clock += float(rng.exponential(12.0))
        out.append((clock, pool[int(rng.integers(len(pool)))]))
    return out


def replay(seed, cache_size, mode):
    """Run one stream; returns (answers, probe traces, cache hits)."""
    rng = np.random.default_rng(100 + seed)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], N, delays_ms=[1.0, 4.0], rng=rng
    )
    online = mode == "online"
    svc = SchedulerService(
        system,
        placement,
        ServiceConfig(
            mode=mode,
            cache_size=cache_size,
            solve_backend="thread",
            online=OnlineConfig() if online else None,
        ),
    )
    answers, traces, hits = [], [], 0
    try:
        for arrival, coords in make_trace(seed):
            trace = ProbeTrace()
            with capture_probes(trace):
                record = svc.submit(coords, arrival_ms=arrival)
            hits += record.cache_hit
            answer = dataclasses.asdict(record)
            del answer["decision_time_ms"], answer["cache_hit"]
            answers.append(answer)
            traces.append(trace.events)
        if online:
            svc.drain()
    finally:
        svc.close()
    return answers, traces, hits


def probes(events):
    return sum(1 for ev in events if ev.phase in PROBE_PHASES)


@pytest.mark.parametrize("mode", ["offline", "online"])
@pytest.mark.parametrize("seed", SEEDS)
def test_warm_matches_cold_and_costs_no_more(seed, mode):
    warm_answers, warm_traces, warm_hits = replay(seed, 64, mode)
    cold_answers, cold_traces, cold_hits = replay(seed, 0, mode)
    assert warm_answers == cold_answers
    # signatures repeat, so the warm side mostly starts warm
    assert cold_hits == 0 and warm_hits >= N_QUERIES // 2

    zero_anchor = [
        i for i, events in enumerate(cold_traces)
        if events and events[0].phase == "cut_certified"
    ]
    # the stream must exercise the rule
    assert len(zero_anchor) >= N_QUERIES // 4
    extra = [
        i for i in zero_anchor
        if probes(warm_traces[i]) > probes(cold_traces[i])
    ]
    assert not extra, (
        f"warm side ran more probes than cold at {len(extra)} zero-anchor "
        f"decisions, first {extra[:5]}"
    )
