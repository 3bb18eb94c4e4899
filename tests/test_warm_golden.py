"""Golden records and operation counts for warm-started solves.

``tests/core/data/golden_op_counts.json`` pins cold solves only.  This
module pins the warm path: four streams of 300 submits, each drawn from
a pool of 32 range queries so that most submits hit the warm-start
cache (``cache_size=64``), run through one ``SchedulerService`` offline
and online.  For every run it pins

* a digest of every record's ``(response_time_ms, assignment)``;
* the cache hits;
* the max-flow probes, pushes and relabels summed over the
  :class:`~repro.obs.ProbeEvent` s of every decision.

A change that alters what a warm start carries from one solve of a
signature to the next (the restored flow, the clamp at ``tmin``, the
sink capacities) moves the counts here even when every answer stays
the same.

Regenerate the data file only for a deliberate change in behaviour::

    PYTHONPATH=src python tests/test_warm_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.service_bench import _build_deployment
from repro.obs import ProbeTrace, capture_probes
from repro.online import OnlineConfig
from repro.service import SchedulerService, ServiceConfig
from repro.workloads import RangeQuery

DATA = Path(__file__).with_name("data") / "warm_golden.json"

N_SUBMITS = 300
POOL = 32
GAP_MS = 4.0
CACHE_SIZE = 64

#: name -> (N, range shapes drawn from, deployment and stream seed)
STREAMS = {
    "N8-3x8-seed1": (8, ((3, 8), (8, 3)), 1),
    "N8-3x8-seed2": (8, ((3, 8), (8, 3)), 2),
    "N16-6x6-seed1": (16, ((6, 6),), 1),
    "N16-6x6-seed2": (16, ((6, 6),), 2),
}
MODES = ("offline", "online")


def make_stream(n, shapes, seed):
    """Exponential arrivals (mean ``GAP_MS``) over ``POOL`` range queries."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(POOL):
        r, c = shapes[int(rng.integers(len(shapes)))]
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        pool.append(RangeQuery(i, j, r, c, n).buckets())
    clock, out = 0.0, []
    for _ in range(N_SUBMITS):
        clock += float(rng.exponential(GAP_MS))
        out.append((clock, pool[int(rng.integers(POOL))]))
    return out


def observe(name, mode) -> dict:
    n, shapes, seed = STREAMS[name]
    system, placement = _build_deployment(n, seed)
    online = mode == "online"
    svc = SchedulerService(
        system,
        placement,
        ServiceConfig(
            mode=mode,
            cache_size=CACHE_SIZE,
            solve_backend="thread",
            online=OnlineConfig() if online else None,
        ),
    )
    digest = hashlib.sha256()
    trace = ProbeTrace()
    hits = 0
    try:
        for arrival, coords in make_stream(n, shapes, seed):
            with capture_probes(trace):
                record = svc.submit(coords, arrival_ms=arrival)
            hits += record.cache_hit
            answer = (record.response_time_ms, sorted(record.assignment.items()))
            digest.update(repr(answer).encode())
        if online:
            svc.drain()
    finally:
        svc.close()
    totals = trace.totals()
    return {
        "records": digest.hexdigest(),
        "hits": hits,
        "probes": totals["probes"],
        "pushes": totals["pushes"],
        "relabels": totals["relabels"],
    }


def record() -> dict:
    return {f"{name} {mode}": observe(name, mode) for name in STREAMS for mode in MODES}


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_stream_set_is_pinned():
    assert sorted(GOLDEN) == sorted(
        f"{name} {mode}" for name in STREAMS for mode in MODES
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", list(STREAMS))
def test_matches_recorded(name, mode):
    got = observe(name, mode)
    # signatures repeat, so nearly every submit starts warm
    assert got["hits"] >= N_SUBMITS * 3 // 4
    assert got == GOLDEN[f"{name} {mode}"]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    rows = [
        f"{json.dumps(key)}: {json.dumps(obs, sort_keys=True)}"
        for key, obs in record().items()
    ]
    DATA.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {DATA}")
