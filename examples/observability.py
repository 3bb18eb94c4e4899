#!/usr/bin/env python3
"""Observability walkthrough: probe traces, metrics, exporters.

Three stops:

1. trace one solve and read the probe sequence the integrated algorithm
   actually ran — the anchor probe, the narrowing bisection bracket, the
   min-cost increments — and compare the push work black-box scaling
   spends on the *same* instance (the in-process view of Figures 7-9);
2. run a repeating query mix through an ``api.Scheduler`` handle and
   read its
   always-on registry: decision/response latency percentiles, per-disk
   backlog gauges, and the warm-start network cache's hit/miss/eviction
   counters;
3. export both — the trace as JSON lines (and parse it back), the
   registry in Prometheus text exposition format.

Run:  python examples/observability.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import api
from repro.core import RetrievalProblem, solve
from repro.decluster import make_placement
from repro.obs import read_trace_jsonl, to_prometheus, write_trace_jsonl
from repro.service import ServiceConfig
from repro.storage import StorageSystem


def build(N: int = 8, seed: int = 7):
    rng = np.random.default_rng(seed)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], N, delays_ms=[2.0, 6.0], rng=rng
    )
    system.set_loads(rng.choice([0.0, 3.0, 6.0], size=system.num_disks))
    return placement, system, rng


def main() -> None:
    N = 8
    placement, system, rng = build(N)

    # ------------------------------------------------------------------
    # 1. Trace one solve: what did the integrated algorithm actually do?
    # ------------------------------------------------------------------
    cells = rng.choice(N * N, size=18, replace=False)
    coords = [(int(c) // N, int(c) % N) for c in cells]
    problem = RetrievalProblem.from_query(system, placement, coords)

    schedule = solve(problem, trace=True)  # pr-binary, tracing opted in
    trace = schedule.stats.extra["trace"]
    print(f"integrated solve: {schedule.summary()}")
    print(f"probe trace ({len(trace)} events):")
    print(f"  {'phase':<10} {'t (ms)':>9} {'flow':>5}  feasible  pushes")
    for ev in trace:
        print(f"  {ev.phase:<10} {ev.t:>9.2f} {ev.flow:>5.0f}  "
              f"{str(ev.feasible):<8}  {ev.pushes:>6}")

    # The black-box baseline on the same instance re-solves every probe
    # from scratch; its summed per-probe pushes tell the paper's story.
    bb = solve(problem, solver="blackbox-binary", trace=True)
    bb_pushes = bb.stats.extra["trace"].totals()["pushes"]
    int_pushes = trace.totals()["pushes"]
    print(f"\nflow conservation in numbers: integrated spent {int_pushes} "
          f"pushes,\nblack-box spent {bb_pushes} on the identical query "
          f"({bb_pushes / max(int_pushes, 1):.1f}x)")

    # ------------------------------------------------------------------
    # 2. Service metrics: always-on registry on the scheduling facade.
    #    Real frontends see repeating queries, so draw from a small pool
    #    of signatures — that's what the warm-start cache feeds on.
    # ------------------------------------------------------------------
    sched = api.Scheduler(ServiceConfig(cache_size=32)).local(
        system, placement
    )
    svc = sched.service  # the underlying service, for registry access
    query_rng = np.random.default_rng(11)
    pool = []
    for _ in range(8):
        k = int(query_rng.integers(2, 9))
        cells = query_rng.choice(N * N, size=k, replace=False)
        pool.append([(int(c) // N, int(c) % N) for c in cells])
    for _ in range(25):
        sched.submit(pool[int(query_rng.integers(len(pool)))])

    st = sched.stats()
    decision = svc.registry.get("repro_service_decision_ms").summary()
    response = svc.registry.get("repro_service_response_ms").summary()
    print(f"\nservice after {st.queries} queries:")
    print(f"  decision latency p50/p95/p99: {decision.p50:.3f} / "
          f"{decision.p95:.3f} / {decision.p99:.3f} ms")
    print(f"  response time   p50/p95/p99: {response.p50:.2f} / "
          f"{response.p95:.2f} / {response.p99:.2f} ms")
    depths = [
        svc.registry.get("repro_service_queue_depth_ms", {"disk": str(j)}).value
        for j in range(system.num_disks)
    ]
    print(f"  busiest disk backlog: {max(depths):.2f} ms "
          f"(disk {depths.index(max(depths))})")
    hits = svc.registry.get("repro_service_cache_hits_total").value
    misses = svc.registry.get("repro_service_cache_misses_total").value
    entries = svc.registry.get("repro_service_cache_entries").value
    print(f"  warm-start cache: {hits:.0f} hits / {misses:.0f} misses "
          f"({hits / (hits + misses):.0%} hit rate), "
          f"{entries:.0f} networks resident")

    # ------------------------------------------------------------------
    # 3. Exporters: JSONL trace round-trip + Prometheus text format.
    # ------------------------------------------------------------------
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".jsonl", delete=False
    ) as f:
        path = write_trace_jsonl(trace, f.name)
    parsed = read_trace_jsonl(path)
    assert parsed.events == trace.events, "JSONL round-trip must be lossless"
    print(f"\ntrace round-tripped through {path} "
          f"({len(parsed)} events, lossless)")

    exposition = to_prometheus(svc.registry)
    print("Prometheus exposition (first 12 lines):")
    for line in exposition.splitlines()[:12]:
        print(f"  {line}")
    print(f"  ... ({len(exposition.splitlines())} lines total)")


if __name__ == "__main__":
    main()
