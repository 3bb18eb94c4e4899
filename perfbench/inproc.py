"""In-process workloads: ``cold-solve`` and ``online-churn``.

Both drive one ``SchedulerService`` from one caller in a closed loop,
with arrivals taken from a Poisson trace on a virtual clock (passed in as
``arrival_ms``).  The trace has a fixed length and is replayed in
*epochs*, each on a fresh service, until the run's time is used up.  So
every commit does the same work per epoch, and every epoch must give the
same answers and the same operation counts: that is checked in every
run.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from common import (
    Calibration,
    Component,
    Tracer,
    mean,
    poisson_arrivals,
    quantile,
    stratified_queries,
)

COLD = {
    "n": 32,
    "queries": 90,
    "mean_gap_ms": 50.0,
    "blend": [Component(0.5, 2, "range"), Component(0.5, 2, "arbitrary")],
    "gate_prefix": 24,
}

ONLINE = {
    "n": 16,
    # 9 fail/repair cycles per epoch: a re-plan costs 1-200 ms with the
    # in-flight population, so a few cycles would make the epoch time
    # depend on the seed more than on the code
    "queries": 400,
    # at an 8 ms mean gap the disks run near saturation, and the
    # in-flight population (so the re-plan cost) varied 13x by seed
    "mean_gap_ms": 12.0,
    "blend": [Component(0.7, 3, "range"), Component(0.3, 2, "arbitrary")],
    "fail_every": 40,
    "repair_after": 15,
}


@dataclass
class Trace:
    n: int
    seed: int
    queries: list[Any]
    arrivals: list[float]
    #: arrival index -> [("fail" | "repair", disk)], applied before it
    events: dict[int, list[tuple[str, int]]] = field(default_factory=dict)


def make_trace(params: dict, seed: int) -> Trace:
    rng = np.random.default_rng(seed)
    n = params["n"]
    queries = stratified_queries(n, params["queries"], params["blend"], rng)
    arrivals = poisson_arrivals(len(queries), params["mean_gap_ms"], rng)
    trace = Trace(n, seed, queries, arrivals)
    every = params.get("fail_every")
    if every:
        # failures stay on site 0 (disks 0..n-1), one at a time: every
        # bucket keeps its site-1 replica, so the known re-plan defect
        # (a query admitted degraded never moves back to a repaired
        # disk) cannot leave a bucket without replicas
        for k in range(every, len(queries), every):
            disk = int(rng.integers(0, n))
            trace.events.setdefault(k, []).append(("fail", disk))
            trace.events.setdefault(k + params["repair_after"], []).append(
                ("repair", disk)
            )
    return trace


def build_service(trace: Trace, **config: Any) -> Any:
    from repro.bench.service_bench import _build_deployment
    from repro.service import SchedulerService, ServiceConfig

    system, placement = _build_deployment(trace.n, trace.seed)
    return SchedulerService(system, placement, config=ServiceConfig(**config))


#: sample the host speed once per this much submit time
CALIB_EVERY_MS = 10.0


@dataclass
class Epoch:
    """One replay of the trace on a fresh service.

    ``wall_s`` is the query path's time: it leaves out the host-speed
    samples taken in between and the failure and repair calls, whose
    cost is reported on its own (``replan_ms``).
    """

    wall_s: float
    submit_ms: list[float]
    gap_ms: list[float]
    replan_ms: list[float]
    #: the records; ``run_epochs`` keeps them for the first epoch only
    records: list[Any]
    #: (makespan, assignment hash) per record, to compare epochs cheaply
    answers: list[tuple[float, int]]
    errors: list[str]
    attempted: int
    #: operation counts that must repeat exactly for a seed
    counts: dict[str, int]
    #: host slowness over the epoch (1.0 when not calibrated)
    slowness: float = 1.0


def _span(tracer: Tracer | None, name: str, rid: Any) -> Any:
    return tracer.span(name, rid) if tracer else contextlib.nullcontext()


def replay(
    trace: Trace,
    tracer: Tracer | None = None,
    *,
    online: bool = False,
    limit: int | None = None,
    calibrate: bool = False,
) -> Epoch:
    """Submit the trace (or its first ``limit`` queries) to a fresh service.

    With ``calibrate``, the host speed is sampled between submits, about
    once per ``CALIB_EVERY_MS`` of submit time.
    """
    from repro.errors import ReproError

    svc = build_service(trace, mode="online" if online else "offline")
    root = "online.submit" if online else "service.submit"
    count = len(trace.queries) if limit is None else limit
    submit_ms: list[float] = []
    gap_ms: list[float] = []
    replan_ms: list[float] = []
    records: list[Any] = []
    errors: list[str] = []
    attempted = 0
    calib = Calibration()
    calib_ms = 0.0
    since_sample = CALIB_EVERY_MS
    t_start = time.perf_counter()
    prev_end = None
    for k in range(count):
        if prev_end is not None:
            gap_ms.append((time.perf_counter() - prev_end) * 1000.0)
        for op, disk in trace.events.get(k, ()):
            attempted += 1
            t0 = time.perf_counter()
            try:
                with _span(tracer, "online.replan", f"{op}-{k}"):
                    if op == "fail":
                        svc.mark_failed([disk])
                    else:
                        svc.mark_repaired([disk])
            except ReproError as exc:
                errors.append(f"{op} disk {disk} at arrival {k}: {exc!r}")
            replan_ms.append((time.perf_counter() - t0) * 1000.0)
        if calibrate and since_sample >= CALIB_EVERY_MS:
            calib_ms += calib.sample()
            since_sample = 0.0
        attempted += 1
        t0 = time.perf_counter()
        try:
            with _span(tracer, root, k):
                records.append(
                    svc.submit(trace.queries[k], arrival_ms=trace.arrivals[k])
                )
        except ReproError as exc:
            errors.append(f"submit {k}: {exc!r}")
        prev_end = time.perf_counter()
        submit_ms.append((prev_end - t0) * 1000.0)
        since_sample += submit_ms[-1]
    counts = {
        "cache_hits": svc.cache.hits,
        "cache_misses": svc.cache.misses,
        "cache_evictions": svc.cache.evictions,
    }
    if online:
        svc.drain()
        st = svc.online_stats()
        counts.update(
            completed=st.completed,
            drains=st.drains,
            repairs=st.repairs,
            released_units=st.released_units,
            replans=st.replans,
        )
    wall = (
        time.perf_counter() - t_start - (calib_ms + sum(replan_ms)) / 1000.0
    )
    svc.close()
    answers = [
        (r.response_time_ms, hash(tuple(sorted(r.assignment.items()))))
        for r in records
    ]
    return Epoch(
        wall, submit_ms, gap_ms, replan_ms, records, answers, errors, attempted,
        counts, calib.slowness if calib.samples else 1.0,
    )


def run_epochs(make: Callable[[], Epoch], seconds: float) -> list[Epoch]:
    """Replay epochs while the next one is expected to fit in ``seconds``."""
    epochs: list[Epoch] = []
    t0 = time.perf_counter()
    while True:
        epochs.append(make())
        if len(epochs) > 1:
            # later epochs keep only their answer digests: holding every
            # epoch's records would grow the peak RSS with the epoch count
            epochs[-1].records = []
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(epochs) > seconds:
            return epochs


def check_epochs(epochs: list[Epoch]) -> list[str]:
    """Every epoch must repeat the first one's answers and counts."""
    first = epochs[0]
    problems: list[str] = []
    for k, ep in enumerate(epochs[1:], 1):
        if ep.counts != first.counts:
            problems.append(f"epoch {k} counts {ep.counts} != {first.counts}")
        if ep.answers != first.answers:
            problems.append(f"epoch {k} answers differ from epoch 0")
    return problems


def check_cold(trace: Trace, records: list[Any], prefix: int) -> list[str]:
    """Serial replay of a prefix with the cache off: makespans exactly ==.

    The replay runs the CSR kernel (``pr-csr``), so a fault in either
    kernel, as well as in the warm-start path, shows as a mismatch.
    """
    svc = build_service(trace, cache_size=0, solver="pr-csr")
    problems = []
    for k in range(min(prefix, len(records))):
        cold = svc.submit(trace.queries[k], arrival_ms=trace.arrivals[k])
        if cold.response_time_ms != records[k].response_time_ms:
            problems.append(
                f"query {k}: cached {records[k].response_time_ms} != "
                f"cache-off {cold.response_time_ms}"
            )
    return problems


def check_online(trace: Trace, records: list[Any]) -> list[str]:
    """Re-solve each record offline from its admission snapshot: bit for bit.

    The re-solve runs the CSR kernel (``pr-csr``), not the service's own.
    """
    from repro.bench.service_bench import _build_deployment
    from repro.core.api import solve
    from repro.core.degraded import degrade_problem
    from repro.core.problem import RetrievalProblem

    system, placement = _build_deployment(trace.n, trace.seed)
    problems = []
    for rec in records:
        system.set_loads(list(rec.loads_before))
        problem = RetrievalProblem.from_query(
            system, placement, list(rec.assignment.keys())
        )
        if rec.failed_disks:
            problem = degrade_problem(problem, frozenset(rec.failed_disks))
        offline = solve(problem, solver="pr-csr")
        if (
            offline.response_time_ms != rec.response_time_ms
            or tuple(offline.counts_per_disk()) != rec.counts_per_disk
        ):
            problems.append(
                f"online record at {rec.arrival_ms} ms: makespan "
                f"{rec.response_time_ms} vs offline {offline.response_time_ms}"
            )
    return problems


def end_to_end(epochs: list[Epoch]) -> dict[str, Any]:
    """Closed-loop metrics over every epoch of a run.

    Each epoch's times are scaled by the host slowness sampled during it;
    the unscaled figures are kept under ``raw``.
    """
    lat = [x / ep.slowness for ep in epochs for x in ep.submit_ms]
    replans = [x / ep.slowness for ep in epochs for x in ep.replan_ms]
    done = sum(len(ep.answers) for ep in epochs)
    attempted = sum(ep.attempted for ep in epochs)
    failed = sum(len(ep.errors) for ep in epochs)
    raw_lat = [x for ep in epochs for x in ep.submit_ms]
    out = {
        "throughput_qps": done / sum(ep.wall_s / ep.slowness for ep in epochs),
        "latency_p50_ms": quantile(lat, 0.50),
        "latency_p95_ms": quantile(lat, 0.95),
        "samples": len(lat),
        "epochs": len(epochs),
        "slowness": [ep.slowness for ep in epochs],
        "raw": {
            "throughput_qps": done / sum(ep.wall_s for ep in epochs),
            "latency_p50_ms": quantile(raw_lat, 0.50),
            "latency_p95_ms": quantile(raw_lat, 0.95),
        },
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": [e for ep in epochs for e in ep.errors],
        "counts": epochs[0].counts,
    }
    if len(lat) >= 1000:
        out["latency_p99_ms"] = quantile(lat, 0.99)
    if replans:
        out["replan_p50_ms"] = quantile(replans, 0.50)
    return out


def loadgen_layers(epochs: list[Epoch]) -> dict[str, tuple[float, str]]:
    """A closed loop has one request in flight; its lag is the caller's gap."""
    gaps = [x for ep in epochs for x in ep.gap_ms]
    return {
        "loadgen.lag_p99_ms": (quantile(gaps, 0.99), "ms"),
        "loadgen.inflight_max": (1.0, "count"),
    }


def online_layers(epoch: Epoch, tracer: Tracer) -> dict[str, tuple[float, str]]:
    submits = [sp.ms for sp in tracer.named("online.submit")]
    replans = [sp.ms for sp in tracer.named("online.replan")]
    c = epoch.counts
    return {
        "online.submit_ms": (mean(submits), "ms"),
        "online.replan_ms": (mean(replans), "ms"),
        "online.drains": (float(c["drains"]), "count"),
        "online.repairs": (float(c["repairs"]), "count"),
        "online.released_units": (float(c["released_units"]), "count"),
        "online.replans": (float(c["replans"]), "count"),
    }


def probe_trace(trace: Trace, prefix: int) -> Trace:
    """The first ``prefix`` queries with one site-0 failure and repair.

    Lets workloads that do not run online still report the online layer
    on their own queries.
    """
    third = max(1, prefix // 3)
    return Trace(
        trace.n,
        trace.seed,
        trace.queries[:prefix],
        trace.arrivals[:prefix],
        {third: [("fail", 0)], 2 * third: [("repair", 0)]},
    )
