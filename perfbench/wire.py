"""The wire workload, ``warm-wire``.

A ``repro serve`` subprocess serves one asyncio client process with two
connections.  A run has three measured phases:

1. closed-loop capacity: two callers, each waiting for its reply;
2. an open-loop ladder of fixed rates, from about a quarter of the
   capacity to past it.  Arrivals are Poisson; each request is timed from the moment
   it was due, so a stall shows in the requests queued behind it.  The
   first rung is the nominal rate at which latency is reported;
3. (untimed) a serial, pinned-arrival prefix sent to a *fresh* server
   and compared record by record with a local ``SchedulerService``
   replay.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from common import (
    Calibration,
    Component,
    Server,
    Tracer,
    quantile,
    scrape,
    stratified_queries,
    tail_quantile,
)

WARM = {
    "n": 8,
    # a fixed pool of viewports: after the first pass every signature
    # is in the 64-entry cache, so the wire and the service dominate
    "pool": 32,
    "blend": [Component(1.0, 3, "range")],
    # the first rung is the nominal rate, about a quarter of capacity:
    # low enough that latency shows per-request cost, not queueing
    "ladder": [100, 200, 300, 400, 500, 650, 800],
    "limit_ms": 20.0,
    "gate_prefix": 48,
}

#: a rung whose generator ran later than this (p99) is not a valid rung.
#: Sends keep their absolute due times, so a late send does not shift
#: the ones after it; the bound only has to be small against latency.
LAG_BOUND_MS = 10.0


class Traffic:
    """The request stream: seeded draws from a pool of signatures.

    One pass over ``self.pool`` fills the server's cache; after that
    every request is served warm.
    """

    def __init__(self, params: dict, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.pool = stratified_queries(
            params["n"], params["pool"], params["blend"], rng
        )
        picks = rng.integers(0, len(self.pool), 20000)
        self.queries = [self.pool[int(i)] for i in picks]
        self.rng = rng
        self.next = 0

    def take(self) -> Any:
        q = self.queries[self.next % len(self.queries)]
        self.next += 1
        return q


#: host-speed sampling period while a phase runs
CALIB_PERIOD_S = 0.1


@contextlib.asynccontextmanager
async def _calibrating() -> Any:
    """Sample the host speed on the event loop while the block runs."""
    calib = Calibration()

    async def sampler() -> None:
        while True:
            calib.sample()
            await asyncio.sleep(CALIB_PERIOD_S)

    task = asyncio.create_task(sampler())
    try:
        yield calib
    finally:
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task


def _client(server: Server) -> Any:
    from repro.net.client import AsyncSchedulerClient, RetryPolicy

    return AsyncSchedulerClient(
        server.host, server.port, pool_size=2, retry=RetryPolicy(attempts=1)
    )


async def _capacity(
    server: Server, traffic: Traffic, seconds: float
) -> tuple[float, float, int]:
    """Closed loop, two callers: (submits per second, scaled, count)."""
    client = _client(server)
    done = 0

    async def caller(deadline: float) -> None:
        nonlocal done
        while time.monotonic() < deadline:
            await client.submit(traffic.take())
            done += 1

    try:
        async with _calibrating() as calib:
            t0 = time.monotonic()
            await asyncio.gather(caller(t0 + seconds), caller(t0 + seconds))
            qps = done / (time.monotonic() - t0)
    finally:
        await client.close()
    return qps, calib.rate(qps), done


@dataclass
class Rung:
    rate: float
    sent: int
    latency_ms: list[float]
    lag_ms: list[float]
    inflight_max: int
    errors: list[str]
    drain_ms: float
    #: each latency scaled by the host slowness around its due time
    scaled_ms: list[float] = field(default_factory=list)
    slowness: float = 1.0

    @property
    def p50_ms(self) -> float:
        return quantile(self.scaled_ms, 0.50)

    @property
    def p95_ms(self) -> float:
        return quantile(self.scaled_ms, 0.95)

    def summary(self, limit_ms: float) -> dict[str, Any]:
        q = tail_quantile(len(self.latency_ms))
        tail = quantile(self.latency_ms, q)
        err = len(self.errors) / max(1, self.sent)
        row = {
            "rate_qps": self.rate,
            "sent": self.sent,
            "lag_p99_ms": self.lag_p99_ms,
            "inflight_max": self.inflight_max,
            "error_rate": err,
            "drain_ms": self.drain_ms,
            # a backlog still draining past the limit means it grew
            "meets_limit": bool(
                self.valid
                and tail <= limit_ms
                and self.drain_ms <= limit_ms
                and err <= 0.01
            ),
        }
        # a late generator did not offer the rate: no latency for it
        if self.valid:
            row["p50_ms"] = quantile(self.latency_ms, 0.5)
            row[f"p{round(q * 100)}_ms"] = tail
        return row

    @property
    def lag_p99_ms(self) -> float:
        return quantile(self.lag_ms, 0.99)

    @property
    def valid(self) -> bool:
        return self.lag_p99_ms <= LAG_BOUND_MS


async def _open_loop(
    server: Server,
    traffic: Traffic,
    rate: float,
    seconds: float,
    tracer: Tracer | None = None,
) -> Rung:
    """Poisson arrivals at ``rate``; latency is timed from each due time."""
    from repro.net.errors import NetError

    client = _client(server)
    loop = asyncio.get_running_loop()
    count = max(1, int(rate * seconds))
    due = np.cumsum(traffic.rng.exponential(1.0 / rate, count))
    rung = Rung(rate, count, [], [], 0, [], 0.0)
    inflight = 0
    tasks: list[asyncio.Task[None]] = []
    due_times: list[float] = []

    async def one(k: int, query: Any, due_at: float) -> None:
        nonlocal inflight
        inflight += 1
        rung.inflight_max = max(rung.inflight_max, inflight)
        span = (
            tracer.span("net.submit", k, lag_ms=rung.lag_ms[k])
            if tracer
            else contextlib.nullcontext()
        )
        try:
            with span:
                await client.submit(query)
            rung.latency_ms.append((loop.time() - due_at) * 1000.0)
            due_times.append(due_at)
        except NetError as exc:
            rung.errors.append(repr(exc))
        finally:
            inflight -= 1

    await client.submit(traffic.take())  # connect before the clock starts
    t0 = loop.time()
    try:
        async with _calibrating() as calib:
            for k in range(count):
                due_at = t0 + float(due[k])
                delay = due_at - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                rung.lag_ms.append((loop.time() - due_at) * 1000.0)
                tasks.append(asyncio.create_task(one(k, traffic.take(), due_at)))
            last_due = t0 + float(due[-1])
            await asyncio.gather(*tasks)
            rung.drain_ms = max(0.0, (loop.time() - last_due) * 1000.0)
        rung.slowness = calib.slowness
        rung.scaled_ms = [
            ms / calib.slowness_at(t) for ms, t in zip(rung.latency_ms, due_times)
        ]
    finally:
        await client.close()
    return rung


def measure(
    server: Server, traffic: Traffic, params: dict, seconds: float
) -> dict[str, Any]:
    """Capacity, then the ladder; returns the end-to-end figures.

    Capacity and nominal-rate latency are scaled to the reference host
    speed; the ladder table holds the unscaled latencies the limit is
    checked on.
    """
    raw_capacity, capacity, done = asyncio.run(
        _capacity(server, traffic, 0.3 * seconds)
    )
    ladder = params["ladder"]
    rungs = [asyncio.run(_open_loop(server, traffic, ladder[0], 0.55 * seconds))]
    for rate in ladder[1:]:
        step = 0.15 * seconds / (len(ladder) - 1)
        rungs.append(asyncio.run(_open_loop(server, traffic, rate, step)))
    table = [r.summary(params["limit_ms"]) for r in rungs]
    passing = [row["rate_qps"] for row in table if row["meets_limit"]]
    nominal = rungs[0]
    attempted = done + sum(r.sent for r in rungs)
    failed = sum(len(r.errors) for r in rungs)
    out = {
        "throughput_qps": capacity,
        "latency_p50_ms": nominal.p50_ms,
        "latency_p95_ms": nominal.p95_ms,
        "samples": len(nominal.latency_ms),
        # latency is timed from each due time, so a late generator can
        # only add to it; the flag says whether the nominal rung was late
        "nominal_valid": nominal.valid,
        "slowness": nominal.slowness,
        "raw": {
            "throughput_qps": raw_capacity,
            "latency_p50_ms": quantile(nominal.latency_ms, 0.50),
            "latency_p95_ms": quantile(nominal.latency_ms, 0.95),
        },
        "max_rate_qps": max(passing) if passing else 0.0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": [e for r in rungs for e in r.errors][:10],
        "ladder": table,
    }
    if len(nominal.latency_ms) >= 1000:
        out["latency_p99_ms"] = quantile(nominal.scaled_ms, 0.99)
    return out


def gate(
    server: Server,
    n: int,
    seed: int,
    queries: list[Any],
    tracer: Tracer | None = None,
) -> tuple[list[str], dict[str, Any]]:
    """Serial pinned-arrival prefix on a fresh server vs a local replay.

    Every wire record must equal the local ``SchedulerService`` record:
    makespan, assignment, degraded flag and bucket count, and the
    per-disk bucket totals must agree at the end.  Returns the problems
    found and, for the traced run, the serial round-trip figures.
    """
    from repro.bench.service_bench import _build_deployment
    from repro.net.client import SchedulerClient
    from repro.service import SchedulerService, ServiceConfig

    local = SchedulerService(*_build_deployment(n, seed), config=ServiceConfig())
    problems: list[str] = []
    rtts: list[float] = []
    records: list[Any] = []
    arrivals = [10.0 * (k + 1) for k in range(len(queries))]

    def span(name: str, k: int) -> Any:
        return tracer.span(name, k) if tracer else contextlib.nullcontext()

    with SchedulerClient(server.host, server.port) as client:
        before = scrape(client.metrics_text())
        for k, (query, arrival) in enumerate(zip(queries, arrivals)):
            t0 = time.perf_counter()
            with span("net.rtt", k):
                wire = client.submit(query, arrival_ms=arrival)
            rtts.append((time.perf_counter() - t0) * 1000.0)
            with span("service.submit", k):
                mine = local.submit(query, arrival_ms=arrival)
            records.append(mine)
            if (
                wire.response_time_ms != mine.response_time_ms
                or wire.assignment != mine.assignment
                or wire.degraded != mine.degraded
                or wire.num_buckets != mine.num_buckets
            ):
                problems.append(
                    f"query {k}: wire {wire.response_time_ms} != local "
                    f"{mine.response_time_ms}"
                )
        after = scrape(client.metrics_text())
        flows = client.stats()["per_disk_buckets"]
    if [int(v) for v in flows] != list(local.stats().per_disk_buckets):
        problems.append("per-disk bucket totals differ from the local replay")
    key = "repro_service_decision_ms"
    decisions = after[f"{key}_count"] - before.get(f"{key}_count", 0.0)
    decision_ms = (after[f"{key}_sum"] - before.get(f"{key}_sum", 0.0)) / decisions
    rtt_ms = sum(rtts) / len(rtts)
    return problems, {
        "arrivals": arrivals,
        "records": records,
        "layers": {
            "net.rtt_ms": (rtt_ms, "ms"),
            "net.server_decision_ms": (decision_ms, "ms"),
            "net.wire_ms": (rtt_ms - decision_ms, "ms"),
        },
    }


def server_counters(server: Server) -> dict[str, float]:
    """Cache and shed counters of a server, from its stats and metrics RPCs."""
    from repro.net.client import SchedulerClient

    with SchedulerClient(server.host, server.port) as client:
        stats = client.stats()
        samples = scrape(client.metrics_text())
    return {
        "queries": float(stats["queries"]),
        "cache_hits": float(stats["cache_hits"]),
        "shed": samples.get("repro_net_shed_total", 0.0),
        "evictions": samples["repro_service_cache_evictions_total"],
    }
