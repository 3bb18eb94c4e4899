"""Cluster soak: open-loop load against a routed backend fleet.

Simulates a large user population against a full in-process cluster
(N backend scheduler servers behind a :class:`RoutingProxy`).  The load
is **open-loop**: ``users`` simulated users each think for an
exponential ``think_time_ms`` between queries, so arrivals form an
aggregate Poisson process with mean interarrival
``think_time_ms / users`` — requests launch on the wall clock whether or
not earlier ones have finished, exactly the regime where admission
control (shed rate) becomes visible.  Query sizes come from a
heavy-tailed :class:`~repro.workloads.mixed.WorkloadMix` blend of
interactive viewport ranges and analytical arbitrary sweeps.

Reported per run: sustained req/s, shed rate, client-observed
p50/p95/p99 latency, and per-backend cache hit rate (signature-affine
routing should keep per-backend hit rates close to the single-server
figure — that is the whole point of rendezvous routing).

A transparency cross-check rides along (``verify=True``): a *fresh*
cluster serially executes a pinned-arrival prefix of the workload, and
every wire record must match — bit for bit, makespan and per-disk
flows — a local :class:`SchedulerService` replay partitioned by the
same rendezvous routing.  The routed cluster must be indistinguishable
from the math.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.bench.service_bench import _build_deployment
from repro.cluster.config import ClusterConfig
from repro.cluster.run import BackgroundCluster
from repro.net.client import (
    AsyncSchedulerClient,
    RetryPolicy,
    SchedulerClient,
)
from repro.net.errors import NetError, OverloadedError, RemoteError
from repro.service import SchedulerService, ServiceConfig
from repro.service.signature import (
    rendezvous_choice,
    signature_bytes,
    signature_of,
)
from repro.workloads.mixed import MixComponent, WorkloadMix

__all__ = ["SoakResult", "format_soak_bench", "run_soak_bench"]


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


#: the default blend: mostly interactive viewports, a heavy tail of
#: analytical sweeps (mirrors the WorkloadMix docstring scenario)
DEFAULT_MIX = [
    MixComponent(0.75, 3, "range"),
    MixComponent(0.25, 2, "arbitrary"),
]


@dataclass
class SoakResult:
    """One soak run (JSON-serialisable via :meth:`to_dict`)."""

    servers: int
    users: int
    queries: int
    think_time_ms: float
    n: int
    solver: str
    workers: int
    max_inflight: int
    seed: int
    offered_qps: float
    wall_s: float
    completed: int
    shed: int
    errors: int
    sustained_qps: float
    shed_rate: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    #: backend id -> {queries, cache_hits, cache_hit_rate}
    per_backend: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: router drain summary (forwards/failovers/backend_errors)
    router: dict[str, Any] = field(default_factory=dict)
    verified: bool = False
    verify_queries: int = 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _make_service(
    n: int,
    seed: int,
    *,
    solver: str,
    cache_size: int,
    workers: int,
) -> SchedulerService:
    config = ServiceConfig(
        solver=solver,
        cache_size=cache_size,
        solve_backend="process" if workers > 1 else None,
        fleet_workers=workers,
    )
    return SchedulerService(*_build_deployment(n, seed), config=config)


def _make_trace(
    n: int,
    queries: int,
    users: int,
    think_time_ms: float,
    seed: int,
) -> list[Any]:
    rng = np.random.default_rng(seed)
    mix = WorkloadMix(DEFAULT_MIX)
    return mix.stream(n, queries, think_time_ms / users, rng)


async def _open_loop(
    host: str,
    port: int,
    events: list[Any],
    *,
    pool_size: int,
    deadline_ms: float,
) -> tuple[float, list[float], int, int]:
    """Fire the trace open-loop; returns (wall_s, latencies, shed, errors)."""
    client = AsyncSchedulerClient(
        host,
        port,
        pool_size=pool_size,
        retry=RetryPolicy(attempts=1),
        deadline_ms=deadline_ms,
    )
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    shed = 0
    errors = 0

    async def one(buckets: tuple[tuple[int, int], ...]) -> None:
        nonlocal shed, errors
        t0 = time.perf_counter()
        try:
            await client.submit(list(buckets))
        except OverloadedError:
            shed += 1
            return
        except (RemoteError, NetError):
            errors += 1
            return
        latencies.append((time.perf_counter() - t0) * 1000.0)

    t_start = loop.time()
    tasks: list[asyncio.Task[None]] = []
    try:
        for ev in events:
            # open loop: launch at the trace's wall-clock arrival even
            # if every earlier request is still in flight
            delay = ev.arrival_ms / 1000.0 - (loop.time() - t_start)
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(ev.buckets)))
        await asyncio.gather(*tasks)
        wall = loop.time() - t_start
    finally:
        await client.close()
    return wall, latencies, shed, errors


def _per_backend_cache(stats: dict[str, Any]) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {}
    for bid, payload in sorted(stats.get("per_backend", {}).items()):
        q = int(payload.get("queries", 0))
        hits = int(payload.get("cache_hits", 0))
        out[bid] = {
            "queries": q,
            "cache_hits": hits,
            "cache_hit_rate": hits / q if q else 0.0,
        }
    return out


def _verify_differential(
    *,
    servers: int,
    n: int,
    seed: int,
    solver: str,
    cache_size: int,
    workers: int,
    queries: list[tuple[tuple[int, int], ...]],
) -> None:
    """Serial replay: routed records must equal local replays bit-for-bit.

    A fresh cluster (monitor off — nothing dies here) serves a pinned
    arrival sequence; local per-backend :class:`SchedulerService`
    replicas replay the same queries partitioned by the same rendezvous
    routing.  Makespan (``response_time_ms``), assignment, degraded flag
    and the per-disk flow totals must all agree exactly.
    """
    services = [
        _make_service(
            n, seed, solver=solver, cache_size=cache_size, workers=workers
        )
        for _ in range(servers)
    ]
    ids = [f"b{k}" for k in range(servers)]
    replicas = {
        bid: _make_service(
            n, seed, solver=solver, cache_size=cache_size, workers=1
        )
        for bid in ids
    }
    with BackgroundCluster(services, monitor=False) as bg:
        client = SchedulerClient(bg.host, bg.port)
        try:
            for k, buckets in enumerate(queries):
                coords = list(buckets)
                arrival = 10.0 * (k + 1)
                wire = client.submit(coords, arrival_ms=arrival)
                bid = rendezvous_choice(
                    signature_bytes(signature_of(coords)), ids
                )
                local = replicas[bid].submit(coords, arrival_ms=arrival)
                if (
                    wire.response_time_ms != local.response_time_ms
                    or wire.assignment != local.assignment
                    or wire.degraded != local.degraded
                    or wire.num_buckets != local.num_buckets
                ):
                    raise AssertionError(
                        f"routed record diverged from the local replay for "
                        f"query {k} on backend {bid}: "
                        f"{wire.response_time_ms} vs "
                        f"{local.response_time_ms}"
                    )
            merged = client.stats()
        finally:
            client.close()
    flows = [0] * max(
        (len(r.stats().per_disk_buckets) for r in replicas.values()),
        default=0,
    )
    for replica in replicas.values():
        for j, v in enumerate(replica.stats().per_disk_buckets):
            flows[j] += int(v)
    got = [int(v) for v in merged.get("per_disk_buckets", [])]
    if got != flows:
        raise AssertionError(
            f"merged per-disk flows diverged: cluster {got} vs replay {flows}"
        )


def run_soak_bench(
    *,
    servers: int = 2,
    users: int = 200,
    queries: int = 300,
    think_time_ms: float = 1000.0,
    n: int = 6,
    solver: str = "pr-binary",
    cache_size: int = 64,
    workers: int = 1,
    max_inflight: int = 64,
    seed: int = 0,
    verify: bool = True,
    verify_queries: int = 48,
    deadline_ms: float = 30000.0,
) -> SoakResult:
    """Soak a routed cluster open-loop, then cross-check transparency."""
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if users < 1:
        raise ValueError(f"users must be >= 1, got {users}")
    events = _make_trace(n, queries, users, think_time_ms, seed)
    services = [
        _make_service(
            n, seed, solver=solver, cache_size=cache_size, workers=workers
        )
        for _ in range(servers)
    ]
    config = ClusterConfig(max_inflight=max_inflight)
    with BackgroundCluster(services, config) as bg:
        wall, lats, shed, errors = asyncio.run(
            _open_loop(
                bg.host,
                bg.port,
                events,
                pool_size=min(8, max(2, servers * 2)),
                deadline_ms=deadline_ms,
            )
        )
        control = SchedulerClient(bg.host, bg.port)
        try:
            stats = control.stats()
        finally:
            control.close()
    summary = bg.summary or {}

    verified = False
    n_verify = 0
    if verify:
        n_verify = min(verify_queries, len(events))
        _verify_differential(
            servers=servers,
            n=n,
            seed=seed,
            solver=solver,
            cache_size=cache_size,
            workers=workers,
            queries=[ev.buckets for ev in events[:n_verify]],
        )
        verified = True

    completed = len(lats)
    return SoakResult(
        servers=servers,
        users=users,
        queries=queries,
        think_time_ms=think_time_ms,
        n=n,
        solver=solver,
        workers=workers,
        max_inflight=max_inflight,
        seed=seed,
        offered_qps=1000.0 * users / think_time_ms,
        wall_s=wall,
        completed=completed,
        shed=shed,
        errors=errors,
        sustained_qps=completed / wall if wall else 0.0,
        shed_rate=shed / queries if queries else 0.0,
        p50_ms=_quantile(lats, 0.50),
        p95_ms=_quantile(lats, 0.95),
        p99_ms=_quantile(lats, 0.99),
        mean_ms=sum(lats) / completed if completed else 0.0,
        per_backend=_per_backend_cache(stats),
        router={
            k: summary.get(k, 0)
            for k in ("forwards", "failovers", "backend_errors")
        },
        verified=verified,
        verify_queries=n_verify,
    )


def format_soak_bench(result: SoakResult) -> str:
    lines = [
        f"cluster soak: {result.servers} backend(s), "
        f"{result.users} users, {result.queries} queries "
        f"(think {result.think_time_ms:.0f} ms, offered "
        f"{result.offered_qps:.1f} req/s)",
        f"  sustained    {result.sustained_qps:8.1f} req/s "
        f"over {result.wall_s:.2f} s",
        f"  completed    {result.completed:8d}   shed {result.shed} "
        f"({100.0 * result.shed_rate:.1f}%)   errors {result.errors}",
        f"  latency ms   p50 {result.p50_ms:.2f}   p95 {result.p95_ms:.2f}"
        f"   p99 {result.p99_ms:.2f}   mean {result.mean_ms:.2f}",
    ]
    for bid, info in result.per_backend.items():
        lines.append(
            f"  {bid}: {info['queries']} queries, "
            f"cache hit rate {100.0 * info['cache_hit_rate']:.1f}%"
        )
    if result.verified:
        lines.append(
            f"  transparency: {result.verify_queries} routed records "
            f"matched the serial replay bit-for-bit"
        )
    return "\n".join(lines)
