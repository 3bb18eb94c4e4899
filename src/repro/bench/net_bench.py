"""Network front-end throughput: RPC over localhost vs direct submit.

Quantifies what the serving edge costs: the same seeded workload is
hammered through

``direct``
    T threads calling :meth:`SchedulerService.submit` in-process — the
    concurrent-pipeline baseline (no serialization, no sockets).
``net``
    The same T threads, each holding a pooled
    :class:`~repro.net.SchedulerClient` against a
    :class:`~repro.net.BackgroundServer` on localhost — framing, JSON
    envelopes, admission control and the event loop all included.
``fleet`` (``workers >= 1``)
    The same wire path, but the server hosts ``workers`` scheduler
    shards over a ``workers``-lane :class:`~repro.fleet.SolveFleet`
    process pool — N solve locks and solves off the GIL.  This is the
    scaling configuration `repro net-bench --workers N` measures;
    near-linear scaling with N requires N free cores (on a single-core
    box the fleet mode only measures the process-shipping overhead).

All modes report sustained requests/sec and p50/p95 submit latency;
``overhead_p50_ms`` is the per-request cost of the wire.  A correctness
cross-check rides along: every record returned over the wire must match
(assignment and response time) the record the server-side service wrote
to its own history — serialization must be transparent.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.bench.service_bench import (
    _build_deployment,
    _hammer,
    _quantile,
    make_workload,
)
from repro.core.api import solve
from repro.core.problem import RetrievalProblem
from repro.fleet.codec import encode_problem, encode_schedule
from repro.net.client import SchedulerClient
from repro.net.run import BackgroundServer
from repro.net.server import ServerConfig
from repro.service import SchedulerService, ServiceConfig
from repro.service.sharded import ShardedSchedulerService
from repro.service.stats import ServiceRecord

__all__ = [
    "NetBenchResult",
    "NetModeResult",
    "format_net_bench",
    "run_net_bench",
]

Stream = list[list[tuple[int, int]]]


@dataclass
class NetModeResult:
    """One transport mode's measurements."""

    mode: str
    queries: int
    wall_s: float
    throughput_qps: float
    p50_submit_ms: float
    p95_submit_ms: float
    mean_submit_ms: float
    shed: int = 0


@dataclass
class NetBenchResult:
    """The wire-vs-direct comparison (JSON-serialisable via to_dict)."""

    n: int
    clients: int
    requests_per_client: int
    distinct_signatures: int
    solver: str
    pool_size: int
    workers: int = 0
    #: cores visible to this run — makes single-core artifacts
    #: self-describing (fleet numbers without free cores only measure
    #: process-shipping overhead, not scaling)
    cpu_count: int = 0
    modes: dict = field(default_factory=dict)
    #: pickled fleet-payload sizes for one sample query of this
    #: workload: ``{"problem": .., "schedule": ..}`` — what the process
    #: fleet actually ships per solve.
    codec_bytes: dict = field(default_factory=dict)

    @property
    def overhead_p50_ms(self) -> float:
        direct = self.modes.get("direct")
        net = self.modes.get("net")
        if not direct or not net:
            return 0.0
        return net.p50_submit_ms - direct.p50_submit_ms

    @property
    def slowdown_net(self) -> float:
        direct = self.modes.get("direct")
        net = self.modes.get("net")
        if not direct or not net or not net.throughput_qps:
            return 0.0
        return direct.throughput_qps / net.throughput_qps

    @property
    def speedup_fleet_vs_net(self) -> float:
        """Fleet-mode throughput relative to the single-service net mode."""
        net = self.modes.get("net")
        fleet = self.modes.get("fleet")
        if not net or not fleet or not net.throughput_qps:
            return 0.0
        return fleet.throughput_qps / net.throughput_qps

    def to_dict(self) -> dict:
        out = asdict(self)
        out["modes"] = {k: asdict(v) for k, v in self.modes.items()}
        out["overhead_p50_ms"] = round(self.overhead_p50_ms, 4)
        out["slowdown_net_vs_direct"] = round(self.slowdown_net, 3)
        if "fleet" in self.modes:
            out["speedup_fleet_vs_net"] = round(self.speedup_fleet_vs_net, 3)
        return out


def _codec_footprint(system, placement, coords, solver: str) -> dict[str, int]:
    """Bytes on the wire for one sample query.

    Measures what :class:`~repro.fleet.SolveFleet` actually submits to a
    worker: the pickled problem payload (request) and the pickled
    schedule payload (reply).
    """
    import pickle

    problem = RetrievalProblem.from_query(system, placement, coords)
    schedule = solve(problem, solver=solver)
    return {
        "problem": len(pickle.dumps(encode_problem(problem), protocol=5)),
        "schedule": len(pickle.dumps(encode_schedule(schedule), protocol=5)),
    }


def _check_wire_transparency(
    service: SchedulerService, outputs: list[ServiceRecord]
) -> None:
    """Wire records must match the server-side history exactly."""
    if len(service.history) != len(outputs):
        raise AssertionError(
            f"server recorded {len(service.history)} queries but clients "
            f"hold {len(outputs)} records"
        )
    by_arrival = {r.arrival_ms: r for r in service.history}
    for record in outputs:
        direct = by_arrival.get(record.arrival_ms)
        if direct is None:
            raise AssertionError(
                f"wire record at arrival {record.arrival_ms} has no "
                f"server-side counterpart"
            )
        if (
            abs(direct.response_time_ms - record.response_time_ms) > 1e-9
            or direct.assignment != record.assignment
        ):
            raise AssertionError(
                f"wire record diverged from the service record at arrival "
                f"{record.arrival_ms}"
            )


def _check_fleet_transparency(
    service: "ShardedSchedulerService", outputs: list[ServiceRecord]
) -> None:
    """Sharded variant: wire records match the pooled shard histories.

    Shard clocks are independent, so arrival times cannot key records
    the way the single-service check does; instead the multiset of
    ``(num_buckets, response_time_ms)`` pairs must agree exactly.
    """
    history = [r for svc in service.services for r in svc.history]
    if len(history) != len(outputs):
        raise AssertionError(
            f"shards recorded {len(history)} queries but clients hold "
            f"{len(outputs)} records"
        )
    got = sorted((r.num_buckets, r.response_time_ms) for r in outputs)
    want = sorted((r.num_buckets, r.response_time_ms) for r in history)
    if got != want:
        raise AssertionError(
            "wire records diverged from the shard histories "
            "(num_buckets/response_time multisets differ)"
        )


def _hammer_clients(
    streams: list[Stream],
    clients: list[SchedulerClient],
) -> tuple[float, list[float], list[ServiceRecord]]:
    """Like service_bench._hammer, but each stream gets its own client."""
    latencies: list[float] = []
    outputs: list[ServiceRecord] = []
    failures: list[Exception] = []
    lock = threading.Lock()
    barrier = threading.Barrier(len(streams) + 1)

    def worker(stream: Stream, client: SchedulerClient) -> None:
        mine: list[float] = []
        outs: list[ServiceRecord] = []
        try:
            barrier.wait(timeout=60)
            for coords in stream:
                t0 = time.perf_counter()
                outs.append(client.submit(coords))
                mine.append((time.perf_counter() - t0) * 1000.0)
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller
            failures.append(exc)
        with lock:
            latencies.extend(mine)
            outputs.extend(outs)

    threads = [
        threading.Thread(target=worker, args=(s, c))
        for s, c in zip(streams, clients)
    ]
    for t in threads:
        t.start()
    barrier.wait(timeout=60)
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if failures:
        raise failures[0]
    return wall, latencies, outputs


def _mode_result(
    mode: str,
    total: int,
    wall: float,
    lats: list[float],
    shed: int = 0,
) -> NetModeResult:
    return NetModeResult(
        mode=mode,
        queries=total,
        wall_s=wall,
        throughput_qps=total / wall if wall else 0.0,
        p50_submit_ms=_quantile(lats, 0.50),
        p95_submit_ms=_quantile(lats, 0.95),
        mean_submit_ms=sum(lats) / len(lats) if lats else 0.0,
        shed=shed,
    )


def run_net_bench(
    *,
    n: int = 6,
    clients: int = 4,
    requests_per_client: int = 25,
    distinct: int = 12,
    solver: str = "pr-binary",
    cache_size: int = 64,
    pool_size: int = 1,
    max_inflight: int = 64,
    seed: int = 0,
    workers: int = 0,
) -> NetBenchResult:
    """Measure direct vs over-the-wire submit on the same workload.

    ``workers >= 1`` adds the ``fleet`` mode: the same wire workload
    against ``workers`` scheduler shards sharing a ``workers``-lane
    process fleet (``solve_backend="process"``).
    """
    cpu = os.cpu_count() or 1
    if workers > cpu:
        raise ValueError(
            f"workers={workers} exceeds os.cpu_count()={cpu}: a fleet "
            "larger than the machine cannot scale and would silently "
            "measure oversubscription, not speedup"
        )
    streams = make_workload(
        n, clients, requests_per_client, distinct=distinct, seed=seed
    )
    total = sum(len(s) for s in streams)
    result = NetBenchResult(
        n=n,
        clients=clients,
        requests_per_client=requests_per_client,
        distinct_signatures=distinct,
        solver=solver,
        pool_size=pool_size,
        workers=workers,
        cpu_count=cpu,
    )
    result.codec_bytes = _codec_footprint(
        *_build_deployment(n, seed), streams[0][0], solver
    )

    def build_service() -> SchedulerService:
        return SchedulerService(
            *_build_deployment(n, seed),
            config=ServiceConfig(solver=solver, cache_size=cache_size),
        )

    # direct: in-process pipeline service
    svc = build_service()
    wall, lats, _ = _hammer(svc.submit, streams)
    result.modes["direct"] = _mode_result("direct", total, wall, lats)

    # net: same workload through the RPC front end on localhost
    net_service = build_service()
    with BackgroundServer(
        net_service, ServerConfig(max_inflight=max_inflight)
    ) as bg:
        pool = [
            SchedulerClient(
                bg.host, bg.port, pool_size=pool_size, deadline_ms=60_000.0
            )
            for _ in range(len(streams))
        ]
        try:
            wall, lats, outputs = _hammer_clients(streams, pool)
        finally:
            for client in pool:
                client.close()
        shed = int(bg.server.registry.counter("repro_net_shed_total").value)
    _check_wire_transparency(net_service, outputs)
    result.modes["net"] = _mode_result("net", total, wall, lats, shed=shed)

    # fleet: N shards over an N-lane process fleet, same wire workload
    if workers >= 1:
        fleet_service = ShardedSchedulerService(
            [_build_deployment(n, seed + k) for k in range(workers)],
            config=ServiceConfig(
                solver=solver,
                cache_size=cache_size,
                solve_backend="process",
                fleet_workers=workers,
            ),
        )
        try:
            with BackgroundServer(
                fleet_service, ServerConfig(max_inflight=max_inflight)
            ) as bg:
                pool = [
                    SchedulerClient(
                        bg.host, bg.port, pool_size=pool_size,
                        deadline_ms=60_000.0,
                    )
                    for _ in range(len(streams))
                ]
                try:
                    wall, lats, outputs = _hammer_clients(streams, pool)
                finally:
                    for client in pool:
                        client.close()
                shed = int(
                    bg.server.registry.counter("repro_net_shed_total").value
                )
            _check_fleet_transparency(fleet_service, outputs)
        finally:
            fleet_service.close()
        result.modes["fleet"] = _mode_result(
            "fleet", total, wall, lats, shed=shed
        )
    return result


def format_net_bench(result: NetBenchResult) -> str:
    """Human-readable table for the CLI."""
    lines = [
        f"net bench: n={result.n} clients={result.clients} "
        f"x{result.requests_per_client} req "
        f"({result.distinct_signatures} signatures, {result.solver})",
        f"{'mode':<8} {'qps':>9} {'p50 ms':>9} {'p95 ms':>9} "
        f"{'mean ms':>9} {'shed':>5}",
    ]
    for mode in ("direct", "net", "fleet"):
        m = result.modes.get(mode)
        if m is None:
            continue
        lines.append(
            f"{m.mode:<8} {m.throughput_qps:>9.1f} {m.p50_submit_ms:>9.3f} "
            f"{m.p95_submit_ms:>9.3f} {m.mean_submit_ms:>9.3f} {m.shed:>5d}"
        )
    lines.append(
        f"wire overhead: p50 {result.overhead_p50_ms:+.3f} ms, "
        f"throughput x{result.slowdown_net:.2f} slower than direct"
    )
    if "fleet" in result.modes:
        lines.append(
            f"fleet ({result.workers} workers, {result.cpu_count} cores): "
            f"x{result.speedup_fleet_vs_net:.2f} vs net "
            f"(needs {result.workers} free cores for linear scaling)"
        )
    if result.codec_bytes:
        sizes = result.codec_bytes
        lines.append(
            f"fleet codec bytes on wire: problem={sizes['problem']}B "
            f"schedule={sizes['schedule']}B"
        )
    return "\n".join(lines)
