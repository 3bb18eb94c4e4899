"""End-to-end server tests: differential correctness, shedding, drain.

The load-bearing checks of the network layer:

* *wire transparency* — schedules produced via the RPC path must be
  byte-identical to direct ``SchedulerService.submit`` calls on an
  identically-seeded deployment, serially and under 8-way concurrency
  (replaying the server-side admission order on a fresh service);
* *admission control* — a capacity-1 server sheds the second concurrent
  submit with a typed ``OVERLOADED`` carrying a retry hint, and a
  retrying client eventually gets through;
* *graceful drain* — in-flight requests finish and are answered, new
  ones are refused with ``SHUTTING_DOWN``, and the final stats snapshot
  reflects all completed work.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.decluster import make_placement
from repro.net import (
    AsyncSchedulerClient,
    BackgroundServer,
    BadRequestError,
    InvalidQueryError,
    OverloadedError,
    RetryPolicy,
    SchedulerClient,
    ServerConfig,
    ShuttingDownError,
    UnknownOpError,
)
from repro.net.errors import DeadlineExceededError, HandshakeError
from repro.net.protocol import (
    HEADER_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    make_request,
)
from repro.net.protocol import query_to_wire
from repro.service import SchedulerService, ServiceConfig
from repro.storage import StorageSystem

N = 5


def deployment(seed=0):
    rng = np.random.default_rng(seed)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], N, delays_ms=[1.0, 4.0], rng=rng
    )
    return system, placement


def make_service(seed=0, **cfg):
    return SchedulerService(
        *deployment(seed), config=ServiceConfig(**cfg)
    )


def make_queries(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(2, 5))
        cells = rng.choice(N * N, size=k, replace=False)
        out.append([(int(c) // N, int(c) % N) for c in cells])
    return out


def records_match(a, b):
    return (
        abs(a.response_time_ms - b.response_time_ms) < 1e-9
        and a.assignment == b.assignment
        and a.degraded == b.degraded
        and a.num_buckets == b.num_buckets
    )


class BlockableService(SchedulerService):
    """A service whose submits wait on an event before scheduling."""

    def __init__(self, seed=0, **cfg):
        super().__init__(*deployment(seed), config=ServiceConfig(**cfg))
        self.release = threading.Event()
        self.entered = threading.Event()

    def submit(self, query, arrival_ms=None):
        self.entered.set()
        if not self.release.wait(timeout=30):
            raise RuntimeError("blockable service never released")
        return super().submit(query, arrival_ms=arrival_ms)


class BlockableStatsService(SchedulerService):
    """A service whose stats() waits on an event before snapshotting.

    A stand-in for a ``stats``/``health`` call stuck behind the solve
    lock while a long solve holds it.
    """

    def __init__(self, seed=0, **cfg):
        super().__init__(*deployment(seed), config=ServiceConfig(**cfg))
        self.release = threading.Event()
        self.entered = threading.Event()

    def stats(self):
        self.entered.set()
        if not self.release.wait(timeout=30):
            raise RuntimeError("blockable stats never released")
        return super().stats()


# ----------------------------------------------------------------------
# differential: the wire must not change any schedule
# ----------------------------------------------------------------------
class TestDifferential:
    def test_serial_wire_equals_direct(self):
        queries = make_queries(11, 12)
        direct = make_service(seed=4)
        expected = [
            direct.submit(q, arrival_ms=float(i) * 10.0)
            for i, q in enumerate(queries)
        ]
        with BackgroundServer(make_service(seed=4)) as bg:
            with SchedulerClient(bg.host, bg.port) as client:
                got = [
                    client.submit(q, arrival_ms=float(i) * 10.0)
                    for i, q in enumerate(queries)
                ]
        assert all(records_match(a, b) for a, b in zip(expected, got))

    def test_eight_concurrent_clients_replay_identical(self):
        service = make_service(seed=100)
        streams = [make_queries(50 + c, 6) for c in range(8)]
        held: list = []
        failures: list = []
        lock = threading.Lock()

        with BackgroundServer(service, ServerConfig(max_inflight=32)) as bg:
            def run_client(stream):
                try:
                    with SchedulerClient(
                        bg.host, bg.port, deadline_ms=30_000.0
                    ) as client:
                        records = [client.submit(q) for q in stream]
                    with lock:
                        held.extend(records)
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            threads = [
                threading.Thread(target=run_client, args=(s,))
                for s in streams
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not failures, failures
        assert len(held) == 8 * 6

        # every record a client holds must equal the server's record
        history = list(service.history)
        by_arrival = {rec.arrival_ms: rec for rec in history}
        assert len(history) == len(by_arrival) == len(held)
        for rec in held:
            assert records_match(rec, by_arrival[rec.arrival_ms])

        # and replaying the server's admission order against a fresh,
        # identically seeded direct service reproduces every schedule
        fresh = make_service(seed=100)
        for rec in history:
            again = fresh.submit(rec.query, arrival_ms=rec.arrival_ms)
            assert records_match(rec, again)


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestLoadShedding:
    def test_capacity_one_sheds_second_submit_with_hint(self):
        service = BlockableService(seed=1)
        config = ServerConfig(max_inflight=1, retry_after_ms=25.0)
        with BackgroundServer(service, config) as bg:
            first_result: list = []
            with SchedulerClient(bg.host, bg.port) as c1, SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as c2:
                t = threading.Thread(
                    target=lambda: first_result.append(
                        c1.submit([(0, 0), (1, 1)])
                    )
                )
                t.start()
                assert service.entered.wait(timeout=10)
                with pytest.raises(OverloadedError) as err:
                    c2.submit([(2, 2)])
                assert err.value.retry_after_ms == 25.0
                assert err.value.transient
                service.release.set()
                t.join(timeout=10)
            assert first_result and first_result[0].response_time_ms > 0

    def test_retrying_client_gets_through_after_shed(self):
        service = BlockableService(seed=2)
        config = ServerConfig(max_inflight=1, retry_after_ms=10.0)
        with BackgroundServer(service, config) as bg:
            with SchedulerClient(bg.host, bg.port) as c1, SchedulerClient(
                bg.host,
                bg.port,
                retry=RetryPolicy(attempts=8, base_backoff_ms=20.0),
                deadline_ms=20_000.0,
                seed=7,
            ) as c2:
                t = threading.Thread(target=lambda: c1.submit([(0, 0)]))
                t.start()
                assert service.entered.wait(timeout=10)
                # free the slot shortly after c2 starts being shed
                threading.Timer(0.15, service.release.set).start()
                record = c2.submit([(1, 1)])  # retries through OVERLOADED
                assert record.response_time_ms > 0
                t.join(timeout=10)
        shed = bg.server.registry.counter("repro_net_shed_total").value
        assert shed >= 1

    def test_deadline_exceeded_while_blocked(self):
        service = BlockableService(seed=3)
        with BackgroundServer(service, ServerConfig(max_inflight=4)) as bg:
            try:
                with SchedulerClient(
                    bg.host, bg.port, retry=RetryPolicy(attempts=1)
                ) as client:
                    with pytest.raises(DeadlineExceededError):
                        client.submit([(0, 0)], deadline_ms=200.0)
            finally:
                service.release.set()


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_drain_finishes_inflight_and_rejects_new(self):
        service = BlockableService(seed=5)
        with BackgroundServer(service, ServerConfig(max_inflight=4)) as bg:
            inflight_result: list = []
            c1 = SchedulerClient(bg.host, bg.port, deadline_ms=30_000.0)
            c2 = SchedulerClient(bg.host, bg.port)
            try:
                t = threading.Thread(
                    target=lambda: inflight_result.append(
                        c1.submit([(0, 0), (1, 2)])
                    )
                )
                t.start()
                assert service.entered.wait(timeout=10)
                # connect c2 BEFORE the drain: the listener closes when
                # draining starts, but live connections keep answering
                assert c2.health()["status"] == "ok"
                bg.request_drain()
                # draining: health still answers, submit is refused
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if c2.health()["status"] == "draining":
                        break
                    time.sleep(0.01)
                assert c2.health()["status"] == "draining"
                with pytest.raises(ShuttingDownError):
                    c2.submit([(2, 2)])
                service.release.set()
                t.join(timeout=10)
                # the in-flight request completed and was answered
                assert inflight_result
                assert inflight_result[0].response_time_ms > 0
            finally:
                service.release.set()
                c1.close()
                c2.close()
            stats = bg.stop()
        assert stats is not None
        assert stats.queries == 1  # the in-flight one; the shed one is not

    def test_shutdown_rpc_drains(self):
        service = make_service(seed=6)
        with BackgroundServer(service) as bg:
            with SchedulerClient(bg.host, bg.port) as client:
                client.submit([(0, 0)])
                client.shutdown()
            bg.server  # still drains cleanly via context exit
            stats = bg.stop()
        assert stats is not None and stats.queries == 1

    def test_drain_completes_with_idle_connected_client(self):
        # regression: on Python >= 3.12, Server.wait_closed() waits for
        # every connection handler, and a handler sits in read() until
        # its writer is closed — so drain must tear connections down
        # *before* waiting on it, or one idle client hangs it forever
        with BackgroundServer(make_service(seed=12)) as bg:
            with socket.create_connection((bg.host, bg.port)) as sock:
                sock.sendall(hello_frame())
                assert read_frame(sock)["ok"] is True
                # the client now idles; the drain must still complete
                stats = bg.stop(timeout_s=15.0)
                assert stats is not None
                # and the server closed the idle connection on its way out
                assert sock.recv(1) == b""

    def test_slow_stats_does_not_freeze_the_event_loop(self):
        # regression: health/stats/metrics/mark_* acquire the service's
        # solve lock; they must run off the event loop thread, where a
        # long solve would otherwise freeze every connection's framing
        service = BlockableStatsService(seed=13)
        results: list = []
        with BackgroundServer(service) as bg:
            c1 = SchedulerClient(bg.host, bg.port, deadline_ms=60_000.0)
            c2 = SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            )
            t = threading.Thread(target=lambda: results.append(c1.stats()))
            try:
                t.start()
                assert service.entered.wait(timeout=10)
                # while stats blocks off-loop, the loop must still
                # handshake a new connection and answer ops that never
                # touch the service (here: a typed UNKNOWN_OP error)
                t0 = time.monotonic()
                with pytest.raises(UnknownOpError):
                    c2.request("nop", deadline_ms=5000.0)
                assert time.monotonic() - t0 < 5.0
            finally:
                service.release.set()
                t.join(timeout=10)
                c1.close()
                c2.close()
        assert results and results[0]["queries"] == 0

    def test_new_connections_refused_while_draining(self):
        service = make_service(seed=7)
        with BackgroundServer(service) as bg:
            host, port = bg.host, bg.port
            bg.request_drain()
            deadline = time.monotonic() + 5.0
            refused = False
            while time.monotonic() < deadline:
                try:
                    with socket.create_connection((host, port), timeout=1):
                        pass
                except OSError:
                    refused = True
                    break
                time.sleep(0.02)
            assert refused


# ----------------------------------------------------------------------
# protocol behavior over a real socket
# ----------------------------------------------------------------------
def read_frame(sock):
    header = b""
    while len(header) < HEADER_BYTES:
        chunk = sock.recv(HEADER_BYTES - len(header))
        if not chunk:
            return None
        header += chunk
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            return None
        body += chunk
    return json.loads(body.decode("utf-8"))


def hello_frame(req_id=0, version=PROTOCOL_VERSION):
    return encode_frame(make_request(req_id, "hello", {"version": version}))


class TestWireEdgeCases:
    def test_handshake_version_mismatch(self):
        with BackgroundServer(make_service(seed=8)) as bg:
            with socket.create_connection((bg.host, bg.port)) as sock:
                sock.sendall(hello_frame(version=999))
                resp = read_frame(sock)
                assert resp["ok"] is False
                assert resp["error"]["code"] == "UNSUPPORTED_VERSION"
                assert sock.recv(1) == b""  # server closed the connection

    def test_first_request_must_be_hello(self):
        with BackgroundServer(make_service(seed=8)) as bg:
            with socket.create_connection((bg.host, bg.port)) as sock:
                sock.sendall(encode_frame(make_request(0, "health")))
                resp = read_frame(sock)
                assert resp["ok"] is False
                assert resp["error"]["code"] == "BAD_REQUEST"

    def test_async_client_raises_handshake_error_on_mismatch(self):
        async def attempt(port):
            client = AsyncSchedulerClient("127.0.0.1", port)
            # sabotage the advertised version
            import repro.net.client as client_mod

            original = client_mod.PROTOCOL_VERSION
            client_mod.PROTOCOL_VERSION = 999
            try:
                with pytest.raises(HandshakeError):
                    await client.health()
            finally:
                client_mod.PROTOCOL_VERSION = original
                await client.close()

        with BackgroundServer(make_service(seed=8)) as bg:
            asyncio.run(attempt(bg.port))

    def test_malformed_json_answered_and_connection_survives(self):
        with BackgroundServer(make_service(seed=8)) as bg:
            with socket.create_connection((bg.host, bg.port)) as sock:
                sock.sendall(hello_frame())
                assert read_frame(sock)["ok"] is True
                bad = b"{definitely not json"
                sock.sendall(struct.pack(">I", len(bad)) + bad)
                resp = read_frame(sock)
                assert resp["ok"] is False
                assert resp["id"] is None
                assert resp["error"]["code"] == "BAD_REQUEST"
                # the same connection still serves valid requests
                sock.sendall(encode_frame(make_request(1, "health")))
                resp = read_frame(sock)
                assert resp["id"] == 1 and resp["ok"] is True

    def test_hello_answered_before_trailing_malformed_frame(self):
        # a pipelining client may land a valid hello and a malformed
        # frame in one read chunk; the handshake must still be answered
        # (then the malformed frame earns BAD_REQUEST, and the
        # connection survives — same semantics as the post-handshake
        # read loop)
        with BackgroundServer(make_service(seed=8)) as bg:
            with socket.create_connection((bg.host, bg.port)) as sock:
                bad = b"{definitely not json"
                sock.sendall(
                    hello_frame() + struct.pack(">I", len(bad)) + bad
                )
                resp = read_frame(sock)
                assert resp["ok"] is True  # the handshake reply
                assert resp["result"]["version"] == PROTOCOL_VERSION
                resp = read_frame(sock)
                assert resp["ok"] is False
                assert resp["error"]["code"] == "BAD_REQUEST"
                # the same connection still serves valid requests
                sock.sendall(encode_frame(make_request(1, "health")))
                resp = read_frame(sock)
                assert resp["id"] == 1 and resp["ok"] is True

    def test_oversized_frame_rejected_and_closed(self):
        config = ServerConfig(max_frame_bytes=1024)
        with BackgroundServer(make_service(seed=8), config) as bg:
            with socket.create_connection((bg.host, bg.port)) as sock:
                sock.sendall(hello_frame())
                assert read_frame(sock)["ok"] is True
                sock.sendall(struct.pack(">I", 1 << 20))
                resp = read_frame(sock)
                assert resp["error"]["code"] == "FRAME_TOO_LARGE"
                assert sock.recv(1) == b""  # unresyncable: closed

    def test_unknown_op_and_invalid_query_are_typed(self):
        with BackgroundServer(make_service(seed=8)) as bg:
            with SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as client:
                with pytest.raises(UnknownOpError):
                    client.request("frobnicate")
                client.submit([(0, 0)], arrival_ms=50.0)
                with pytest.raises(InvalidQueryError, match="non-decreasing"):
                    # scheduler-level rejection: arrival time regression
                    client.submit([(1, 1)], arrival_ms=10.0)
                with pytest.raises(BadRequestError, match="shard") as exc:
                    # the retired shard param is refused, not ignored
                    client.request(
                        "submit",
                        {"query": query_to_wire([(0, 0)]), "shard": 1},
                    )
                assert "one `repro serve` per deployment" in str(exc.value)
                # the connection survived all three errors
                assert client.health()["status"] == "ok"

    def test_infinite_arrival_is_invalid_query_and_later_submits_work(self):
        with BackgroundServer(make_service(seed=8)) as bg:
            with SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as client:
                client.submit([(0, 0)], arrival_ms=50.0)
                # JSON `Infinity`; json.loads reads `1e400` as inf too
                with pytest.raises(InvalidQueryError, match="finite"):
                    client.submit([(1, 1)], arrival_ms=float("inf"))
                rec = client.submit([(1, 1)], arrival_ms=60.0)
                assert rec.arrival_ms == 60.0

    def test_nan_arrival_is_invalid_query_and_order_still_holds(self):
        with BackgroundServer(make_service(seed=8)) as bg:
            with SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as client:
                client.submit([(0, 0)], arrival_ms=50.0)
                with pytest.raises(InvalidQueryError, match="finite"):
                    client.submit([(1, 1)], arrival_ms=float("nan"))
                with pytest.raises(InvalidQueryError, match="non-decreasing"):
                    client.submit([(1, 1)], arrival_ms=10.0)

    def test_fractional_coordinate_is_invalid_query_not_truncated(self):
        """A ``2.5`` coordinate must come back as a typed INVALID_QUERY.

        The float-era codec silently ran it through ``int()``, scheduling
        bucket (2, 0) for a query that never asked for it.
        """
        with BackgroundServer(make_service(seed=8)) as bg:
            with SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as client:
                with pytest.raises(InvalidQueryError, match="integral"):
                    client.request(
                        "submit",
                        {"query": {"kind": "coords", "coords": [[2.5, 0]]}},
                    )
                # integral floats from legacy clients still schedule
                client.request(
                    "submit",
                    {"query": {"kind": "coords", "coords": [[2.0, 0.0]]}},
                )
                assert client.health()["status"] == "ok"

    def test_repeated_bucket_is_invalid_query(self):
        """A coordinate list naming one bucket twice is refused whole.

        ``(N, N)`` wraps to ``(0, 0)``: scheduled, the bucket would be
        charged three times while the record's bucket map shows two.
        """
        with BackgroundServer(make_service(seed=8)) as bg:
            with SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as client:
                with pytest.raises(InvalidQueryError, match="duplicate bucket"):
                    client.submit([(0, 0), (0, 0), (N, N)])
                stats = client.stats()
                assert (stats["queries"], stats["buckets"]) == (0, 0)
                rec = client.submit([(0, 0), (N - 1, N - 1)])
                assert rec.num_buckets == len(rec.assignment) == 2

    def test_concurrent_requests_multiplex_one_connection(self):
        queries = make_queries(21, 10)

        async def fan_out(port):
            async with AsyncSchedulerClient(
                "127.0.0.1", port, pool_size=1, deadline_ms=30_000.0
            ) as client:
                records = await asyncio.gather(
                    *(client.submit(q) for q in queries)
                )
                assert len({r.arrival_ms for r in records}) == len(queries)
                return records

        service = make_service(seed=9)
        with BackgroundServer(service) as bg:
            records = asyncio.run(fan_out(bg.port))
        # all ten answered, each matching the server-side record
        by_arrival = {r.arrival_ms: r for r in service.history}
        for rec in records:
            assert records_match(rec, by_arrival[rec.arrival_ms])


# ----------------------------------------------------------------------
# observability over the wire
# ----------------------------------------------------------------------
class TestObservability:
    def test_health_stats_metrics_roundtrip(self):
        service = make_service(seed=10)
        with BackgroundServer(service) as bg:
            with SchedulerClient(bg.host, bg.port) as client:
                client.submit([(0, 0), (1, 1)])
                health = client.health()
                assert health["status"] == "ok"
                assert health["queries"] == 1
                stats = client.stats()
                assert stats["queries"] == 1
                assert stats["mean_response_ms"] > 0
                # one deployment per server: no histogram for a router
                # to pool across servers rides the reply
                assert "response_histogram" not in stats
                text = client.metrics_text()
        assert "repro_net_requests_total" in text
        assert "repro_net_request_ms" in text
        assert "repro_service_response_ms" in text  # service registry too

    def test_mark_with_unknown_disk_applies_nothing(self):
        service = make_service(seed=40)
        with BackgroundServer(service) as bg:
            with SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as client:
                rec = client.submit([(i, j) for i in range(3) for j in range(3)])
                busy = next(iter(rec.assignment.values()))
                client.mark_failed([busy])
                horizons = list(service._busy_until)
                with pytest.raises(InvalidQueryError, match="999"):
                    client.mark_failed([(busy + 1) % 10, 999])
                with pytest.raises(InvalidQueryError, match="999"):
                    client.mark_repaired([busy, 999])
                for op in ("mark_failed", "mark_repaired"):
                    with pytest.raises(BadRequestError, match="shard"):
                        client.request(op, {"disks": [busy], "shard": 0})
                assert service.failed_disks == frozenset({busy})
                assert service._busy_until == horizons
                assert client.health()["status"] == "ok"


# ----------------------------------------------------------------------
# predictive admission over the wire (online mode)
# ----------------------------------------------------------------------
class TestPredictiveShedding:
    def make_online_service(self, **online_kw):
        from repro.online import OnlineConfig

        return make_service(
            mode="online", online=OnlineConfig(clock="wall", **online_kw)
        )

    def test_config_target_maps_to_overloaded_with_hint(self):
        service = self.make_online_service(
            max_predicted_response_ms=0.01, retry_after_slack_ms=3.0
        )
        big = [(i, j) for i in range(3) for j in range(3)]
        with BackgroundServer(service) as bg:
            with SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as client:
                with pytest.raises(OverloadedError) as err:
                    client.submit(big)
                assert err.value.transient
                assert err.value.retry_after_ms is not None
                assert err.value.retry_after_ms > 3.0  # gap + slack
                shed = bg.server.registry.counter(
                    "repro_net_shed_total"
                ).value
                assert shed == 1.0

    def test_per_call_admission_deadline(self):
        service = self.make_online_service()
        big = [(i, j) for i in range(3) for j in range(3)]
        with BackgroundServer(service) as bg:
            with SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as client:
                # no target configured: admitted
                rec = client.submit(big)
                assert rec.response_time_ms > 0
                # impossible per-call admission deadline: shed
                with pytest.raises(OverloadedError):
                    client.submit(big, admission_deadline_ms=0.01)
                # generous per-call deadline: admitted again
                rec = client.submit(big, admission_deadline_ms=1e9)
                assert rec.response_time_ms > 0
        assert service.online_stats().shed_predicted == 1

    def test_bad_admission_deadline_type_rejected(self):
        service = self.make_online_service()
        with BackgroundServer(service) as bg:
            with SchedulerClient(bg.host, bg.port) as client:
                with pytest.raises(BadRequestError):
                    client.submit(
                        [(0, 0)], admission_deadline_ms="soon"  # type: ignore[arg-type]
                    )
