"""RoutingProxy end-to-end: transparency, affinity, failover, merging.

Two layers of test:

* **forward semantics** — the failover state machine exercised directly
  with scripted fake backend clients, because the interesting cases
  (connection lost mid-submit, deadline expiry) are races that real
  sockets cannot produce deterministically.  This is where at-most-once
  is pinned: a submit lost mid-flight must surface ``INTERNAL`` and the
  fake must show exactly one send.
* **in-process e2e** — a full :class:`BackgroundCluster` (real sockets,
  real backends) checking routed schedules match local replays
  bit-for-bit, signature affinity, merged control-plane payloads,
  fleet-wide broadcasts, connect-failover, and monitor-driven
  ejection + rejoin with the exact rendezvous share restored.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.cluster import (
    BackgroundCluster,
    ClusterConfig,
    ClusterMap,
    RoutingProxy,
)
from repro.cluster.membership import BackendInfo
from repro.net import (
    BackgroundServer,
    BadRequestError,
    OverloadedError,
    RetryPolicy,
    SchedulerClient,
)
from repro.net.errors import (
    ConnectError,
    ConnectionClosedError,
    DeadlineExceededError,
    OverloadedError as WireOverloadedError,
    RemoteError,
)
from repro.net.protocol import query_to_wire
from repro.net.server import ServerConfig
from repro.service import SchedulerService, ServiceConfig
from repro.service.signature import (
    rendezvous_choice,
    signature_bytes,
    signature_of,
)
from tests.net.test_server_e2e import deployment, make_queries

N = 5


def make_service(seed=0, **cfg):
    return SchedulerService(*deployment(seed), config=ServiceConfig(**cfg))


def owner_of(coords, ids):
    return rendezvous_choice(signature_bytes(signature_of(coords)), ids)


def query_owned_by(backend_id, ids, *, start=0):
    """A deterministic query whose rendezvous owner is ``backend_id``."""
    for s in range(start, start + 500):
        coords = [(s % N, (s // N) % N), ((s + 7) % N, (s // 3) % N)]
        coords = sorted(set(coords))
        if owner_of(coords, ids) == backend_id:
            return coords
    raise AssertionError(f"no query found owned by {backend_id}")


# ----------------------------------------------------------------------
# forward semantics with scripted backends
# ----------------------------------------------------------------------
class ScriptedClient:
    """Fake AsyncSchedulerClient: pops one scripted outcome per send."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.sends = 0

    async def request(self, op, params=None, *, deadline_ms=None):
        assert op == "submit"
        self.sends += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    async def close(self):
        pass


def make_proxy(n=3):
    cluster = ClusterMap(
        [BackendInfo(f"b{k}", "127.0.0.1", 9000 + k) for k in range(n)]
    )
    return RoutingProxy(cluster, monitor=False), cluster


def forward(proxy, key=b"k", params=None):
    return asyncio.run(
        proxy._forward_submit(1, key, params or {"query": {}})
    )


class TestForwardSemantics:
    def test_refused_connection_fails_over_and_marks_dead(self):
        proxy, cluster = make_proxy()
        key = b"k"
        first = cluster.route(key).backend_id
        second = cluster.route(key, exclude=(first,)).backend_id
        proxy._clients[first] = ScriptedClient([ConnectError("refused")])
        proxy._clients[second] = ScriptedClient([{"ok": 1}])
        resp = forward(proxy, key)
        assert resp["ok"] is True
        assert resp["result"] == {"ok": 1}
        assert not cluster.is_live(first)
        assert proxy._clients[second].sends == 1
        assert proxy._m_failovers.value == 1.0

    def test_connection_lost_mid_submit_is_internal_and_not_resent(self):
        proxy, cluster = make_proxy()
        key = b"k"
        owner = cluster.route(key).backend_id
        others = [b.backend_id for b in cluster.backends if b.backend_id != owner]
        proxy._clients[owner] = ScriptedClient(
            [ConnectionClosedError("link dropped")]
        )
        for bid in others:
            proxy._clients[bid] = ScriptedClient([{"ok": 1}])
        resp = forward(proxy, key)
        assert resp["ok"] is False
        assert resp["error"]["code"] == "INTERNAL"
        assert "at-most-once" in resp["error"]["message"]
        # the heart of the contract: nothing was re-sent anywhere
        assert proxy._clients[owner].sends == 1
        for bid in others:
            assert proxy._clients[bid].sends == 0
        # and the flaky backend left the routing table
        assert not cluster.is_live(owner)

    def test_deadline_expiry_is_internal_and_not_resent(self):
        proxy, cluster = make_proxy()
        key = b"k"
        owner = cluster.route(key).backend_id
        proxy._clients[owner] = ScriptedClient(
            [DeadlineExceededError("too slow")]
        )
        resp = forward(proxy, key)
        assert resp["ok"] is False
        assert resp["error"]["code"] == "INTERNAL"
        assert proxy._clients[owner].sends == 1
        # ambiguity does not prove death: the backend stays routable
        assert cluster.is_live(owner)

    def test_remote_error_passes_through_with_hint(self):
        proxy, cluster = make_proxy()
        key = b"k"
        owner = cluster.route(key).backend_id
        proxy._clients[owner] = ScriptedClient(
            [WireOverloadedError("shed", retry_after_ms=12.5)]
        )
        resp = forward(proxy, key)
        assert resp["ok"] is False
        assert resp["error"]["code"] == "OVERLOADED"
        assert resp["error"]["retry_after_ms"] == 12.5
        assert proxy._clients[owner].sends == 1
        assert cluster.is_live(owner)  # typed outcome, not a death

    def test_every_backend_refusing_yields_overloaded(self):
        proxy, cluster = make_proxy(2)
        for b in cluster.backends:
            proxy._clients[b.backend_id] = ScriptedClient(
                [ConnectError("refused")]
            )
        resp = forward(proxy)
        assert resp["ok"] is False
        assert resp["error"]["code"] == "OVERLOADED"
        assert resp["error"]["retry_after_ms"] is not None
        for b in cluster.backends:
            assert proxy._clients[b.backend_id].sends == 1
            assert not cluster.is_live(b.backend_id)


# ----------------------------------------------------------------------
# in-process end-to-end
# ----------------------------------------------------------------------
class TestRoutedTransparency:
    def test_routed_records_match_local_replays_bit_for_bit(self):
        servers = 3
        ids = [f"b{k}" for k in range(servers)]
        queries = make_queries(seed=7, count=24)
        replicas = {bid: make_service(seed=0) for bid in ids}
        services = [make_service(seed=0) for _ in range(servers)]
        with BackgroundCluster(services, monitor=False) as bg:
            with SchedulerClient(bg.host, bg.port) as client:
                for k, coords in enumerate(queries):
                    arrival = 10.0 * (k + 1)
                    wire = client.submit(coords, arrival_ms=arrival)
                    local = replicas[owner_of(coords, ids)].submit(
                        coords, arrival_ms=arrival
                    )
                    assert wire.response_time_ms == local.response_time_ms
                    assert wire.assignment == local.assignment
                    assert wire.degraded == local.degraded
                    assert wire.num_buckets == local.num_buckets

    def test_signature_affinity_pins_repeats_to_one_backend(self):
        services = [make_service(seed=0) for _ in range(3)]
        with BackgroundCluster(services, monitor=False) as bg:
            with SchedulerClient(bg.host, bg.port) as client:
                coords = [(0, 0), (1, 1), (2, 3)]
                for _ in range(6):
                    client.submit(coords)
                stats = client.stats()
        counts = [
            info["queries"] for info in stats["per_backend"].values()
        ]
        assert sorted(counts) == [0, 0, 6]
        owner = owner_of(coords, sorted(stats["per_backend"]))
        assert stats["per_backend"][owner]["queries"] == 6

    def test_arrival_and_shard_params_forward_verbatim(self):
        # params ride through the router untouched: arrival_ms keys the
        # backend history, and the retired `shard` param reaches the
        # backend, whose typed BAD_REQUEST comes back unchanged
        services = [make_service(seed=0) for _ in range(2)]
        with BackgroundCluster(services, monitor=False) as bg:
            with SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as client:
                rec = client.submit([(0, 0), (1, 1)], arrival_ms=25.0)
                assert rec.arrival_ms == 25.0
                with pytest.raises(BadRequestError, match="shard"):
                    client.request(
                        "submit",
                        {"query": query_to_wire([(0, 0)]), "shard": 1},
                    )
                assert client.health()["queries"] == 1


class TestMergedControlPlane:
    def test_merged_stats_sum_and_pool(self):
        services = [make_service(seed=0) for _ in range(2)]
        with BackgroundCluster(services, monitor=False) as bg:
            with SchedulerClient(bg.host, bg.port) as client:
                for coords in make_queries(seed=3, count=10):
                    client.submit(coords)
                stats = client.stats()
        per_backend = stats["per_backend"]
        assert stats["queries"] == 10
        assert stats["queries"] == sum(
            p["queries"] for p in per_backend.values()
        )
        # per-disk flows sum elementwise across replicas
        summed = [0] * len(stats["per_disk_buckets"])
        for p in per_backend.values():
            for j, v in enumerate(p["per_disk_buckets"]):
                summed[j] += v
        assert stats["per_disk_buckets"] == summed
        # fleet percentiles come from pooled buckets and must be present
        assert stats["p50_response_ms"] > 0
        assert stats["p95_response_ms"] >= stats["p50_response_ms"]
        assert stats["p99_response_ms"] >= stats["p95_response_ms"]
        assert stats["backends"] == 2 and stats["live"] == 2

    def test_merged_health_counts_and_status(self):
        services = [make_service(seed=0) for _ in range(2)]
        with BackgroundCluster(services, monitor=False) as bg:
            with SchedulerClient(bg.host, bg.port) as client:
                health = client.health()
        assert health["status"] == "ok"
        assert health["backends"] == 2 and health["live"] == 2
        assert set(health["per_backend"]) == {"b0", "b1"}
        assert all(
            p["status"] == "ok" for p in health["per_backend"].values()
        )

    def test_merged_metrics_concatenates_backend_sections(self):
        services = [make_service(seed=0) for _ in range(2)]
        with BackgroundCluster(services, monitor=False) as bg:
            with SchedulerClient(bg.host, bg.port) as client:
                client.submit([(0, 0)])
                text = client.metrics_text()
        assert "repro_cluster_forwards_total 1" in text
        assert text.count("# repro.cluster: backend ") == 2
        assert "repro_net_requests_total" in text

    def test_mark_broadcast_reaches_every_backend(self):
        ids = ["b0", "b1"]
        services = [make_service(seed=0) for _ in range(2)]
        with BackgroundCluster(services, monitor=False) as bg:
            with SchedulerClient(bg.host, bg.port) as client:
                # two queries owned by *different* backends, both over
                # disk 0's row — failing disk 0 must degrade both
                qa = query_owned_by("b0", ids)
                qb = query_owned_by("b1", ids)
                assert owner_of(qa, ids) != owner_of(qb, ids)
                client.mark_failed(list(range(N)))  # fail site 0 rows
                ra = client.submit(qa)
                rb = client.submit(qb)
                assert ra.degraded and rb.degraded
                client.mark_repaired(list(range(N)))
                ra2 = client.submit(qa, arrival_ms=None)
                rb2 = client.submit(qb, arrival_ms=None)
                assert not ra2.degraded and not rb2.degraded

    def test_mark_bad_disk_id_maps_to_typed_error(self):
        services = [make_service(seed=0) for _ in range(2)]
        with BackgroundCluster(services, monitor=False) as bg:
            with SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as client:
                with pytest.raises(RemoteError):
                    client.mark_failed([999])
                # a bad id after a good one applies on no backend
                with pytest.raises(RemoteError, match="999"):
                    client.mark_failed([0, 999])
        assert all(svc.failed_disks == frozenset() for svc in services)


class TestAdmissionDeadlineForwarding:
    def make_online(self):
        from repro.online import OnlineConfig

        return make_service(
            mode="online", online=OnlineConfig(clock="wall")
        )

    def test_admission_deadline_rides_through_the_router(self):
        big = [(i, j) for i in range(3) for j in range(3)]
        services = [self.make_online() for _ in range(2)]
        with BackgroundCluster(services, monitor=False) as bg:
            with SchedulerClient(
                bg.host, bg.port, retry=RetryPolicy(attempts=1)
            ) as client:
                rec = client.submit(big)
                assert rec.response_time_ms > 0
                with pytest.raises(OverloadedError):
                    client.submit(big, admission_deadline_ms=0.01)
                rec = client.submit(big, admission_deadline_ms=1e9)
                assert rec.response_time_ms > 0


class TestFailoverE2E:
    def test_connect_failover_reconverges_to_survivors(self):
        ids = ["b0", "b1"]
        services = [make_service(seed=0) for _ in range(2)]
        bg = BackgroundCluster(services, monitor=False)
        bg.start()
        try:
            victim_query = query_owned_by("b0", ids)
            victim_index = 0
            # kill b0 before the router ever connects to it: the very
            # first forward sees a refused connection and must fail over
            bg.backends[victim_index].stop()
            with SchedulerClient(bg.host, bg.port) as client:
                rec = client.submit(victim_query)
                assert rec.num_buckets == len(victim_query)
                health = client.health()
                assert health["status"] == "degraded"
                assert health["live"] == 1
                assert health["per_backend"]["b0"]["status"] == "dead"
                # subsequent submits keep working on the survivor
                rec2 = client.submit(victim_query)
                assert rec2.response_time_ms > 0
        finally:
            bg.stop()
        assert bg.summary is not None
        assert bg.summary["failovers"] == 1

    def test_monitor_ejects_and_rejoin_restores_the_share(self):
        ids = ["b0", "b1"]
        config = ClusterConfig(
            probe_interval_ms=40.0,
            probe_timeout_ms=300.0,
            ejection_ms=150.0,
        )
        services = [make_service(seed=0) for _ in range(2)]
        bg = BackgroundCluster(services, config)
        bg.start()
        try:
            victim_query = query_owned_by("b1", ids)
            victim = bg.backends[1]
            port = victim.port
            victim.stop()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if not self._live(bg, "b1"):
                    break
                time.sleep(0.05)
            assert not self._live(bg, "b1"), "monitor never ejected b1"
            with SchedulerClient(bg.host, bg.port) as client:
                # b1's share now serves on the survivor
                rec = client.submit(victim_query)
                assert rec.num_buckets == len(victim_query)
                # resurrect a replica on the SAME port: the monitor must
                # rejoin it and rendezvous must hand its share back
                revived = BackgroundServer(
                    make_service(seed=0), ServerConfig(port=port)
                )
                revived.start()
                try:
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        if self._live(bg, "b1"):
                            break
                        time.sleep(0.05)
                    assert self._live(bg, "b1"), "monitor never rejoined b1"
                    client.submit(victim_query)
                    stats = client.stats()
                    assert stats["per_backend"]["b1"]["queries"] == 1
                finally:
                    revived.stop()
        finally:
            bg.stop()

    @staticmethod
    def _live(bg, backend_id):
        # ClusterMap is loop-confined; read liveness through the wire
        with SchedulerClient(bg.host, bg.port) as client:
            health = client.health()
        entry = health["per_backend"].get(backend_id, {})
        return entry.get("status") not in ("dead", "unreachable")


class TestRouterDrain:
    def test_drain_refuses_new_submits_and_summarizes(self):
        services = [make_service(seed=0)]
        bg = BackgroundCluster(services, monitor=False)
        bg.start()
        with SchedulerClient(bg.host, bg.port) as client:
            client.submit([(0, 0), (1, 1)])
        summary = bg.stop()
        assert summary is not None
        assert summary["forwards"] == 1
        assert summary["failovers"] == 0
        assert summary["backends"] == 1

    def test_shutdown_rpc_drains_the_router(self):
        services = [make_service(seed=0)]
        bg = BackgroundCluster(services, monitor=False)
        bg.start()
        try:
            with SchedulerClient(bg.host, bg.port) as client:
                client.shutdown()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if bg.summary is not None:
                    break
                time.sleep(0.05)
            assert bg.summary is not None
        finally:
            bg.stop()


def test_numpy_seeded_queries_are_valid():
    # guard for the helper itself: every generated query stays on-grid
    for coords in make_queries(seed=1, count=5):
        for i, j in coords:
            assert 0 <= i < N and 0 <= j < N
