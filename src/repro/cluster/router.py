"""The signature-affine routing proxy in front of a backend fleet.

:class:`RoutingProxy` is a :class:`~repro.net.frameserver.FrameServer`
speaking the existing length-prefixed wire protocol on *both* sides: to
edge clients it looks exactly like a ``repro serve`` scheduler (same
handshake, same ops, same error codes), and to the backends it is just
another :class:`~repro.net.client.AsyncSchedulerClient`.  Per op:

* ``submit`` — the query's replica-set signature is hashed with the
  shared SHA-256 helper (:mod:`repro.service.signature`) and
  rendezvous-routed over the live :class:`~repro.cluster.membership.ClusterMap`,
  so a given signature always lands on the same backend and that
  backend's warm :class:`~repro.service.cache.NetworkCache` entries and
  fleet-lane affinity stay hot across the whole cluster.  Params
  (``arrival_ms``, ``admission_deadline_ms``) forward verbatim, and
  the backend validates them.
* ``health`` / ``stats`` — fanned out and merged; fleet-wide response
  percentiles are recomputed from the backends' pooled histogram
  buckets with :func:`~repro.service.stats.merged_quantile` (quantiles
  do not add).
* ``metrics`` — per-backend Prometheus text concatenated under
  ``# repro.cluster: backend <id>`` headers, after the router's own.
* ``mark_failed`` / ``mark_repaired`` — broadcast fleet-wide to every
  live backend, serialized on a broadcast mutex so racing broadcasts
  apply in the same order everywhere.  Each backend validates every
  disk id before it changes any state, so an unknown id applies
  nowhere.

**Failover and at-most-once.**  The router never silently re-sends a
submit whose connection died mid-request: the backend may already have
executed the solve, so re-sending could schedule the query twice.  A
*refused connection* is different — the request provably never left the
router — so only then does the router mark the backend dead and re-route
to the next-highest rendezvous scorer.  A connection that drops with the
submit outstanding marks the backend dead and surfaces a non-transient
``INTERNAL`` error, exactly like a crashed fleet worker: the edge
client's RetryPolicy will not re-submit, and the caller decides.

Backends are assumed to be replicas of one deployment (same topology,
same seed — the launcher enforces this), so any backend *can* serve any
signature; affinity is a cache-warmth optimization, not a correctness
requirement.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.cluster.config import ClusterConfig
from repro.cluster.membership import (
    ClusterMap,
    HealthMonitor,
    NoLiveBackendsError,
)
from repro.net.client import AsyncSchedulerClient, RetryPolicy
from repro.net.errors import (
    ConnectError,
    ConnectionClosedError,
    DeadlineExceededError,
    NetError,
    NonIntegralFieldError,
    ProtocolError,
    RemoteError,
)
from repro.net.frameserver import FrameServer, ServerConfig
from repro.net.protocol import error_response, ok_response, query_from_wire
from repro.net.server import OPS
from repro.obs.export import to_prometheus
from repro.service.signature import signature_bytes, signature_of
from repro.service.stats import WireHistogram, merged_quantile

__all__ = ["RoutingProxy"]


class RoutingProxy(FrameServer):
    """Route scheduler RPCs across a fleet of backend servers."""

    server_name = "repro-cluster-router"
    ops = OPS

    def __init__(
        self,
        cluster: ClusterMap,
        config: ClusterConfig | None = None,
        *,
        monitor: bool = True,
    ) -> None:
        self.cluster_config = config if config is not None else ClusterConfig()
        super().__init__(
            ServerConfig(
                host=self.cluster_config.host,
                port=self.cluster_config.port,
                max_inflight=self.cluster_config.max_inflight,
                retry_after_ms=self.cluster_config.retry_after_ms,
                max_frame_bytes=self.cluster_config.max_frame_bytes,
                registry=self.cluster_config.registry,
            )
        )
        self.cluster = cluster
        self._clients: dict[str, AsyncSchedulerClient] = {}
        # serializes mark_failed/mark_repaired broadcasts so every
        # backend applies racing broadcasts in the same order
        self._broadcast_mutex = asyncio.Lock()

        self._m_backends = self.registry.gauge(
            "repro_cluster_backends", "Backends known to the router."
        )
        self._m_live = self.registry.gauge(
            "repro_cluster_backends_live", "Backends currently routable."
        )
        self._m_forwards = self.registry.counter(
            "repro_cluster_forwards_total", "Submits forwarded to backends."
        )
        self._m_failovers = self.registry.counter(
            "repro_cluster_failovers_total",
            "Submits re-routed after a refused backend connection.",
        )
        self._m_backend_errors = self.registry.counter(
            "repro_cluster_backend_errors_total",
            "Forwarded requests that failed at or en route to a backend.",
        )
        self._m_backends.set(float(len(cluster.backends)))
        self._m_live.set(float(len(cluster.live())))

        self.monitor: HealthMonitor | None = None
        if monitor:
            self.monitor = HealthMonitor(
                cluster,
                self._clients,
                self.cluster_config,
                on_change=self._on_membership_change,
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        # clients must exist before the monitor's first probe round
        for b in self.cluster.backends:
            self._client(b.backend_id)
        await super().start()
        if self.monitor is not None:
            self.monitor.start()

    async def _finalize_drain(self) -> dict[str, Any]:
        if self.monitor is not None:
            await self.monitor.stop()
        for client in self._clients.values():
            await client.close()
        return {
            "forwards": int(self._m_forwards.value),
            "failovers": int(self._m_failovers.value),
            "backend_errors": int(self._m_backend_errors.value),
            "backends": len(self.cluster.backends),
            "live": len(self.cluster.live()),
        }

    # ------------------------------------------------------------------
    def _client(self, backend_id: str) -> AsyncSchedulerClient:
        client = self._clients.get(backend_id)
        if client is None:
            info = self.cluster.get(backend_id)
            # attempts=1: the router never retries a forward — backoff
            # and retry policy belong to the edge client, and a second
            # in-router attempt would stack retries multiplicatively
            client = AsyncSchedulerClient(
                info.host,
                info.port,
                retry=RetryPolicy(attempts=1),
                max_frame_bytes=self.cluster_config.max_frame_bytes,
            )
            self._clients[backend_id] = client
        return client

    def _on_membership_change(self, backend_id: str, alive: bool) -> None:
        self._m_live.set(float(len(self.cluster.live())))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, req_id: int, op: str, params: dict[str, Any]
    ) -> dict[str, Any]:
        if op == "submit":
            return await self._op_submit(req_id, params)
        if op == "health":
            return ok_response(req_id, await self._merged_health())
        if op == "stats":
            return ok_response(req_id, await self._merged_stats())
        if op == "metrics":
            return ok_response(
                req_id,
                {
                    "content_type": "text/plain; version=0.0.4",
                    "text": await self._merged_metrics(),
                },
            )
        if op in ("mark_failed", "mark_repaired"):
            return await self._op_broadcast(req_id, op, params)
        if op == "shutdown":
            asyncio.get_running_loop().call_soon(self.begin_drain)
            return ok_response(req_id, {"draining": True})
        if op == "hello":
            return error_response(
                req_id, "BAD_REQUEST", "hello is only valid as the handshake"
            )
        return error_response(req_id, "UNKNOWN_OP", f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # submit: signature-affine forwarding with connect-failover
    # ------------------------------------------------------------------
    async def _op_submit(
        self, req_id: int, params: dict[str, Any]
    ) -> dict[str, Any]:
        if self._draining:
            return error_response(
                req_id, "SHUTTING_DOWN", "router is draining; no new work"
            )
        if self._inflight >= self.config.max_inflight:
            self._m_shed.inc()
            return error_response(
                req_id,
                "OVERLOADED",
                f"{self._inflight} forwards in flight "
                f"(capacity {self.config.max_inflight})",
                retry_after_ms=self.config.retry_after_ms,
            )
        # decode the query only to compute the routing key; the params
        # forward to the backend verbatim (arrival_ms and
        # admission_deadline_ms ride through untouched)
        try:
            query = query_from_wire(params.get("query"))
        except NonIntegralFieldError as exc:
            return error_response(req_id, "INVALID_QUERY", str(exc))
        except ProtocolError as exc:
            return error_response(req_id, "BAD_REQUEST", str(exc))
        key = signature_bytes(signature_of(query))

        self._inflight += 1
        self._m_inflight.set(float(self._inflight))
        try:
            return await self._forward_submit(req_id, key, params)
        finally:
            self._inflight -= 1
            self._m_inflight.set(float(self._inflight))

    async def _forward_submit(
        self, req_id: int, key: bytes, params: dict[str, Any]
    ) -> dict[str, Any]:
        attempted: set[str] = set()
        while True:
            try:
                backend = self.cluster.route(key, exclude=attempted)
            except NoLiveBackendsError as exc:
                return error_response(
                    req_id,
                    "OVERLOADED",
                    str(exc),
                    retry_after_ms=self.config.retry_after_ms,
                )
            backend_id = backend.backend_id
            try:
                result = await self._client(backend_id).request(
                    "submit",
                    params,
                    deadline_ms=self.cluster_config.forward_deadline_ms,
                )
                self._m_forwards.inc()
                return ok_response(req_id, result)
            except ConnectError:
                # the request never left the router: failing over to the
                # next rendezvous scorer cannot double-execute anything
                self._m_backend_errors.inc()
                self._m_failovers.inc()
                attempted.add(backend_id)
                if self.cluster.mark_dead(backend_id):
                    self._m_live.set(float(len(self.cluster.live())))
                continue
            except ConnectionClosedError as exc:
                # the backend died with the submit outstanding: it may
                # have executed the solve, so at-most-once forbids a
                # re-send — surface non-transient INTERNAL, like a
                # crashed fleet worker
                self._m_backend_errors.inc()
                if self.cluster.mark_dead(backend_id):
                    self._m_live.set(float(len(self.cluster.live())))
                return error_response(
                    req_id,
                    "INTERNAL",
                    f"backend {backend_id!r} lost mid-submit "
                    f"(not re-sent; at-most-once): {exc}",
                )
            except DeadlineExceededError as exc:
                # same ambiguity as a dropped connection: the backend
                # may still execute it after the deadline
                self._m_backend_errors.inc()
                return error_response(
                    req_id,
                    "INTERNAL",
                    f"backend {backend_id!r} exceeded the forward deadline "
                    f"(not re-sent; at-most-once): {exc}",
                )
            except RemoteError as exc:
                # typed backend outcome (OVERLOADED, INVALID_QUERY,
                # SHUTTING_DOWN, ...): relay code + hint unchanged
                return error_response(
                    req_id,
                    exc.code,
                    f"backend {backend_id!r}: {exc}",
                    retry_after_ms=exc.retry_after_ms,
                )

    # ------------------------------------------------------------------
    # merged control plane
    # ------------------------------------------------------------------
    async def _fan_out(
        self, op: str, params: dict[str, Any] | None = None
    ) -> dict[str, Any | NetError]:
        """Run ``op`` on every *live* backend concurrently."""
        live = self.cluster.live()

        async def one(backend_id: str) -> Any:
            try:
                return await self._client(backend_id).request(
                    op,
                    params,
                    deadline_ms=self.cluster_config.forward_deadline_ms,
                )
            except NetError as exc:
                self._m_backend_errors.inc()
                return exc

        results = await asyncio.gather(
            *(one(b.backend_id) for b in live)
        )
        return {b.backend_id: r for b, r in zip(live, results)}

    async def _merged_health(self) -> dict[str, Any]:
        results = await self._fan_out("health")
        per_backend: dict[str, Any] = {}
        inflight = 0
        max_inflight = 0
        queries = 0
        healthy = 0
        for b in self.cluster.backends:
            bid = b.backend_id
            if not self.cluster.is_live(bid):
                per_backend[bid] = {"status": "dead"}
                continue
            payload = results.get(bid)
            if isinstance(payload, NetError) or not isinstance(payload, dict):
                per_backend[bid] = {"status": "unreachable"}
                continue
            per_backend[bid] = payload
            healthy += 1
            inflight += int(payload.get("inflight", 0))
            max_inflight += int(payload.get("max_inflight", 0))
            queries += int(payload.get("queries", 0))
        if self._draining:
            status = "draining"
        elif healthy == len(self.cluster.backends):
            status = "ok"
        else:
            status = "degraded"
        return {
            "status": status,
            "backends": len(self.cluster.backends),
            "live": len(self.cluster.live()),
            "inflight": inflight,
            "max_inflight": max_inflight,
            "queries": queries,
            "per_backend": per_backend,
        }

    async def _merged_stats(self) -> dict[str, Any]:
        results = await self._fan_out("stats")
        payloads = {
            bid: p
            for bid, p in results.items()
            if isinstance(p, dict)
        }
        queries = sum(int(p.get("queries", 0)) for p in payloads.values())
        total_response = sum(
            float(p.get("mean_response_ms", 0.0)) * int(p.get("queries", 0))
            for p in payloads.values()
        )
        total_decision = sum(
            float(p.get("mean_decision_ms", 0.0)) * int(p.get("queries", 0))
            for p in payloads.values()
        )
        per_disk: list[int] = []
        for p in payloads.values():
            buckets = p.get("per_disk_buckets")
            if not isinstance(buckets, list):
                continue
            # backends are replicas of one deployment: disk j here is
            # disk j there, so fleet-wide load per disk sums elementwise
            if len(buckets) > len(per_disk):
                per_disk.extend([0] * (len(buckets) - len(per_disk)))
            for j, v in enumerate(buckets):
                per_disk[j] += int(v)
        hists = [
            WireHistogram.from_wire(p.get("response_histogram"))
            for p in payloads.values()
        ]
        return {
            "queries": queries,
            "buckets": sum(int(p.get("buckets", 0)) for p in payloads.values()),
            "degraded_queries": sum(
                int(p.get("degraded_queries", 0)) for p in payloads.values()
            ),
            "mean_response_ms": total_response / queries if queries else 0.0,
            "max_response_ms": max(
                (float(p.get("max_response_ms", 0.0)) for p in payloads.values()),
                default=0.0,
            ),
            "p50_response_ms": merged_quantile(hists, 0.50),
            "p95_response_ms": merged_quantile(hists, 0.95),
            "p99_response_ms": merged_quantile(hists, 0.99),
            "mean_decision_ms": total_decision / queries if queries else 0.0,
            "cache_hits": sum(
                int(p.get("cache_hits", 0)) for p in payloads.values()
            ),
            "batches": sum(int(p.get("batches", 0)) for p in payloads.values()),
            "per_disk_buckets": per_disk,
            "backends": len(self.cluster.backends),
            "live": len(self.cluster.live()),
            "per_backend": payloads,
        }

    async def _merged_metrics(self) -> str:
        results = await self._fan_out("metrics")
        # to_prometheus takes the registry's sync lock; keep it off the
        # event loop (a concurrent metric write would stall all clients)
        own = await asyncio.get_running_loop().run_in_executor(
            self._control_executor, to_prometheus, self.registry
        )
        parts = [own]
        for b in self.cluster.backends:
            payload = results.get(b.backend_id)
            if not isinstance(payload, dict) or not isinstance(
                payload.get("text"), str
            ):
                continue
            parts.append(
                f"# repro.cluster: backend {b.backend_id} "
                f"({b.host}:{b.port})\n"
            )
            parts.append(str(payload["text"]))
        return "".join(parts)

    # ------------------------------------------------------------------
    # fleet-wide broadcasts
    # ------------------------------------------------------------------
    async def _op_broadcast(
        self, req_id: int, op: str, params: dict[str, Any]
    ) -> dict[str, Any]:
        raw = params.get("disks")
        if (
            not isinstance(raw, list)
            or not raw
            or not all(
                isinstance(d, int) and not isinstance(d, bool) for d in raw
            )
        ):
            return error_response(
                req_id, "BAD_REQUEST", "disks must be a non-empty int list"
            )
        # one broadcast at a time: two racing mark_failed/mark_repaired
        # broadcasts apply in the same order on every backend
        async with self._broadcast_mutex:
            results = await self._fan_out(op, params)
        failed = {
            bid: r for bid, r in results.items() if isinstance(r, NetError)
        }
        if failed:
            first = next(iter(failed.values()))
            code = first.code if isinstance(first, RemoteError) else "INTERNAL"
            return error_response(
                req_id,
                code,
                f"broadcast {op} failed on backend(s) "
                f"{sorted(failed)}: {first}",
            )
        return ok_response(
            req_id, {"disks": raw, "backends": sorted(results)}
        )
