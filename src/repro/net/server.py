"""The asyncio RPC front end over the scheduler service.

:class:`SchedulerServer` exposes one deployment's
:class:`~repro.service.SchedulerService` over TCP using the
length-prefixed JSON protocol in :mod:`repro.net.protocol`.  The
transport half — handshake, per-connection read loop, one task per
request, graceful drain — lives in the reusable
:class:`~repro.net.frameserver.FrameServer` base; this module adds
what is scheduler-specific:

* **Admission control.**  At most ``max_inflight`` scheduling requests
  run at once; an arrival beyond that is *shed* with a typed
  ``OVERLOADED`` error carrying a ``retry_after_ms`` hint instead of
  queueing unboundedly.  The paper's response-time model assumes the
  scheduler decides promptly — an unbounded server-side queue would add
  exactly the waiting time (Table I's ``X_j``) the algorithm exists to
  minimize, invisibly.
* **Concurrency without blocking the loop.**  Scheduling runs in the
  default thread-pool executor (the service layer is thread-safe and
  serializes on its own solve lock); control-plane ops (``health``,
  ``stats``, ``metrics``, ``mark_*``) also touch that lock, so they run
  on a small dedicated executor of their own.  The event loop only ever
  parses frames and writes responses: it stays responsive under heavy
  ``submit`` load, and many requests may be in flight on one connection.
* **Graceful drain.**  ``begin_drain()`` (SIGTERM in ``repro serve``, or
  the ``shutdown`` RPC) stops accepting connections, rejects *new*
  requests with ``SHUTTING_DOWN``, lets every in-flight request finish
  and respond, flushes a final stats snapshot, then closes.

Per-connection/request counters and latency histograms are deposited in
a :class:`~repro.obs.MetricsRegistry`; the ``metrics`` RPC serves them —
together with the underlying service's registry — through the existing
Prometheus text exporter.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Any

from repro.errors import PredictedOverloadError, ReproError
from repro.fleet.pool import WorkerCrashedError
from repro.net.errors import NonIntegralFieldError, ProtocolError
from repro.net.frameserver import FrameServer, ServerConfig
from repro.net.protocol import (
    error_response,
    ok_response,
    query_from_wire,
    record_to_wire,
)
from repro.obs.export import to_prometheus
from repro.service.scheduler import SchedulerService
from repro.service.stats import ServiceRecord, ServiceStats

__all__ = ["ServerConfig", "SchedulerServer", "OPS"]

#: operations the server understands (``hello`` is the handshake)
OPS = frozenset(
    {
        "hello",
        "submit",
        "health",
        "stats",
        "metrics",
        "mark_failed",
        "mark_repaired",
        "shutdown",
    }
)


def _reject_shard(params: dict[str, Any]) -> None:
    """Refuse the retired ``shard`` param instead of ignoring it.

    A server schedules exactly one deployment, so a client that still
    routes to a shard id is addressing a server that no longer exists.
    """
    if params.get("shard") is not None:
        raise ProtocolError(
            "shard is not a parameter: a server schedules one deployment "
            "(run one `repro serve` per deployment)"
        )


class SchedulerServer(FrameServer):
    """Serve a scheduler service over TCP with admission control."""

    server_name = "repro-scheduler"
    ops = OPS

    def __init__(
        self,
        service: SchedulerService,
        config: ServerConfig | None = None,
    ) -> None:
        super().__init__(config)
        self.service = service
        self.final_stats: ServiceStats | None = None

    # ------------------------------------------------------------------
    async def _finalize_drain(self) -> ServiceStats:
        # stats() takes the service lock; a straggling solve could hold
        # it for milliseconds, so keep the snapshot off the event loop
        # (the default executor — the control executor is gone by now)
        self.final_stats = await asyncio.get_running_loop().run_in_executor(
            None, self.service.stats
        )
        return self.final_stats

    async def drain(self) -> ServiceStats:
        """Complete a graceful shutdown; returns the final stats snapshot."""
        stats: ServiceStats = await super().drain()
        return stats

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _dispatch(
        self, req_id: int, op: str, params: dict[str, Any]
    ) -> dict[str, Any]:
        if op == "submit":
            return await self._op_submit(req_id, params)
        # health/stats/metrics/mark_* acquire the service's solve lock,
        # which an executor-offloaded submit may hold for a whole solve;
        # run them on the control executor so the event loop never blocks
        loop = asyncio.get_running_loop()
        if op == "health":
            payload = await loop.run_in_executor(
                self._control_executor, self._health_payload
            )
            return ok_response(req_id, payload)
        if op == "stats":
            payload = await loop.run_in_executor(
                self._control_executor, self._stats_payload
            )
            return ok_response(req_id, payload)
        if op == "metrics":
            text = await loop.run_in_executor(
                self._control_executor, self.metrics_text
            )
            return ok_response(
                req_id,
                {
                    "content_type": "text/plain; version=0.0.4",
                    "text": text,
                },
            )
        if op in ("mark_failed", "mark_repaired"):
            return await loop.run_in_executor(
                self._control_executor,
                partial(self._op_mark, req_id, op, params),
            )
        if op == "shutdown":
            # respond first, then start the drain on the next loop tick
            asyncio.get_running_loop().call_soon(self.begin_drain)
            return ok_response(req_id, {"draining": True})
        if op == "hello":
            return error_response(
                req_id, "BAD_REQUEST", "hello is only valid as the handshake"
            )
        return error_response(req_id, "UNKNOWN_OP", f"unknown op {op!r}")

    async def _op_submit(
        self, req_id: int, params: dict[str, Any]
    ) -> dict[str, Any]:
        if self._draining:
            return error_response(
                req_id, "SHUTTING_DOWN", "server is draining; no new work"
            )
        if self._inflight >= self.config.max_inflight:
            self._m_shed.inc()
            return error_response(
                req_id,
                "OVERLOADED",
                f"{self._inflight} requests in flight "
                f"(capacity {self.config.max_inflight})",
                retry_after_ms=self.config.retry_after_ms,
            )
        try:
            query = query_from_wire(params.get("query"))
            _reject_shard(params)
            arrival_raw = params.get("arrival_ms")
            if arrival_raw is not None and not isinstance(
                arrival_raw, (int, float)
            ):
                raise ProtocolError(
                    f"arrival_ms must be a number: {arrival_raw!r}"
                )
            arrival_ms = None if arrival_raw is None else float(arrival_raw)
            admission_raw = params.get("admission_deadline_ms")
            if admission_raw is not None and not isinstance(
                admission_raw, (int, float)
            ):
                raise ProtocolError(
                    f"admission_deadline_ms must be a number: "
                    f"{admission_raw!r}"
                )
            admission_deadline_ms = (
                None if admission_raw is None else float(admission_raw)
            )
        except NonIntegralFieldError as exc:
            # envelope and types were fine; the *value* was fractional
            # where the integer kernel demands exactness
            return error_response(req_id, "INVALID_QUERY", str(exc))
        except ProtocolError as exc:
            return error_response(req_id, "BAD_REQUEST", str(exc))

        self._inflight += 1
        self._m_inflight.set(float(self._inflight))
        try:
            record = await asyncio.get_running_loop().run_in_executor(
                None,
                partial(
                    self._submit_sync,
                    query,
                    arrival_ms,
                    admission_deadline_ms,
                ),
            )
        except ValueError as exc:  # a value the scheduler rejects
            return error_response(req_id, "BAD_REQUEST", str(exc))
        except WorkerCrashedError as exc:
            # a fleet worker died mid-solve: the query was valid, the
            # infrastructure failed.  INTERNAL is non-transient on the
            # wire, so a client RetryPolicy will NOT re-submit — submit
            # keeps its at-most-once semantics.  The fleet has already
            # rebuilt the lane, so later submits succeed.
            return error_response(
                req_id, "INTERNAL", f"solve worker crashed: {exc}"
            )
        except PredictedOverloadError as exc:
            # the online scheduler shed on *predicted* response time:
            # same transient OVERLOADED wire path as counter-based
            # shedding, but the retry hint is the scheduler's own
            # estimate of when the backlog admits the query
            self._m_shed.inc()
            return error_response(
                req_id,
                "OVERLOADED",
                str(exc),
                retry_after_ms=exc.retry_after_ms,
            )
        except ReproError as exc:
            return error_response(req_id, "INVALID_QUERY", str(exc))
        finally:
            self._inflight -= 1
            self._m_inflight.set(float(self._inflight))
        return ok_response(req_id, record_to_wire(record))

    def _submit_sync(
        self,
        query: Any,
        arrival_ms: float | None,
        admission_deadline_ms: float | None = None,
    ) -> ServiceRecord:
        # pass deadline_ms only when the client sent one: stub services
        # (and pre-facade subclasses) override submit(query, arrival_ms)
        # and must keep working for deadline-free submits
        extra: dict[str, float] = {}
        if admission_deadline_ms is not None:
            extra["deadline_ms"] = admission_deadline_ms
        return self.service.submit(query, arrival_ms=arrival_ms, **extra)

    def _op_mark(
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
        try:
            _reject_shard(params)
            if op == "mark_failed":
                self.service.mark_failed(raw)
            else:
                self.service.mark_repaired(raw)
        except ProtocolError as exc:
            return error_response(req_id, "BAD_REQUEST", str(exc))
        except ReproError as exc:
            return error_response(req_id, "INVALID_QUERY", str(exc))
        return ok_response(req_id, {"disks": raw})

    # ------------------------------------------------------------------
    # payload builders
    # ------------------------------------------------------------------
    def _health_payload(self) -> dict[str, Any]:
        stats = self.service.stats()
        return {
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
            "max_inflight": self.config.max_inflight,
            "queries": stats.queries,
        }

    def _stats_payload(self) -> dict[str, Any]:
        stats = self.service.stats()
        return {
            "queries": stats.queries,
            "buckets": stats.buckets,
            "degraded_queries": stats.degraded_queries,
            "mean_response_ms": stats.mean_response_ms,
            "max_response_ms": stats.max_response_ms,
            "p50_response_ms": stats.p50_response_ms,
            "p95_response_ms": stats.p95_response_ms,
            "mean_decision_ms": stats.mean_decision_ms,
            "cache_hits": stats.cache_hits,
            "per_disk_buckets": list(stats.per_disk_buckets),
        }

    def metrics_text(self) -> str:
        """Prometheus text for the net layer plus the service's registry."""
        return "".join(
            [
                to_prometheus(self.registry),
                "# repro.net: scheduler\n",
                to_prometheus(self.service.registry),
            ]
        )
