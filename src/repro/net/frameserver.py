"""Protocol-generic asyncio frame server: handshake, dispatch, drain.

:class:`FrameServer` is the transport half of the RPC front end;
:class:`~repro.net.server.SchedulerServer` adds the scheduler ops on
top.  It owns everything that is not service-specific:

* accepting connections and the ``hello`` handshake (subclasses set
  :attr:`server_name` and :attr:`ops` for the hello payload);
* the per-connection read loop, tolerant frame decoding, and one task
  per request (many requests in flight per connection);
* the net-layer metrics (connections, requests, errors, latency);
* graceful drain: ``begin_drain()`` stops accepting and rejects new
  work, :meth:`drain` lets in-flight requests finish and respond,
  closes writers, and only then awaits ``wait_closed()`` — on
  Python >= 3.12 ``wait_closed()`` waits for every connection handler,
  and a handler parked in ``read()`` only wakes once its writer is
  closed, so awaiting it earlier hangs the drain forever with a single
  idle client.

Subclasses implement :meth:`_dispatch` (op handling) and may override
:meth:`_finalize_drain` (flushed once every in-flight request has
responded; its return value is what :meth:`drain` returns).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.net.errors import FrameTooLargeError, ProtocolError
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
)
from repro.obs.registry import MetricsRegistry

__all__ = ["ServerConfig", "FrameServer"]

_READ_CHUNK = 1 << 16


@dataclass(frozen=True)
class ServerConfig:
    """Transport and admission policy for a :class:`FrameServer`.

    Attributes
    ----------
    host, port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from :attr:`FrameServer.port` once started).
    max_inflight:
        Admission-control capacity: scheduling requests running or
        executor-queued at once.  Arrivals beyond it are shed with
        ``OVERLOADED`` rather than queued.
    retry_after_ms:
        The hint attached to shed responses; clients use it as a floor
        for their backoff.
    max_frame_bytes:
        Per-frame size limit enforced on both directions.
    registry:
        Sink for the server's own connection/request metrics; ``None``
        creates a private one.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 32
    retry_after_ms: float = 50.0
    max_frame_bytes: int = MAX_FRAME_BYTES
    registry: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.retry_after_ms < 0:
            raise ValueError(
                f"retry_after_ms must be >= 0, got {self.retry_after_ms}"
            )


class FrameServer:
    """Serve the length-prefixed JSON protocol; subclasses dispatch ops."""

    #: reported in the ``hello`` response
    server_name = "repro-frame-server"
    #: advertised op set (subclasses override)
    ops: frozenset[str] = frozenset({"hello"})

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config if config is not None else ServerConfig()
        self.registry = (
            self.config.registry
            if self.config.registry is not None
            else MetricsRegistry()
        )

        self._server: asyncio.AbstractServer | None = None
        self._inflight = 0
        self._draining = False
        self._drain_requested = asyncio.Event()
        self._drained = asyncio.Event()
        self._request_tasks: set[asyncio.Task[None]] = set()
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        # control-plane ops (health/stats/metrics/mark_*) block on the
        # service's solve lock, so they must leave the event loop — and
        # they get their own small pool because the default executor can
        # be saturated by up to ``max_inflight`` submits
        self._control_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-net-control"
        )

        self._m_conns = self.registry.counter(
            "repro_net_connections_total", "Client connections accepted."
        )
        self._m_open = self.registry.gauge(
            "repro_net_connections_open", "Client connections currently open."
        )
        self._m_requests = self.registry.counter(
            "repro_net_requests_total", "Requests handled (all ops)."
        )
        self._m_errors = self.registry.counter(
            "repro_net_errors_total", "Error responses returned."
        )
        self._m_shed = self.registry.counter(
            "repro_net_shed_total", "Submits rejected by admission control."
        )
        self._m_inflight = self.registry.gauge(
            "repro_net_inflight", "Scheduling requests currently in flight."
        )
        self._m_request_ms = self.registry.histogram(
            "repro_net_request_ms", "Server-side request handling latency (ms)."
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    def begin_drain(self) -> None:
        """Stop accepting; reject new work; let in-flight finish.

        Callable from the event loop (signal handlers, the ``shutdown``
        RPC).  Idempotent.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        self._drain_requested.set()

    async def drain(self) -> Any:
        """Complete a graceful shutdown; returns ``_finalize_drain()``."""
        self.begin_drain()
        # in-flight requests finish and their responses are written
        while self._request_tasks:
            await asyncio.gather(
                *tuple(self._request_tasks), return_exceptions=True
            )
        # then the connections themselves are torn down (a live read loop
        # may still have spawned late requests — keep awaiting both sets)
        for writer in tuple(self._writers):
            writer.close()
        while self._conn_tasks or self._request_tasks:
            await asyncio.gather(
                *tuple(self._conn_tasks),
                *tuple(self._request_tasks),
                return_exceptions=True,
            )
        # wait_closed() must come LAST: on Python >= 3.12 it waits for
        # every connection-handler task, and a handler parked in read()
        # only wakes once its writer is closed above — awaiting it first
        # hangs the drain forever with a single idle connected client
        if self._server is not None:
            await self._server.wait_closed()
        self._control_executor.shutdown(wait=True)
        result = await self._finalize_drain()
        self._drained.set()
        return result

    async def _finalize_drain(self) -> Any:
        """Flush final state once all in-flight work has responded."""
        return None

    async def serve_until_drained(self) -> Any:
        """Run until someone calls :meth:`begin_drain`, then drain."""
        await self._drain_requested.wait()
        return await self.drain()

    async def wait_drained(self) -> None:
        await self._drained.wait()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._writers.add(writer)
        self._m_conns.inc()
        self._m_open.inc()
        decoder = FrameDecoder(self.config.max_frame_bytes)
        write_lock = asyncio.Lock()
        try:
            pipelined = await self._handshake(reader, writer, decoder, write_lock)
            if pipelined is not None:
                for msg in pipelined:
                    self._spawn_request(msg, writer, write_lock)
                await self._read_loop(reader, writer, decoder, write_lock)
        finally:
            self._writers.discard(writer)
            self._m_open.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        decoder: FrameDecoder,
        write_lock: asyncio.Lock,
    ) -> list[dict[str, Any]] | None:
        """Expect ``hello`` first; returns pipelined follow-ups or None."""
        msgs: list[dict[str, Any]] = []
        trailing_errors: list[ProtocolError] = []
        while not msgs:
            data = await reader.read(_READ_CHUNK)
            if not data:
                return None
            try:
                items = decoder.feed(data)
            except FrameTooLargeError as exc:
                await self._send(
                    writer,
                    write_lock,
                    error_response(None, "FRAME_TOO_LARGE", str(exc)),
                )
                return None
            for item in items:
                if not isinstance(item, ProtocolError):
                    msgs.append(item)
                elif not msgs:
                    # malformed before any hello: reject and close
                    await self._send(
                        writer,
                        write_lock,
                        error_response(None, "BAD_REQUEST", str(item)),
                    )
                    return None
                else:
                    # malformed frame pipelined *behind* a valid hello:
                    # answer the handshake first, then the error — the
                    # connection survives, exactly as in _read_loop
                    trailing_errors.append(item)
        try:
            req_id, op, params = parse_request(msgs[0])
        except ProtocolError as exc:
            await self._send(
                writer, write_lock, error_response(None, "BAD_REQUEST", str(exc))
            )
            return None
        if op != "hello":
            await self._send(
                writer,
                write_lock,
                error_response(
                    req_id, "BAD_REQUEST", "first request must be 'hello'"
                ),
            )
            return None
        version = params.get("version")
        if version != PROTOCOL_VERSION:
            await self._send(
                writer,
                write_lock,
                error_response(
                    req_id,
                    "UNSUPPORTED_VERSION",
                    f"server speaks protocol {PROTOCOL_VERSION}, "
                    f"client sent {version!r}",
                ),
            )
            return None
        await self._send(
            writer,
            write_lock,
            ok_response(
                req_id,
                {
                    "version": PROTOCOL_VERSION,
                    "server": self.server_name,
                    "max_frame_bytes": self.config.max_frame_bytes,
                    "ops": sorted(self.ops),
                },
            ),
        )
        for err in trailing_errors:
            self._m_errors.inc()
            await self._send(
                writer, write_lock, error_response(None, "BAD_REQUEST", str(err))
            )
        return msgs[1:]

    async def _read_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        decoder: FrameDecoder,
        write_lock: asyncio.Lock,
    ) -> None:
        while True:
            data = await reader.read(_READ_CHUNK)
            if not data:
                return
            try:
                items = decoder.feed(data)
            except FrameTooLargeError as exc:
                # cannot resync a stream after an oversized header:
                # report, then close this connection
                self._m_errors.inc()
                await self._send(
                    writer,
                    write_lock,
                    error_response(None, "FRAME_TOO_LARGE", str(exc)),
                )
                return
            for item in items:
                if isinstance(item, ProtocolError):
                    # frame boundary was sound, payload was not: the
                    # connection survives
                    self._m_errors.inc()
                    await self._send(
                        writer,
                        write_lock,
                        error_response(None, "BAD_REQUEST", str(item)),
                    )
                else:
                    self._spawn_request(item, writer, write_lock)

    def _spawn_request(
        self,
        msg: dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        task = asyncio.create_task(self._handle_request(msg, writer, write_lock))
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle_request(
        self,
        msg: dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        t0 = time.perf_counter()
        try:
            req_id, op, params = parse_request(msg)
        except ProtocolError as exc:
            self._m_errors.inc()
            await self._send(
                writer, write_lock, error_response(None, "BAD_REQUEST", str(exc))
            )
            return
        try:
            response = await self._dispatch(req_id, op, params)
        except Exception as exc:  # noqa: BLE001 - fault barrier per request
            response = error_response(
                req_id, "INTERNAL", f"{type(exc).__name__}: {exc}"
            )
        self._m_requests.inc()
        if response.get("ok") is not True:
            self._m_errors.inc()
        self._m_request_ms.observe((time.perf_counter() - t0) * 1000.0)
        await self._send(writer, write_lock, response)

    async def _dispatch(
        self, req_id: int, op: str, params: dict[str, Any]
    ) -> dict[str, Any]:
        raise NotImplementedError  # pragma: no cover - subclass contract

    # ------------------------------------------------------------------
    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payload: dict[str, Any],
    ) -> None:
        frame = encode_frame(
            payload, max_frame_bytes=self.config.max_frame_bytes
        )
        try:
            async with write_lock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # peer went away mid-response; the read loop will notice
