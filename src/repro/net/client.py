"""Sync and async clients for the scheduler RPC service.

:class:`AsyncSchedulerClient` is the native asyncio implementation: a
small connection pool, one background reader task per connection
dispatching responses to per-request futures (so many requests can be in
flight on one connection), an overall per-request deadline, and retry
with jittered exponential backoff on *transient* failures — load-shed
(``OVERLOADED``, honouring the server's ``retry_after_ms`` hint as a
backoff floor), refused connects, and — for idempotent ops only —
dropped connections.  ``submit`` is at-most-once: a connection lost with
the request outstanding raises instead of re-sending, since the server
may have already executed the solve and a blind retry would schedule
the query twice.  Non-transient errors (bad requests, invalid queries,
exceeded deadlines) surface immediately as the typed exceptions of
:mod:`repro.net.errors`.

:class:`SchedulerClient` wraps the async client for synchronous callers:
it runs a private event loop on a daemon thread and proxies every call
through it, so the two clients cannot drift apart.

>>> with SchedulerClient("127.0.0.1", port) as client:
...     record = client.submit([(0, 0), (1, 1)], deadline_ms=250.0)
...     record.response_time_ms
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Coroutine, Sequence, TypeVar

from repro.net.errors import (
    ConnectError,
    ConnectionClosedError,
    DeadlineExceededError,
    HandshakeError,
    NetError,
    ProtocolError,
    RemoteError,
    remote_error_from_wire,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    make_request,
    query_to_wire,
    record_from_wire,
)
from repro.service.stats import ServiceRecord
from repro.workloads.queries import ArbitraryQuery, RangeQuery

__all__ = ["RetryPolicy", "AsyncSchedulerClient", "SchedulerClient"]

_T = TypeVar("_T")

_READ_CHUNK = 1 << 16

#: ops safe to re-send after a *dropped connection*, where the client
#: cannot know whether the server executed the request before the link
#: died.  ``submit`` is deliberately absent: it advances disk
#: busy-horizons and appends to stats/history, so re-sending it could
#: schedule the same query twice and silently skew the response-time
#: measurements.  (Shed ``OVERLOADED`` responses are different — the
#: server proved it did nothing — so submit still retries those.)
_IDEMPOTENT_OPS = frozenset(
    {
        "hello",
        "health",
        "stats",
        "metrics",
        "mark_failed",
        "mark_repaired",
        "shutdown",
    }
)

QueryLike = Sequence[tuple[int, int]] | RangeQuery | ArbitraryQuery

_UNSET: Any = object()


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for transient errors.

    Attempt ``k`` (0-based) failing transiently sleeps
    ``base_backoff_ms * multiplier**k`` capped at ``max_backoff_ms``,
    with the top ``jitter`` fraction of that value uniformly randomized
    (decorrelating clients that were shed together), floored at the
    server's ``retry_after_ms`` hint when one was given.
    """

    attempts: int = 4
    base_backoff_ms: float = 10.0
    multiplier: float = 2.0
    max_backoff_ms: float = 1000.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_ms(
        self,
        attempt: int,
        rng: random.Random,
        *,
        floor_ms: float | None = None,
    ) -> float:
        raw = min(
            self.max_backoff_ms,
            self.base_backoff_ms * self.multiplier**attempt,
        )
        jittered = raw * (1.0 - self.jitter) + rng.random() * raw * self.jitter
        if floor_ms is not None:
            jittered = max(jittered, floor_ms)
        return jittered


class _AsyncConnection:
    """One handshaken connection multiplexing requests by id."""

    def __init__(self, host: str, port: int, max_frame_bytes: int) -> None:
        self._host = host
        self._port = port
        self._max_frame_bytes = max_frame_bytes
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._read_task: asyncio.Task[None] | None = None
        self._pending: dict[int, asyncio.Future[Any]] = {}
        self._next_id = 0
        self._write_lock = asyncio.Lock()
        self._closed = False
        self.server_info: dict[str, Any] = {}

    @property
    def closed(self) -> bool:
        return self._closed

    async def open(self, handshake_timeout_s: float = 10.0) -> None:
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )
        except OSError as exc:
            raise ConnectError(
                f"cannot connect to {self._host}:{self._port}: {exc}"
            ) from exc
        self._read_task = asyncio.create_task(self._read_loop())
        try:
            info = await self.call(
                "hello", {"version": PROTOCOL_VERSION}, handshake_timeout_s
            )
        except RemoteError as exc:
            await self.close()
            raise HandshakeError(f"handshake rejected: {exc}") from exc
        except NetError:
            await self.close()
            raise
        if not isinstance(info, dict) or info.get("version") != PROTOCOL_VERSION:
            await self.close()
            raise HandshakeError(f"unexpected hello response: {info!r}")
        self.server_info = info

    async def call(
        self, op: str, params: dict[str, Any], timeout_s: float | None
    ) -> Any:
        if self._closed or self._writer is None:
            raise ConnectionClosedError("connection is closed")
        req_id = self._next_id
        self._next_id += 1
        loop = asyncio.get_running_loop()
        future: asyncio.Future[Any] = loop.create_future()
        self._pending[req_id] = future
        frame = encode_frame(
            make_request(req_id, op, params),
            max_frame_bytes=self._max_frame_bytes,
        )
        try:
            async with self._write_lock:
                self._writer.write(frame)
                await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(req_id, None)
            await self.close()
            raise ConnectionClosedError(
                f"connection lost while sending {op!r}: {exc}"
            ) from exc
        try:
            if timeout_s is None:
                return await future
            return await asyncio.wait_for(future, timeout_s)
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                f"{op!r} deadline exceeded after {timeout_s * 1000:.0f} ms"
                if timeout_s is not None
                else f"{op!r} deadline exceeded"
            ) from None
        finally:
            self._pending.pop(req_id, None)

    async def _read_loop(self) -> None:
        assert self._reader is not None
        decoder = FrameDecoder(self._max_frame_bytes)
        error: NetError | None = None
        try:
            while True:
                data = await self._reader.read(_READ_CHUNK)
                if not data:
                    break
                for item in decoder.feed(data):
                    if isinstance(item, ProtocolError):
                        raise item
                    self._dispatch(item)
        except NetError as exc:
            error = exc
        except (ConnectionError, OSError) as exc:
            error = ConnectionClosedError(f"connection lost: {exc}")
        finally:
            self._closed = True
            failure = error or ConnectionClosedError(
                "connection closed by server"
            )
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(failure)
            self._pending.clear()

    def _dispatch(self, msg: dict[str, Any]) -> None:
        req_id = msg.get("id")
        if req_id is None:
            # a server-side framing complaint not tied to any request
            # (we never send malformed frames, so just surface loudly)
            raise ProtocolError(
                f"server reported a connection-level error: "
                f"{msg.get('error')!r}"
            )
        future = self._pending.get(req_id) if isinstance(req_id, int) else None
        if future is None or future.done():
            return  # response to an abandoned (deadline-exceeded) request
        if msg.get("ok") is True:
            future.set_result(msg.get("result"))
        else:
            future.set_exception(remote_error_from_wire(msg.get("error")))

    async def close(self) -> None:
        self._closed = True
        if self._read_task is not None and not self._read_task.done():
            self._read_task.cancel()
            try:
                await self._read_task
            except (asyncio.CancelledError, NetError):
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class AsyncSchedulerClient:
    """Asyncio client with pooling, deadlines and transient-error retry.

    Parameters
    ----------
    host, port:
        Server address.
    pool_size:
        Connections kept open; requests rotate round-robin across them
        (each connection already multiplexes, so this mainly spreads
        framing/drain work).
    deadline_ms:
        Default overall per-request deadline (connect + all retries +
        backoff sleeps); ``None`` waits indefinitely.
    retry:
        The :class:`RetryPolicy`; only transient errors are retried.
    seed:
        Seeds the backoff jitter for reproducible tests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 1,
        deadline_ms: float | None = None,
        retry: RetryPolicy | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        seed: int | None = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self._host = host
        self._port = port
        self._pool: list[_AsyncConnection | None] = [None] * pool_size
        self._rr = 0
        self._deadline_ms = deadline_ms
        self._retry = retry if retry is not None else RetryPolicy()
        self._max_frame_bytes = max_frame_bytes
        self._rng = random.Random(seed)
        self._connect_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    async def _connection(self, slot: int) -> _AsyncConnection:
        conn = self._pool[slot]
        if conn is not None and not conn.closed:
            return conn
        async with self._connect_lock:
            conn = self._pool[slot]
            if conn is not None and not conn.closed:
                return conn
            fresh = _AsyncConnection(
                self._host, self._port, self._max_frame_bytes
            )
            await fresh.open()
            self._pool[slot] = fresh
            return fresh

    async def request(
        self,
        op: str,
        params: dict[str, Any] | None = None,
        *,
        deadline_ms: float | None = _UNSET,
    ) -> Any:
        """One RPC with deadline + retry; returns the ``result`` payload.

        Only *transient* errors retry, and a lost connection is only
        transient for idempotent ops: a ``submit`` whose connection died
        mid-request surfaces :class:`ConnectionClosedError` instead of
        re-sending (at-most-once), because the server may have already
        executed the solve.  Refused connects (the request never left)
        and ``OVERLOADED`` sheds (the server did nothing) retry for
        every op.
        """
        budget_ms = (
            self._deadline_ms if deadline_ms is _UNSET else deadline_ms
        )
        deadline_at = (
            None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        )
        attempt = 0
        while True:
            remaining_s: float | None = None
            if deadline_at is not None:
                remaining_s = deadline_at - time.monotonic()
                if remaining_s <= 0:
                    raise DeadlineExceededError(
                        f"{op!r} deadline of {budget_ms:.0f} ms exhausted "
                        f"after {attempt} attempt(s)"
                    )
            try:
                slot = self._rr % len(self._pool)
                self._rr += 1
                conn = await self._connection(slot)
                return await conn.call(op, params or {}, remaining_s)
            except NetError as exc:
                # a dropped connection is ambiguous — the server may have
                # executed the request before the link died — so only
                # idempotent ops may re-send after one
                ambiguous = (
                    isinstance(exc, ConnectionClosedError)
                    and op not in _IDEMPOTENT_OPS
                )
                if (
                    not exc.transient
                    or ambiguous
                    or attempt + 1 >= self._retry.attempts
                ):
                    raise
                floor = (
                    exc.retry_after_ms
                    if isinstance(exc, RemoteError)
                    else None
                )
                delay_s = (
                    self._retry.backoff_ms(
                        attempt, self._rng, floor_ms=floor
                    )
                    / 1000.0
                )
                if remaining_s is not None and delay_s >= remaining_s:
                    raise  # no budget left to wait out the backoff
                await asyncio.sleep(delay_s)
                attempt += 1

    # ------------------------------------------------------------------
    # typed operations
    # ------------------------------------------------------------------
    async def submit(
        self,
        query: QueryLike,
        *,
        arrival_ms: float | None = None,
        deadline_ms: float | None = _UNSET,
        admission_deadline_ms: float | None = None,
    ) -> ServiceRecord:
        """Submit one query.

        ``deadline_ms`` bounds the *RPC* (client-side budget across
        retries); ``admission_deadline_ms`` rides the wire to the
        scheduler as a *response-time* admission target — a query whose
        predicted response time exceeds it is shed with
        :class:`~repro.net.errors.OverloadedError`.
        """
        params: dict[str, Any] = {"query": query_to_wire(query)}
        if arrival_ms is not None:
            params["arrival_ms"] = arrival_ms
        if admission_deadline_ms is not None:
            params["admission_deadline_ms"] = admission_deadline_ms
        result = await self.request("submit", params, deadline_ms=deadline_ms)
        return record_from_wire(result)

    async def health(self) -> dict[str, Any]:
        result = await self.request("health")
        if not isinstance(result, dict):
            raise ProtocolError(f"malformed health payload: {result!r}")
        return result

    async def stats(self) -> dict[str, Any]:
        result = await self.request("stats")
        if not isinstance(result, dict):
            raise ProtocolError(f"malformed stats payload: {result!r}")
        return result

    async def metrics_text(self) -> str:
        result = await self.request("metrics")
        if not isinstance(result, dict) or not isinstance(
            result.get("text"), str
        ):
            raise ProtocolError(f"malformed metrics payload: {result!r}")
        return str(result["text"])

    async def mark_failed(self, disks: Sequence[int]) -> None:
        await self.request("mark_failed", {"disks": list(disks)})

    async def mark_repaired(self, disks: Sequence[int]) -> None:
        await self.request("mark_repaired", {"disks": list(disks)})

    async def shutdown(self) -> None:
        await self.request("shutdown")

    async def close(self) -> None:
        for i, conn in enumerate(self._pool):
            if conn is not None:
                await conn.close()
                self._pool[i] = None

    async def __aenter__(self) -> "AsyncSchedulerClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


class SchedulerClient:
    """Blocking facade over :class:`AsyncSchedulerClient`.

    Runs a private event loop on a daemon thread; every method proxies
    the corresponding coroutine and blocks for its result, so retry,
    deadline and pooling semantics are identical to the async client.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 1,
        deadline_ms: float | None = None,
        retry: RetryPolicy | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        seed: int | None = None,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-net-client",
            daemon=True,
        )
        self._thread.start()
        self._closed = False
        self._async = AsyncSchedulerClient(
            host,
            port,
            pool_size=pool_size,
            deadline_ms=deadline_ms,
            retry=retry,
            max_frame_bytes=max_frame_bytes,
            seed=seed,
        )

    def _run(self, coro: Coroutine[Any, Any, _T]) -> _T:
        if self._closed:
            coro.close()
            raise ConnectionClosedError("client is closed")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # ------------------------------------------------------------------
    def request(
        self,
        op: str,
        params: dict[str, Any] | None = None,
        *,
        deadline_ms: float | None = _UNSET,
    ) -> Any:
        return self._run(
            self._async.request(op, params, deadline_ms=deadline_ms)
        )

    def submit(
        self,
        query: QueryLike,
        *,
        arrival_ms: float | None = None,
        deadline_ms: float | None = _UNSET,
        admission_deadline_ms: float | None = None,
    ) -> ServiceRecord:
        return self._run(
            self._async.submit(
                query,
                arrival_ms=arrival_ms,
                deadline_ms=deadline_ms,
                admission_deadline_ms=admission_deadline_ms,
            )
        )

    def health(self) -> dict[str, Any]:
        return self._run(self._async.health())

    def stats(self) -> dict[str, Any]:
        return self._run(self._async.stats())

    def metrics_text(self) -> str:
        return self._run(self._async.metrics_text())

    def mark_failed(self, disks: Sequence[int]) -> None:
        self._run(self._async.mark_failed(disks))

    def mark_repaired(self, disks: Sequence[int]) -> None:
        self._run(self._async.mark_repaired(disks))

    def shutdown(self) -> None:
        self._run(self._async.shutdown())

    async def _shutdown_loop(self) -> None:
        """Cancel every task still on the loop so no proxied caller hangs."""
        tasks = [
            t
            for t in asyncio.all_tasks()
            if t is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._run(self._async.close())
        finally:
            self._closed = True
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown_loop(), self._loop
                ).result(timeout=10.0)
            except (
                NetError,
                TimeoutError,
                concurrent.futures.TimeoutError,  # distinct class on 3.10
                RuntimeError,
            ):
                pass  # loop already dead or tasks uncancellable: give up
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._loop.close()

    def __enter__(self) -> "SchedulerClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
