"""Server runners: signal-aware foreground serve and a thread-hosted server.

:func:`serve` is what ``repro serve`` runs: start a
:class:`~repro.net.server.SchedulerServer`, install SIGTERM/SIGINT
handlers that trigger a graceful drain, and block until the drain
completes — in-flight requests finish, stats are flushed, the process
exits 0.

:class:`BackgroundServer` hosts the same server on a daemon thread with
a private event loop, for tests and benchmarks that need a live
localhost endpoint next to synchronous code.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from typing import Callable

from repro.net.server import SchedulerServer, ServerConfig
from repro.service.scheduler import SchedulerService
from repro.service.stats import ServiceStats

__all__ = ["serve", "BackgroundServer"]


async def serve(
    service: SchedulerService,
    config: ServerConfig | None = None,
    *,
    install_signal_handlers: bool = True,
    ready: Callable[[SchedulerServer], None] | None = None,
) -> ServiceStats:
    """Serve until SIGTERM/SIGINT (or a ``shutdown`` RPC) drains us.

    ``ready`` is invoked once the socket is bound (e.g. to print the
    chosen port).  Returns the final stats snapshot flushed by the
    drain.
    """
    server = SchedulerServer(service, config)
    await server.start()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    if install_signal_handlers:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.begin_drain)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix event loops
    try:
        if ready is not None:
            ready(server)
        return await server.serve_until_drained()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)


class BackgroundServer:
    """A :class:`SchedulerServer` on a daemon thread (tests/benchmarks).

    >>> with BackgroundServer(service) as bg:
    ...     client = SchedulerClient(bg.host, bg.port)
    ...     ...
    ... # leaving the block drains gracefully and joins the thread

    The wrapped server object is exposed as :attr:`server`; interact
    with it from the host thread only via :meth:`call_in_loop` (the
    event loop is not thread-safe).
    """

    def __init__(
        self,
        service: SchedulerService,
        config: ServerConfig | None = None,
    ) -> None:
        self.server = SchedulerServer(service, config)
        self.final_stats: ServiceStats | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    def start(self, timeout_s: float = 10.0) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-net-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("background server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"background server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _thread_main(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        self.final_stats = await self.server.serve_until_drained()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def call_in_loop(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the server's event loop thread."""
        if self._loop is None:
            raise RuntimeError("background server is not running")
        self._loop.call_soon_threadsafe(fn)

    def request_drain(self) -> None:
        """Trigger a graceful drain without blocking."""
        self.call_in_loop(self.server.begin_drain)

    def stop(self, timeout_s: float = 30.0) -> ServiceStats | None:
        """Drain gracefully and join the server thread."""
        if self._thread is None:
            return None
        if self._thread.is_alive():
            self.request_drain()
        self._thread.join(timeout_s)
        if self._thread.is_alive():  # pragma: no cover - watchdog
            raise RuntimeError("background server did not drain in time")
        return self.final_stats

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
