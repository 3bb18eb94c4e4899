"""In-process cluster hosting for tests and benchmarks.

:class:`BackgroundCluster` is the cluster-tier twin of
:class:`~repro.net.run.BackgroundServer`: N backend scheduler servers,
each on its own daemon thread and event loop, plus a
:class:`~repro.cluster.router.RoutingProxy` on one more daemon thread —
a full localhost cluster next to synchronous test code, no subprocesses.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Sequence

from repro.cluster.config import ClusterConfig
from repro.cluster.membership import BackendInfo, ClusterMap
from repro.cluster.router import RoutingProxy
from repro.net.run import BackgroundServer
from repro.net.server import ServerConfig
from repro.service.scheduler import SchedulerService

__all__ = ["BackgroundCluster"]


class BackgroundCluster:
    """N backend servers + a routing proxy, all on daemon threads.

    >>> with BackgroundCluster([make_service() for _ in range(3)]) as bg:
    ...     client = SchedulerClient(bg.host, bg.port)  # talks to router
    ...     ...
    ... # leaving the block drains the router, then every backend

    Backends must be replicas of one deployment (same topology/seed) —
    the routing tier assumes any backend can serve any signature.  The
    router object is exposed as :attr:`router` and its membership map as
    :attr:`cluster`; touch them from the host thread only through
    :meth:`call_in_loop` (the router's event loop is not thread-safe).
    """

    def __init__(
        self,
        services: Sequence[SchedulerService],
        config: ClusterConfig | None = None,
        *,
        monitor: bool = True,
        backend_config: ServerConfig | None = None,
    ) -> None:
        if not services:
            raise ValueError("a cluster needs at least one backend service")
        self.backends = [
            BackgroundServer(svc, backend_config) for svc in services
        ]
        self.config = config if config is not None else ClusterConfig()
        self._monitor = monitor
        self.cluster: ClusterMap | None = None
        self.router: RoutingProxy | None = None
        self.summary: dict[str, Any] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    def start(self, timeout_s: float = 30.0) -> "BackgroundCluster":
        for k, backend in enumerate(self.backends):
            try:
                backend.start(timeout_s)
            except Exception:
                for other in self.backends[:k]:
                    other.stop()
                raise
        self.cluster = ClusterMap(
            [
                BackendInfo(f"b{k}", b.host, b.port)
                for k, b in enumerate(self.backends)
            ]
        )
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-cluster-router", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("background cluster failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"background cluster failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _thread_main(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        assert self.cluster is not None
        self.router = RoutingProxy(
            self.cluster, self.config, monitor=self._monitor
        )
        try:
            await self.router.start()
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        self.summary = await self.router.serve_until_drained()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        assert self.router is not None
        return self.router.host

    @property
    def port(self) -> int:
        assert self.router is not None
        return self.router.port

    def call_in_loop(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the router's event loop thread."""
        if self._loop is None:
            raise RuntimeError("background cluster is not running")
        self._loop.call_soon_threadsafe(fn)

    def request_drain(self) -> None:
        """Trigger a graceful router drain without blocking."""
        assert self.router is not None
        self.call_in_loop(self.router.begin_drain)

    def stop(self, timeout_s: float = 60.0) -> dict[str, Any] | None:
        """Drain the router, join its thread, then drain every backend."""
        if self._thread is not None:
            if self._thread.is_alive():
                self.request_drain()
            self._thread.join(timeout_s)
            if self._thread.is_alive():  # pragma: no cover - watchdog
                raise RuntimeError("cluster router did not drain in time")
            self._thread = None
        for backend in self.backends:
            backend.stop(timeout_s)
        return self.summary

    def __enter__(self) -> "BackgroundCluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
