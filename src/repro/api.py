"""One front door for every deployment shape.

Three entry styles accreted across the project's growth: the one-shot
:func:`repro.core.api.solve`, the stateful
:class:`~repro.service.SchedulerService`, and the :mod:`repro.net` RPC
clients — each with its own construction and submit spelling.  This
module collapses them behind a single builder::

    from repro import api

    sched = api.Scheduler(config).local(system, placement)
    sched = api.Scheduler(config).serve(system, placement, port=0)
    sched = api.Scheduler.connect(host, port)

Every handle speaks the same protocol: ``submit(query, *,
deadline=None)`` accepting coordinate lists,
:class:`~repro.workloads.RangeQuery` or
:class:`~repro.workloads.ArbitraryQuery` everywhere, plus ``stats()``,
``mark_failed()`` / ``mark_repaired()``, ``close()`` and context-manager
use.  ``deadline`` is a *response-time admission target* in ms: a query
whose proven response-time lower bound exceeds it is refused
(:class:`~repro.errors.PredictedOverloadError` locally,
:class:`~repro.net.OverloadedError` over the wire) instead of scheduled
late.  The underlying classes stay importable from their own packages
(:mod:`repro.service`, :mod:`repro.net`); the top-level ``repro``
namespace no longer re-exports them.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.api import solve
from repro.decluster.multisite import MultiSitePlacement
from repro.service.config import ServiceConfig
from repro.service.scheduler import QueryLike, SchedulerService
from repro.service.stats import ServiceRecord, ServiceStats
from repro.storage.system import StorageSystem

__all__ = [
    "LocalScheduler",
    "RemoteScheduler",
    "Scheduler",
    "ServedScheduler",
    "solve",
]


class Scheduler:
    """Builder for scheduler handles; holds the policy, not the state.

    ``Scheduler(config)`` is cheap and reusable — each ``.local()`` /
    ``.serve()`` call constructs an independent deployment from the
    same policy.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()

    # ------------------------------------------------------------------
    def local(
        self, system: StorageSystem, placement: MultiSitePlacement
    ) -> "LocalScheduler":
        """An in-process scheduler over one deployment."""
        return LocalScheduler(
            SchedulerService(system, placement, self.config)
        )

    def serve(
        self,
        system: StorageSystem,
        placement: MultiSitePlacement,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        server_config: Any = None,
    ) -> "ServedScheduler":
        """Serve a deployment over TCP and hand back a connected handle.

        The returned handle owns the server, the service and an internal
        client; closing it tears all three down.
        """
        from repro.net import BackgroundServer, ServerConfig

        service = SchedulerService(system, placement, self.config)
        if server_config is None:
            server_config = ServerConfig(host=host, port=port)
        server = BackgroundServer(service, server_config).start()
        return ServedScheduler(service, server)

    @staticmethod
    def connect(
        host: str, port: int, **client_kwargs: Any
    ) -> "RemoteScheduler":
        """A handle over an already-running ``repro serve`` endpoint."""
        from repro.net import SchedulerClient

        return RemoteScheduler(
            SchedulerClient(host, port, **client_kwargs)
        )


class LocalScheduler:
    """Uniform handle over an in-process service."""

    def __init__(self, service: SchedulerService) -> None:
        self.service = service

    # ------------------------------------------------------------------
    def submit(
        self,
        query: QueryLike,
        *,
        deadline: float | None = None,
        arrival_ms: float | None = None,
    ) -> ServiceRecord:
        return self.service.submit(
            query, arrival_ms=arrival_ms, deadline_ms=deadline
        )

    def stats(self) -> ServiceStats:
        return self.service.stats()

    def mark_failed(self, disks: Sequence[int]) -> None:
        self.service.mark_failed(disks)

    def mark_repaired(self, disks: Sequence[int]) -> None:
        self.service.mark_repaired(disks)

    def close(self) -> None:
        self.service.close()

    def __enter__(self) -> "LocalScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RemoteScheduler:
    """Uniform handle over a :class:`~repro.net.SchedulerClient`."""

    def __init__(self, client: Any) -> None:
        self.client = client

    # ------------------------------------------------------------------
    def submit(
        self,
        query: QueryLike,
        *,
        deadline: float | None = None,
        arrival_ms: float | None = None,
    ) -> ServiceRecord:
        return self.client.submit(
            query,
            arrival_ms=arrival_ms,
            admission_deadline_ms=deadline,
        )

    def stats(self) -> dict[str, Any]:
        return self.client.stats()

    def mark_failed(self, disks: Sequence[int]) -> None:
        self.client.mark_failed(disks)

    def mark_repaired(self, disks: Sequence[int]) -> None:
        self.client.mark_repaired(disks)

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "RemoteScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ServedScheduler(RemoteScheduler):
    """A served deployment plus a connected client, owned together."""

    def __init__(self, service: Any, server: Any) -> None:
        from repro.net import SchedulerClient

        self.service = service
        self.server = server
        super().__init__(SchedulerClient(server.host, server.port))

    @property
    def host(self) -> str:
        return str(self.server.host)

    @property
    def port(self) -> int:
        return int(self.server.port)

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            try:
                self.server.stop()
            finally:
                self.service.close()
