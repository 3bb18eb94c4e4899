"""Service configuration: one object for every scheduler knob.

``ServiceConfig`` consolidates what used to be loose keyword arguments
(``solver``, ``solver_kwargs``, ``time_fn``, ``registry``) and adds the
concurrent-pipeline knobs (``cache_size``, the solve backend) in one
place, so a deployment's scheduling policy can be constructed, logged and
passed around as a value.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from repro.obs.registry import MetricsRegistry
from repro.online.config import OnlineConfig

__all__ = ["ServiceConfig", "perf_ms"]

#: admissible scheduling modes
_MODES = ("offline", "online")

#: admissible solve backends
_SOLVE_BACKENDS = ("thread", "process")


def perf_ms() -> float:
    """The default service clock: ``time.perf_counter()`` in milliseconds."""
    return time.perf_counter() * 1000.0


@dataclass(frozen=True)
class ServiceConfig:
    """Scheduling policy for a :class:`~repro.service.SchedulerService`.

    Attributes
    ----------
    solver:
        Registry solver used per decision (default: the paper's
        integrated Algorithm 6, ``pr-binary``).
    solver_kwargs:
        Forwarded to the solver constructor on every solve.
    time_fn:
        Injectable clock returning milliseconds (tests pass a fake);
        ``None`` selects :func:`perf_ms`.
    registry:
        Metrics sink; ``None`` gives the service a private
        :class:`~repro.obs.MetricsRegistry`.
    cache_size:
        Capacity of the warm-start network cache (entries keyed by the
        query's replica-set signature).  ``0`` disables caching.  Only
        solvers that support warm starts use the cache; others fall back
        to cold solves transparently.  An entry holds the last solve's
        flow snapshot and disk→sink capacities; it builds and keeps its
        network at its first hit, so only signatures that repeat pin a
        network.  Under the ``process`` backend the cache lives *inside*
        each worker (signature-affine lanes keep it warm); this knob
        sizes those worker caches instead, whose entries cost the same.
    solve_backend:
        Where solves execute: ``"thread"`` (in the calling thread — the
        historical behaviour) or ``"process"`` (a
        :class:`~repro.fleet.SolveFleet` worker).  Either way one
        service's solves run one at a time under its lock: the process
        backend takes the solve out of the serving process and gives
        each lane its own warm cache, it does not run solves
        concurrently.
        ``None`` defers to the ``REPRO_SOLVE_BACKEND`` environment
        variable, defaulting to ``"thread"`` — which is how CI matrixes
        the whole fast suite over both backends with zero code changes.
    fleet_workers:
        Lane count of the :class:`~repro.fleet.SolveFleet` a
        ``process``-backed service builds, owns and closes (ignored by
        the ``thread`` backend).  The fleet's workers run this config's
        ``solver``, ``solver_kwargs`` and ``cache_size``.
    mode:
        ``"offline"`` (default): the historical behaviour — every query
        is scheduled against a static busy horizon and never departs.
        ``"online"``: continuous-time scheduling — constructing a
        :class:`~repro.service.SchedulerService` with this mode yields
        an :class:`~repro.online.OnlineScheduler` (arrivals, drains,
        failure re-planning, predictive admission).
    online:
        Online-mode policy, grouped in one nested
        :class:`~repro.online.OnlineConfig` value instead of more
        top-level kwargs.  ``None`` → defaults; only meaningful with
        ``mode="online"`` (setting it in offline mode is an error).
    """

    solver: str = "pr-binary"
    solver_kwargs: Mapping[str, object] = field(default_factory=dict)
    time_fn: Callable[[], float] | None = None
    registry: MetricsRegistry | None = None
    cache_size: int = 64
    solve_backend: str | None = None
    fleet_workers: int = 1
    mode: str = "offline"
    online: OnlineConfig | None = None

    def __post_init__(self) -> None:
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.fleet_workers < 1:
            raise ValueError(
                f"fleet_workers must be >= 1, got {self.fleet_workers}"
            )
        if self.mode not in _MODES:
            raise ValueError(
                f"mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.online is not None and self.mode != "online":
            raise ValueError(
                "online=OnlineConfig(...) requires mode='online'"
            )

    # ------------------------------------------------------------------
    def resolved_time_fn(self) -> Callable[[], float]:
        return self.time_fn if self.time_fn is not None else perf_ms

    def resolved_online(self) -> OnlineConfig:
        """The effective online policy (explicit value or defaults)."""
        return self.online if self.online is not None else OnlineConfig()

    def resolved_solve_backend(self) -> str:
        """The effective backend name (explicit > env > ``thread``)."""
        name = (
            self.solve_backend
            or os.environ.get("REPRO_SOLVE_BACKEND")
            or "thread"
        )
        if name not in _SOLVE_BACKENDS:
            raise ValueError(
                f"unknown solve backend {name!r}; choose from {_SOLVE_BACKENDS}"
            )
        return name

    def with_changes(self, **changes: object) -> "ServiceConfig":
        """A copy with the given fields replaced (frozen-friendly)."""
        return replace(self, **changes)
