"""Stateful scheduling services over the paper's solvers.

``repro.service`` was a single module in PR 1; it is now a package, but
the public import surface is unchanged and extended::

    from repro.service import (
        SchedulerService,          # as before
        ServiceRecord,             # as before (+ query/cache_hit fields)
        ServiceStats,              # as before (+ p50/p95, cache hits)
        ServiceConfig,             # scheduling policy as a value
        NetworkCache,              # warm-start network cache
    )
"""

from repro.service.cache import CacheEntry, NetworkCache
from repro.service.config import ServiceConfig, perf_ms
from repro.service.scheduler import SchedulerService
from repro.service.stats import ServiceRecord, ServiceStats

__all__ = [
    "CacheEntry",
    "NetworkCache",
    "SchedulerService",
    "ServiceConfig",
    "ServiceRecord",
    "ServiceStats",
    "perf_ms",
]
