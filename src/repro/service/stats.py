"""Service outcome records and lifetime aggregates.

The per-query :class:`ServiceRecord` and the rolling
:class:`ServiceStats` a :class:`~repro.service.SchedulerService`
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ServiceRecord", "ServiceStats"]


@dataclass(frozen=True)
class ServiceRecord:
    """Outcome of one submitted query.

    Attributes
    ----------
    arrival_ms, num_buckets, response_time_ms, assignment, degraded,
    decision_time_ms:
        As in PR 1: the admission timestamp, query size, scheduled
        response time, bucket→disk map (keyed by the query's labels),
        whether failed disks were routed around, and the solve latency.
    query:
        The object originally submitted — a
        :class:`~repro.workloads.RangeQuery`, an
        :class:`~repro.workloads.ArbitraryQuery`, or the raw coordinate
        list.
    cache_hit:
        Whether the decision warm-started from the network cache.
    """

    arrival_ms: float
    num_buckets: int
    response_time_ms: float
    assignment: dict
    degraded: bool
    decision_time_ms: float
    query: object = None
    cache_hit: bool = False


@dataclass
class ServiceStats:
    """Aggregates over the service's lifetime.

    ``p50_response_ms`` / ``p95_response_ms`` are interpolated from the
    always-on registry histograms at snapshot time (not running fields);
    they are 0.0 until the first query.
    """

    queries: int = 0
    buckets: int = 0
    total_response_ms: float = 0.0
    max_response_ms: float = 0.0
    total_decision_ms: float = 0.0
    degraded_queries: int = 0
    per_disk_buckets: list[int] = field(default_factory=list)
    p50_response_ms: float = 0.0
    p95_response_ms: float = 0.0
    cache_hits: int = 0

    @property
    def mean_response_ms(self) -> float:
        return self.total_response_ms / self.queries if self.queries else 0.0

    @property
    def mean_decision_ms(self) -> float:
        return self.total_decision_ms / self.queries if self.queries else 0.0
