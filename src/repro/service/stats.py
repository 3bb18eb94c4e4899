"""Service outcome records, lifetime aggregates, and quantile merging.

Besides the per-query :class:`ServiceRecord` and the rolling
:class:`ServiceStats`, this module owns the math for combining
response-time distributions across independent services:
:func:`merged_quantile` pools histogram buckets (quantiles do not add),
and :class:`WireHistogram` / :func:`histogram_to_wire` carry those
buckets over the RPC protocol so a cluster router can merge backend
distributions without access to the backends' registries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

__all__ = [
    "ServiceRecord",
    "ServiceStats",
    "merged_quantile",
    "histogram_to_wire",
    "WireHistogram",
]


class HistogramLike(Protocol):
    """The slice of :class:`repro.obs.registry.Histogram` merging needs."""

    bounds: tuple[float, ...]

    @property
    def count(self) -> int: ...

    def bucket_counts(self) -> list[tuple[float, int]]: ...

    def summary(self) -> Any: ...  # needs .count and .max


def merged_quantile(
    histograms: Sequence[HistogramLike | None], q: float
) -> float:
    """The ``q``-quantile of several histograms' pooled observations.

    Decumulates each histogram's ``bucket_counts()`` into shared per-bucket
    counts (the bucket bounds must match, which holds for every service's
    ``repro_service_response_ms``), then interpolates exactly like
    :meth:`~repro.obs.registry.Histogram.quantile`.  Accepts real
    :class:`~repro.obs.registry.Histogram` objects and
    :class:`WireHistogram` snapshots interchangeably.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    live = [h for h in histograms if h is not None and h.count]
    if not live:
        return 0.0
    bounds = live[0].bounds
    for h in live[1:]:
        if h.bounds != bounds:
            raise ValueError("cannot merge histograms with different buckets")
    counts = [0] * (len(bounds) + 1)
    total = 0
    observed_max = 0.0
    for h in live:
        cum_prev = 0
        for i, (_ub, cum) in enumerate(h.bucket_counts()):
            counts[i] += cum - cum_prev
            cum_prev = cum
        s = h.summary()
        total += s.count
        observed_max = max(observed_max, s.max)
    rank = q * total
    cum = 0.0
    lower = 0.0
    for ub, c in zip(bounds, counts):
        if c and cum + c >= rank:
            frac = max(0.0, rank - cum) / c
            return lower + frac * (ub - lower)
        cum += c
        lower = ub
    return observed_max


def histogram_to_wire(
    histograms: Sequence[HistogramLike | None],
) -> dict[str, Any]:
    """Pool one or more histograms into a JSON-safe bucket snapshot.

    The payload carries finite bucket bounds, non-cumulative per-bucket
    counts (the trailing entry is the ``+Inf`` overflow bucket), and the
    pooled count/max — everything :class:`WireHistogram` needs to take
    part in :func:`merged_quantile` on the far side of an RPC.
    """
    live = [h for h in histograms if h is not None and h.count]
    if not live:
        return {"bounds": [], "counts": [], "count": 0, "max": 0.0}
    bounds = live[0].bounds
    counts = [0] * (len(bounds) + 1)
    total = 0
    observed_max = 0.0
    for h in live:
        if h.bounds != bounds:
            raise ValueError("cannot pool histograms with different buckets")
        cum_prev = 0
        for i, (_ub, cum) in enumerate(h.bucket_counts()):
            counts[i] += cum - cum_prev
            cum_prev = cum
        s = h.summary()
        total += s.count
        observed_max = max(observed_max, s.max)
    return {
        "bounds": list(bounds),
        "counts": counts,
        "count": total,
        "max": observed_max,
    }


@dataclass(frozen=True)
class _WireSummary:
    count: int
    max: float


class WireHistogram:
    """A histogram snapshot reconstructed from a wire stats payload.

    Implements exactly the protocol :func:`merged_quantile` consumes, so
    a router can pool per-backend ``response_histogram`` payloads and
    interpolate fleet-wide percentiles without importing the metrics
    registry or holding any backend lock.
    """

    def __init__(
        self, bounds: Sequence[float], counts: Sequence[int],
        count: int, max_value: float,
    ) -> None:
        if len(counts) != len(bounds) + 1:
            raise ValueError(
                f"expected {len(bounds) + 1} bucket counts, got {len(counts)}"
            )
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [int(c) for c in counts]
        self._count = int(count)
        self._max = float(max_value)

    @classmethod
    def from_wire(cls, payload: Any) -> "WireHistogram | None":
        """Parse a ``response_histogram`` payload; ``None`` if absent/empty."""
        if not isinstance(payload, dict):
            return None
        bounds = payload.get("bounds")
        counts = payload.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            return None
        if not bounds or len(counts) != len(bounds) + 1:
            return None
        return cls(
            bounds,
            counts,
            int(payload.get("count", 0)),
            float(payload.get("max", 0.0)),
        )

    @property
    def count(self) -> int:
        return self._count

    def bucket_counts(self) -> list[tuple[float, int]]:
        out: list[tuple[float, int]] = []
        cum = 0
        for ub, c in zip(self.bounds, self._counts):
            cum += c
            out.append((ub, cum))
        out.append((math.inf, cum + (self._counts[-1] if self._counts else 0)))
        return out

    def summary(self) -> _WireSummary:
        return _WireSummary(count=self._count, max=self._max)


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
    batch_size:
        Number of queries jointly scheduled with this one (1 when the
        service runs in per-query mode).
    """

    arrival_ms: float
    num_buckets: int
    response_time_ms: float
    assignment: dict
    degraded: bool
    decision_time_ms: float
    query: object = None
    cache_hit: bool = False
    batch_size: int = 1


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
    batches: int = 0

    @property
    def mean_response_ms(self) -> float:
        return self.total_response_ms / self.queries if self.queries else 0.0

    @property
    def mean_decision_ms(self) -> float:
        return self.total_decision_ms / self.queries if self.queries else 0.0
