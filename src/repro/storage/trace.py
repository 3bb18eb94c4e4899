"""Synthetic arrival traces for online replay.

The paper's model derives each disk's initial load ``X_j`` from "how the
previous queries are scheduled" (§II-A) — which presupposes a query
*stream*.  Real multi-tenant traces are proprietary, so this module
generates the standard synthetic equivalents (substitution recorded in
DESIGN.md):

* :func:`poisson_trace` — memoryless arrivals at a target rate, query
  sizes/types from the paper's load model;
* :func:`session_trace` — bursts of spatially correlated range queries
  (pan/zoom sessions), the access pattern the paper's GIS motivation
  describes.

Both return :class:`TraceEvent` values whose ``buckets`` and
``arrival_ms`` feed :meth:`repro.service.SchedulerService.submit`
directly (``repro replay`` does exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

# NOTE: repro.workloads imports are deferred to call time — the workloads
# package imports repro.core which imports repro.storage, and a module-
# level import here would close that cycle.

__all__ = ["TraceEvent", "poisson_trace", "session_trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One query arrival."""

    arrival_ms: float
    buckets: tuple[tuple[int, int], ...]

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)


def poisson_trace(
    N: int,
    n_queries: int,
    mean_interarrival_ms: float,
    rng: np.random.Generator,
    *,
    qtype: str = "range",
    load: int = 3,
) -> list[TraceEvent]:
    """Poisson arrivals with load-model query sizes.

    ``mean_interarrival_ms`` tunes contention: values below the system's
    mean service time build up initial loads, values far above it keep
    disks idle between queries.
    """
    if n_queries < 0:
        raise WorkloadError(f"n_queries must be >= 0, got {n_queries}")
    if mean_interarrival_ms <= 0:
        raise WorkloadError(
            f"mean interarrival must be positive, got {mean_interarrival_ms}"
        )
    from repro.workloads.loads import sample_query

    clock = 0.0
    events = []
    for _ in range(n_queries):
        clock += float(rng.exponential(mean_interarrival_ms))
        query = sample_query(load, qtype, N, rng)
        events.append(TraceEvent(clock, tuple(query.buckets())))
    return events


def session_trace(
    N: int,
    n_sessions: int,
    queries_per_session: int,
    rng: np.random.Generator,
    *,
    think_time_ms: float = 50.0,
    session_gap_ms: float = 500.0,
    viewport: tuple[int, int] = (2, 3),
) -> list[TraceEvent]:
    """Pan/zoom sessions: spatially correlated range-query bursts.

    Each session starts at a random tile, then pans one step per query
    (occasionally zooming out to a larger viewport), with short think
    times inside a session and longer gaps between sessions.
    """
    if min(viewport) < 1 or max(viewport) > N:
        raise WorkloadError(f"viewport {viewport} invalid for grid {N}")
    from repro.workloads.queries import RangeQuery

    events = []
    clock = 0.0
    r0, c0 = viewport
    for _ in range(n_sessions):
        clock += float(rng.exponential(session_gap_ms))
        i, j = int(rng.integers(0, N)), int(rng.integers(0, N))
        for step in range(queries_per_session):
            if step > 0:
                clock += float(rng.exponential(think_time_ms))
            if step % 5 == 4:  # zoom out
                r = min(N, r0 * 2)
                c = min(N, c0 * 2)
            else:
                r, c = r0, c0
            i = (i + int(rng.integers(-1, 2))) % N
            j = (j + int(rng.integers(-1, 2))) % N
            q = RangeQuery(i, j, r, c, N)
            events.append(TraceEvent(clock, tuple(q.buckets())))
    return events
