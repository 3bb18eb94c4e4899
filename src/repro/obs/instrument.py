"""The shared solve hook: deposit per-solve accounting into a registry.

Every solver in :data:`repro.core.api.SOLVERS` flows through
:func:`repro.core.api.solve`, so this module is the single place where a
finished :class:`~repro.core.schedule.RetrievalSchedule` turns into
metrics — per-solver solve counts, wall-time and response-time
histograms, and operation counters (probes, certified midpoints,
cut-certified points, increments, pushes, relabels, augmentations).

Global metrics are **off by default** (the acceptance bar for this layer
is that un-instrumented solves stay at seed speed): :func:`observe_solve`
is a single boolean check unless the process opted in with
:func:`enable_metrics` or the caller handed ``solve`` an explicit
registry.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry

__all__ = [
    "enable_metrics",
    "metrics_enabled",
    "metrics_registry",
    "observe_solve",
    "reset_metrics",
]

_REGISTRY = MetricsRegistry()
_ENABLED = False

#: Buckets for engine-operation *counts* per solve (not latencies).
OP_BUCKETS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
              1000.0, 2500.0, 5000.0, 10000.0)


def metrics_registry() -> MetricsRegistry:
    """The process-wide default registry (always exists, may be empty)."""
    return _REGISTRY


def metrics_enabled() -> bool:
    return _ENABLED


def enable_metrics(enabled: bool = True) -> MetricsRegistry:
    """Turn the global solve hook on (or off); returns the registry."""
    global _ENABLED
    _ENABLED = bool(enabled)
    return _REGISTRY


def reset_metrics() -> MetricsRegistry:
    """Replace the global registry with a fresh one (tests, CLI runs)."""
    global _REGISTRY
    _REGISTRY = MetricsRegistry()
    return _REGISTRY


def observe_solve(schedule, registry: MetricsRegistry | None = None) -> None:
    """Record one finished solve.

    ``registry=None`` means "the global one, if enabled" — the fast path
    for default solves is one boolean test and an immediate return.
    """
    if registry is None:
        if not _ENABLED:
            return
        registry = _REGISTRY
    stats = schedule.stats
    labels = {"solver": schedule.solver}
    registry.counter(
        "repro_solve_total", "Completed solve() calls.", labels
    ).inc()
    registry.histogram(
        "repro_solve_wall_ms", "Wall time per solve (ms).", labels
    ).observe(stats.wall_time_s * 1000.0)
    registry.histogram(
        "repro_solve_response_ms",
        "Optimal response time of the returned schedule (ms).",
        labels,
    ).observe(schedule.response_time_ms)
    registry.histogram(
        "repro_solve_probes",
        "Max-flow feasibility probes per solve.",
        labels,
        buckets=OP_BUCKETS,
    ).observe(stats.probes)
    for op in (
        "probes", "certified", "cut_certified", "increments", "pushes",
        "relabels", "augmentations",
    ):
        registry.counter(
            f"repro_{op}_total", f"Total {op} across solves.", labels
        ).inc(getattr(stats, op))
