"""Online-mode policy knobs, grouped in one nested dataclass.

``ServiceConfig`` stays the single policy object a deployment passes
around; everything specific to the continuous-time mode lives here so
the top level does not sprawl one kwarg per knob.  Construct with
``ServiceConfig(mode="online", online=OnlineConfig(...))``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OnlineConfig"]

#: admissible clock sources
_CLOCKS = ("virtual", "wall")


@dataclass(frozen=True)
class OnlineConfig:
    """Policy for :class:`~repro.online.OnlineScheduler`.

    Attributes
    ----------
    clock:
        ``"virtual"`` (default) advances time only with explicit
        ``arrival_ms`` values and :meth:`~repro.online.OnlineScheduler.
        advance_to` — fully deterministic, the mode benches and the
        replay differential use.  ``"wall"`` reads the service's
        injected ``time_fn`` on every submit (live deployments).
    max_predicted_response_ms:
        Admission target: a query whose *proven lower bound* on response
        time (busy horizons + candidate makespan) exceeds this is shed
        with :class:`~repro.errors.PredictedOverloadError` before any
        solve runs.  ``None`` (default) disables config-level shedding;
        per-call ``deadline_ms`` still applies.
    retry_after_slack_ms:
        Added to the computed backoff hint carried by the shed error
        (how long until the bound could fall below the target).
    repair:
        Enable decremental flow repair: when a transfer drains, its
        units are recorded against the warm cached network's entry in
        O(1), and the entry's next checkout releases them from the
        flow and shrinks the sink capacity back
        (:meth:`~repro.core.network.RetrievalNetwork.release_flow` /
        ``decrement_sink_cap``).  Only effective with a service-side
        cache (thread backend, ``cache_size > 0``).
    replan_solver:
        Registry solver used to re-plan in-flight work after
        ``mark_failed`` / ``mark_repaired`` (default: the incremental
        engine, which the paper's Algorithm 5 machinery makes cheap).
    """

    clock: str = "virtual"
    max_predicted_response_ms: float | None = None
    retry_after_slack_ms: float = 5.0
    repair: bool = True
    replan_solver: str = "pr-incremental"

    def __post_init__(self) -> None:
        if self.clock not in _CLOCKS:
            raise ValueError(
                f"clock must be one of {_CLOCKS}, got {self.clock!r}"
            )
        if (
            self.max_predicted_response_ms is not None
            and self.max_predicted_response_ms <= 0
        ):
            raise ValueError(
                f"max_predicted_response_ms must be > 0, got "
                f"{self.max_predicted_response_ms}"
            )
        if self.retry_after_slack_ms < 0:
            raise ValueError(
                f"retry_after_slack_ms must be >= 0, got "
                f"{self.retry_after_slack_ms}"
            )
