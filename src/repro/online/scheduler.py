"""Continuous-time scheduling: queries arrive *and finish*.

:class:`OnlineScheduler` extends the offline
:class:`~repro.service.SchedulerService` with the three things a static
busy horizon cannot express:

* **Departures.**  Every admitted query schedules one
  :class:`~repro.online.events.DrainEvent` per disk it touches; when the
  clock passes a drain, the disk's transfer is done and the query
  completes with its last drain.  A drain updates only the in-flight
  record and the event heap.  The warm cached flow is left as the last
  solve stored it: the next solve of that signature rescales the sink
  capacities at ``tmin`` and clamps the restored flow to them, which
  drops whatever no longer fits (DESIGN.md §5).
* **Failure / repair re-planning.**  ``mark_failed`` re-plans the
  not-yet-drained buckets of every in-flight query via the incremental
  engine; ``mark_repaired`` re-plans only when the repaired disk
  strictly improves the remaining completion.
* **Predictive admission.**  A query is shed *before* any solve when a
  proven lower bound on its response time (pigeonhole over the replica
  disks' busy horizons) exceeds the admission target, raising
  :class:`~repro.errors.PredictedOverloadError` — which
  :mod:`repro.net` maps to ``OVERLOADED`` + ``retry_after_ms``.

The clock is virtual by default (time moves only with explicit
``arrival_ms`` / :meth:`advance_to` / :meth:`drain`), which makes every
run bit-for-bit reproducible — the property the online-vs-offline
replay differential tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.api import get_solver, solve
from repro.core.degraded import degrade_problem
from repro.core.problem import RetrievalProblem
from repro.decluster.multisite import MultiSitePlacement
from repro.errors import (
    InfeasibleScheduleError,
    PredictedOverloadError,
    StorageConfigError,
)
from repro.online.events import DrainEvent, EventClock
from repro.online.records import OnlineRecord, OnlineStats
from repro.service.config import ServiceConfig
from repro.service.scheduler import QueryLike, SchedulerService
from repro.storage.system import StorageSystem

__all__ = ["OnlineScheduler"]


@dataclass
class _PendingDrain:
    """The book entry one heap event must match to take effect."""

    at_ms: float
    units: int


@dataclass
class _InFlight:
    """One admitted, not-yet-completed query."""

    query_id: int
    #: the full, undegraded problem; re-plans degrade it by the failed
    #: set current at re-plan time
    problem: RetrievalProblem
    arrival_ms: float
    #: bucket index → disk id (rewritten by re-planning)
    assignment: dict[int, int]
    #: disk → pending drain (the authoritative copy; heap entries that
    #: disagree are stale and skipped)
    pending: dict[int, _PendingDrain] = field(default_factory=dict)
    #: max response-time contribution among already-drained disks
    response_floor_ms: float = 0.0


class OnlineScheduler(SchedulerService):
    """A :class:`~repro.service.SchedulerService` whose queries depart.

    Constructed directly, or — the intended spelling — via
    ``SchedulerService(system, placement, config)`` with
    ``config.mode == "online"`` (the base constructor dispatches here),
    so every existing wiring (net server, CLI serve) gains the online
    mode by configuration alone.
    """

    def __init__(
        self,
        system: StorageSystem,
        placement: MultiSitePlacement,
        config: ServiceConfig | None = None,
    ) -> None:
        if config is None:
            config = ServiceConfig(mode="online")
        if config.mode != "online":
            raise ValueError(
                "OnlineScheduler requires config.mode == 'online' "
                f"(got {config.mode!r})"
            )
        cfg = config.resolved_online()
        # instantiated once so an unknown re-plan solver fails here, not
        # at the first mark_failed (and before any fleet worker starts)
        get_solver(cfg.replan_solver)
        super().__init__(system, placement, config)
        self._online_cfg = cfg
        self._wall = cfg.clock == "wall"
        self._clock_ms = self._now() if self._wall else 0.0
        self._events = EventClock()
        self._inflight: dict[int, _InFlight] = {}
        self._next_query_id = 0
        self._online_stats = OnlineStats()
        self._delays = [float(d) for d in system.delays()]

        self._m_inflight = self.registry.gauge(
            "repro_online_inflight", "Admitted, not-yet-completed queries."
        )
        self._m_predicted = self.registry.histogram(
            "repro_online_predicted_response_ms",
            "Admission-time response-time lower bound (ms).",
        )
        self._m_actual = self.registry.histogram(
            "repro_online_actual_response_ms",
            "Response time realised at completion (ms).",
        )
        self._m_shed = self.registry.counter(
            "repro_online_shed_total",
            "Queries shed on predicted response time.",
        )
        self._m_drains = self.registry.counter(
            "repro_online_drains_total", "Per-disk transfer drains."
        )
        self._m_replans = self.registry.counter(
            "repro_online_replans_total",
            "In-flight re-plans after disk failure/repair.",
        )

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now_ms(self) -> float:
        """The online clock's current position."""
        with self._lock:
            return self._now() if self._wall else self._clock_ms

    def _arrival_now_locked(self, arrival_ms: float | None) -> float:
        if arrival_ms is None:
            now = self._now() if self._wall else self._clock_ms
        else:
            now = float(arrival_ms)
        if now < self._clock_ms:
            raise StorageConfigError(
                f"online clock cannot run backwards "
                f"({now} < {self._clock_ms})"
            )
        return now

    def advance_to(self, t_ms: float) -> None:
        """Move the virtual clock to ``t_ms``, applying every drain due.

        Also usable in wall mode to force bookkeeping forward (e.g.
        before reading :meth:`online_stats` in a quiet period).
        """
        with self._lock:
            t = float(t_ms)
            if t < self._clock_ms:
                raise StorageConfigError(
                    f"online clock cannot run backwards "
                    f"({t} < {self._clock_ms})"
                )
            self._drain_due_locked(t)
            self._clock_ms = t
            self._update_depth_gauges_locked(t)

    def drain(self) -> float:
        """Run the clock forward until every in-flight query completes.

        Returns the final clock position (the completion time of the
        last transfer).  The offline-replay differential calls this and
        then compares history records against static re-solves.
        """
        with self._lock:
            while True:
                t = self._events.peek_ms()
                if t is None:
                    break
                self._clock_ms = max(self._clock_ms, t)
                self._drain_due_locked(self._clock_ms)
            self._update_depth_gauges_locked(self._clock_ms)
            return self._clock_ms

    # ------------------------------------------------------------------
    # drains
    # ------------------------------------------------------------------
    def _drain_due_locked(self, now: float) -> None:
        for ev in self._events.pop_due(now):
            self._apply_drain_locked(ev)

    def _apply_drain_locked(self, ev: DrainEvent) -> None:
        flight = self._inflight.get(ev.query_id)
        if flight is None:
            return
        plan = flight.pending.get(ev.disk)
        if plan is None or plan.at_ms != ev.at_ms or plan.units != ev.units:
            return  # superseded by a re-plan; the book entry is authoritative
        del flight.pending[ev.disk]
        self._online_stats.drains += 1
        self._m_drains.inc()
        contribution = (ev.at_ms - flight.arrival_ms) + self._delays[ev.disk]
        flight.response_floor_ms = max(flight.response_floor_ms, contribution)
        if not flight.pending:
            del self._inflight[ev.query_id]
            self._online_stats.completed += 1
            self._m_actual.observe(flight.response_floor_ms)
            self._m_inflight.set(float(len(self._inflight)))

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def submit(
        self,
        query: QueryLike,
        arrival_ms: float | None = None,
        *,
        deadline_ms: float | None = None,
    ) -> OnlineRecord:
        """Admit one arrival at ``arrival_ms`` (virtual clock: required
        to be non-decreasing; omitted → the clock stays put).

        Every drain due at or before the arrival is applied *first*, so
        a completion and an arrival on the same tick resolve
        completion-first.  ``deadline_ms`` tightens the predictive
        admission target for this call only.
        """
        coords, query_obj = self._normalize_query(query)
        base = RetrievalProblem.from_query(self.system, self.placement, coords)
        with self._lock:
            now = self._arrival_now_locked(arrival_ms)
            self._drain_due_locked(now)
            self._clock_ms = now
            now, loads = self._admit_locked(now)
            failed = self._failed
            problem, degraded = self._apply_failures(base, failed)

            predicted = self._response_lower_bound_locked(problem)
            self._m_predicted.observe(predicted)
            self._shed_on_prediction_locked(predicted, deadline_ms)

            schedule, cache_hit = self._solve_locked(problem)
            counts = schedule.counts_per_disk()
            self._advance_horizons_locked(now, loads, counts)

            query_id = self._next_query_id
            self._next_query_id += 1
            flight = _InFlight(
                query_id=query_id,
                problem=base,
                arrival_ms=now,
                assignment=dict(schedule.assignment),
            )
            for j, k in enumerate(counts):
                if k:
                    at = self._busy_until[j]
                    flight.pending[j] = _PendingDrain(at_ms=at, units=k)
                    self._events.schedule(DrainEvent(at, query_id, j, k))
            self._inflight[query_id] = flight
            self._online_stats.admitted += 1
            self._m_inflight.set(float(len(self._inflight)))

            record = OnlineRecord(
                arrival_ms=now,
                num_buckets=problem.num_buckets,
                response_time_ms=schedule.response_time_ms,
                assignment=schedule.as_bucket_map(),
                degraded=degraded,
                decision_time_ms=schedule.stats.wall_time_s * 1000.0,
                query=query_obj,
                cache_hit=cache_hit,
                query_id=query_id,
                predicted_ms=predicted,
                completion_ms=now + schedule.response_time_ms,
                loads_before=tuple(loads),
                failed_disks=tuple(sorted(failed)),
                counts_per_disk=tuple(counts),
            )
            self._record_one_locked(record)
            self._update_depth_gauges_locked(now)
            return record

    def _shed_on_prediction_locked(
        self, predicted: float, deadline_ms: float | None
    ) -> None:
        target = self._online_cfg.max_predicted_response_ms
        if deadline_ms is not None:
            target = deadline_ms if target is None else min(target, deadline_ms)
        if target is None or predicted <= target:
            return
        self._online_stats.shed_predicted += 1
        self._m_shed.inc()
        retry_after = (
            max(0.0, predicted - target)
            + self._online_cfg.retry_after_slack_ms
        )
        raise PredictedOverloadError(
            f"predicted response {predicted:.3f} ms exceeds admission "
            f"target {target:.3f} ms",
            predicted_ms=predicted,
            target_ms=target,
            retry_after_ms=retry_after,
        )

    # ------------------------------------------------------------------
    # failure / repair re-planning
    # ------------------------------------------------------------------
    def mark_failed(self, disks: Sequence[int]) -> None:
        """Take disks out of scheduling and re-plan in-flight work.

        Buckets of in-flight queries whose transfer on a failed disk had
        not yet drained are re-solved over the survivors with the
        configured incremental solver.  Raises
        :class:`~repro.errors.InfeasibleScheduleError` if some bucket
        lost every replica (the query is dropped from the in-flight set
        first — it can never complete).  Every id is validated before
        any state, clock or drain changes.
        """
        with self._lock:
            self._failed = self._failed.union(self._checked_disks_locked(disks))
            now = self._now() if self._wall else self._clock_ms
            self._drain_due_locked(now)
            self._clock_ms = max(self._clock_ms, now)
            self._replan_after_failure_locked(self._failed, now)
            self._update_depth_gauges_locked(now)

    def mark_repaired(self, disks: Sequence[int]) -> None:
        """Return repaired disks to service and re-plan where it helps.

        Each in-flight query's remaining buckets are speculatively
        re-solved over the enlarged survivor set; the new plan is
        adopted only when it strictly improves that query's remaining
        completion time.  Every id is validated before any state, clock
        or drain changes.
        """
        with self._lock:
            ids = self._checked_disks_locked(disks)
            now = self._now() if self._wall else self._clock_ms
            self._drain_due_locked(now)
            self._clock_ms = max(self._clock_ms, now)
            self._failed = self._failed.difference(ids)
            for d in ids:
                self._busy_until[d] = 0.0  # backlog restarts at zero
            self._replan_for_improvement_locked(now)
            self._update_depth_gauges_locked(now)

    # -- shared re-planning machinery ----------------------------------
    def _cancel_pending_locked(
        self, flight: _InFlight, disks: Sequence[int], now: float
    ) -> list[int]:
        """Remove ``flight``'s pending drains on ``disks``; roll the busy
        horizons back by the cancelled work.  Returns the bucket indices
        whose transfers were cancelled."""
        cancelled: list[int] = []
        for j in disks:
            plan = flight.pending.pop(j, None)
            if plan is None:
                continue
            rollback = plan.units * self.system.disk(j).block_time_ms
            self._busy_until[j] = max(self._busy_until[j] - rollback, now)
            cancelled.extend(
                i for i, d in flight.assignment.items() if d == j
            )
        return sorted(cancelled)

    def _resolve_remaining_locked(
        self, flight: _InFlight, indices: list[int], now: float
    ) -> tuple[Any, list[float]]:
        """Solve the sub-problem of ``flight``'s buckets at ``indices``
        against the *current* horizons and failure set."""
        sub = RetrievalProblem(
            self.system,
            tuple(flight.problem.replicas[i] for i in indices),
            labels=tuple(flight.problem.label_of(i) for i in indices),
        )
        if self._failed:
            sub = degrade_problem(sub, self._failed)
        loads = [max(0.0, u - now) for u in self._busy_until]
        self.system.set_loads(loads)
        return solve(sub, solver=self._online_cfg.replan_solver), loads

    def _adopt_plan_locked(
        self,
        flight: _InFlight,
        indices: list[int],
        schedule: Any,
        loads: list[float],
        now: float,
    ) -> None:
        """Install a re-planned sub-schedule: assignment, horizons,
        merged pending drains, superseding events."""
        counts = schedule.counts_per_disk()
        self._advance_horizons_locked(now, loads, counts)
        for local_i, d in schedule.assignment.items():
            flight.assignment[indices[local_i]] = d
        for j, k in enumerate(counts):
            if not k:
                continue
            at = self._busy_until[j]
            old = flight.pending.get(j)
            units = k + (old.units if old is not None else 0)
            flight.pending[j] = _PendingDrain(at_ms=at, units=units)
            self._events.schedule(
                DrainEvent(at, flight.query_id, j, units)
            )
        self._online_stats.replans += 1
        self._m_replans.inc()

    def _replan_after_failure_locked(
        self, failed: frozenset[int], now: float
    ) -> None:
        for flight in list(self._inflight.values()):
            hit = sorted(j for j in flight.pending if j in failed)
            if not hit:
                continue
            indices = self._cancel_pending_locked(flight, hit, now)
            try:
                schedule, loads = self._resolve_remaining_locked(
                    flight, indices, now
                )
            except InfeasibleScheduleError:
                # every replica of some bucket is gone — the query can
                # never complete; drop it so the clock does not wedge
                del self._inflight[flight.query_id]
                self._m_inflight.set(float(len(self._inflight)))
                raise
            self._adopt_plan_locked(flight, indices, schedule, loads, now)

    def _replan_for_improvement_locked(self, now: float) -> None:
        for flight in list(self._inflight.values()):
            if not flight.pending:
                continue
            remaining = max(
                plan.at_ms + self._delays[j]
                for j, plan in flight.pending.items()
            )
            saved_busy = {
                j: self._busy_until[j] for j in flight.pending
            }
            pending_before = dict(flight.pending)
            indices = self._cancel_pending_locked(
                flight, sorted(flight.pending), now
            )
            schedule, loads = self._resolve_remaining_locked(
                flight, indices, now
            )
            if now + schedule.response_time_ms < remaining:
                self._adopt_plan_locked(
                    flight, indices, schedule, loads, now
                )
            else:
                # keep the old plan: restore horizons and book entries
                # (the heap still holds the original events, which match
                # the restored book entries again)
                for j, u in saved_busy.items():
                    self._busy_until[j] = u
                flight.pending = pending_before

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Number of admitted, not-yet-completed queries."""
        with self._lock:
            return len(self._inflight)

    def online_stats(self) -> OnlineStats:
        """A snapshot of the online-mode counters."""
        with self._lock:
            return self._online_stats.snapshot()
