"""The stateful retrieval-scheduler service (concurrent pipeline).

Everything a storage frontend needs behind one object: hold the system
and placement, accept queries (thread-safely), keep per-disk busy
horizons up to date (Table I's ``X_j``), route around failed disks, and
expose running statistics.  This is the "adoptable" packaging of the
paper's algorithm — the piece a downstream array firmware or volume
manager would embed.

The hot path is a pipeline, not a critical section:

1. **Admission (lock-free).**  Problem construction — coordinate
   normalisation, replica lookup, degraded filtering — runs outside the
   solve lock; only load-refresh, solve and horizon-advance are
   serialized.
2. **Warm-start cache.**  Queries with a previously seen replica-set
   signature reuse the cached :class:`~repro.core.network.RetrievalNetwork`
   topology and the conserved flow of the last solve (clamped to the new
   capacities) — Algorithm 6's flow conservation extended across solves.
3. **Batched admission (optional).**  With ``batch_window_ms > 0``,
   concurrent submits coalesce into one joint ``solve_batch`` schedule
   (see :mod:`repro.service.batching`).

>>> svc = SchedulerService(system, placement, config=ServiceConfig())
>>> record = svc.submit([(0, 0), (0, 1)])       # coords on the grid
>>> record = svc.submit(RangeQuery(0, 0, 2, 2, N))   # or query objects
>>> svc.mark_failed([3])                         # disk 3 died
>>> svc.stats().p95_response_ms
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.api import SOLVERS, solve
from repro.core.batch import BatchSchedule, merge_problems
from repro.core.degraded import degrade_problem
from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.decluster.multisite import MultiSitePlacement
from repro.errors import PredictedOverloadError, StorageConfigError
from repro.obs.registry import MetricsRegistry
from repro.service.batching import BatchAdmission, _PendingQuery
from repro.service.cache import NetworkCache
from repro.service.config import ServiceConfig
from repro.service.stats import ServiceRecord, ServiceStats
from repro.storage.system import StorageSystem
from repro.workloads.queries import ArbitraryQuery, RangeQuery

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.pool import SolveFleet

#: anything submit() accepts: a bucket-coordinate sequence or a query object
QueryLike = Sequence[tuple[int, int]] | RangeQuery | ArbitraryQuery

__all__ = ["SchedulerService"]

#: batch-size histogram edges (queries per admitted batch)
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)


class SchedulerService:
    """Thread-safe optimal-response-time scheduler over one deployment.

    Parameters
    ----------
    system, placement:
        The hardware and the replicated allocation it hosts.
    config:
        A :class:`~repro.service.ServiceConfig` value holding the
        scheduling policy (solver, clock, metrics sink, batching window,
        cache size, solve backend).  Omitted → defaults.

    With ``config.mode == "online"`` construction dispatches to the
    continuous-time :class:`~repro.online.OnlineScheduler` subclass, so
    every existing wiring (sharded, net server, CLI serve) gains the
    online mode by configuration alone.
    """

    def __new__(cls, *args: Any, **kwargs: Any) -> "SchedulerService":
        # subclasses (including OnlineScheduler itself) construct
        # directly; only the base class dispatches on the config's mode
        if cls is SchedulerService:
            config = kwargs.get("config")
            if config is None and len(args) >= 3:
                config = args[2]
            if isinstance(config, ServiceConfig) and config.mode == "online":
                from repro.online.scheduler import OnlineScheduler

                return object.__new__(OnlineScheduler)
        return object.__new__(cls)

    def __init__(
        self,
        system: StorageSystem,
        placement: MultiSitePlacement,
        config: ServiceConfig | None = None,
    ) -> None:
        if config is None:
            config = ServiceConfig()

        if placement.total_disks != system.num_disks:
            raise StorageConfigError(
                f"placement has {placement.total_disks} disks, system "
                f"{system.num_disks}"
            )
        self.system = system
        self.placement = placement
        self.config = config
        self.solver = config.solver
        self.solver_kwargs = dict(config.solver_kwargs)
        self._now = config.resolved_time_fn()
        self._lock = threading.Lock()
        self._busy_until = [0.0] * system.num_disks
        self._failed: set[int] = set()
        self._last_arrival = 0.0
        self._stats = ServiceStats(per_disk_buckets=[0] * system.num_disks)
        self.history: list[ServiceRecord] = []

        solver_cls = SOLVERS.get(config.solver)
        self._warmable = bool(
            getattr(solver_cls, "supports_warm_start", False)
        )

        # solve backend: "thread" solves in the calling thread;
        # "process" routes every solve into a SolveFleet worker (the GIL
        # escape).  A fleet handed in through the config is shared and
        # stays open on close(); one built here is owned and closed.
        # Imported lazily so thread-backed services never load the fleet.
        self.solve_backend = config.resolved_solve_backend()
        self._fleet: SolveFleet | None = None
        self._owns_fleet = False
        if self.solve_backend == "process":
            from repro.fleet.pool import SolveFleet

            self._fleet = config.fleet
            if self._fleet is None:
                self._owns_fleet = True
                self._fleet = SolveFleet(
                    config.fleet_workers,
                    solver=config.solver,
                    solver_kwargs=dict(config.solver_kwargs),
                    cache_size=config.cache_size,
                )

        self.registry = (
            config.registry if config.registry is not None else MetricsRegistry()
        )
        self._m_queries = self.registry.counter(
            "repro_service_queries_total", "Queries scheduled."
        )
        self._m_degraded = self.registry.counter(
            "repro_service_degraded_total", "Queries routed around failures."
        )
        self._m_buckets = self.registry.counter(
            "repro_service_buckets_total", "Buckets retrieved."
        )
        self._m_decision = self.registry.histogram(
            "repro_service_decision_ms", "Scheduling decision latency (ms)."
        )
        self._m_response = self.registry.histogram(
            "repro_service_response_ms", "Scheduled query response time (ms)."
        )
        self._m_depth = [
            self.registry.gauge(
                "repro_service_queue_depth_ms",
                "Per-disk busy horizon X_j after the last decision (ms).",
                labels={"disk": str(j)},
            )
            for j in range(system.num_disks)
        ]
        self._m_batches = self.registry.counter(
            "repro_service_batches_total", "Jointly scheduled admissions."
        )
        self._m_batch_size = self.registry.histogram(
            "repro_service_batch_size",
            "Queries coalesced per admitted batch.",
            buckets=_BATCH_SIZE_BUCKETS,
        )

        # with a process backend the warm cache lives in the workers
        # (lane affinity keeps it hot); a service-side copy would only
        # go stale, so it is disabled
        self._cache = (
            NetworkCache(config.cache_size, self.registry)
            if config.cache_size > 0 and self._warmable and self._fleet is None
            else None
        )
        self._batcher = (
            BatchAdmission(self, config.batch_window_ms)
            if config.batch_window_ms > 0
            else None
        )

    # ------------------------------------------------------------------
    # failure management
    # ------------------------------------------------------------------
    def mark_failed(self, disks: Sequence[int]) -> None:
        """Take disks out of scheduling (e.g. SMART pre-fail, dead path)."""
        with self._lock:
            for d in disks:
                self.system.disk(d)  # validates the id
                self._failed.add(d)

    def mark_repaired(self, disks: Sequence[int]) -> None:
        """Return repaired disks to service (their backlog restarts at 0)."""
        with self._lock:
            for d in disks:
                self.system.disk(d)  # validates the id
                self._failed.discard(d)
                self._busy_until[d] = 0.0
                self._m_depth[d].set(0.0)

    @property
    def failed_disks(self) -> frozenset[int]:
        with self._lock:
            return frozenset(self._failed)

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def submit(
        self,
        query: QueryLike,
        arrival_ms: float | None = None,
        *,
        deadline_ms: float | None = None,
    ) -> ServiceRecord:
        """Schedule one query; updates loads; returns the decision.

        ``query`` is a coordinate sequence, a
        :class:`~repro.workloads.RangeQuery` or an
        :class:`~repro.workloads.ArbitraryQuery`.  ``arrival_ms`` defaults
        to the injected clock and must be non-decreasing across calls.
        ``deadline_ms``, when given, is an admission target: if the
        proven lower bound on the query's response time already exceeds
        it, the query is shed with
        :class:`~repro.errors.PredictedOverloadError` before any solve
        runs (not supported with batched admission).

        Problem construction (replica lookup, degraded filtering) runs
        *before* the solve lock is taken; only load-refresh, solve and
        horizon-advance are serialized.
        """
        coords, query_obj = self._normalize_query(query)
        base = RetrievalProblem.from_query(self.system, self.placement, coords)
        failed = self.failed_disks
        problem, degraded = self._apply_failures(base, failed)

        if self._batcher is not None:
            if deadline_ms is not None:
                raise StorageConfigError(
                    "deadline_ms admission is not supported with batched "
                    "admission (batch_window_ms > 0)"
                )
            request = _PendingQuery(
                base, problem, query_obj, degraded, failed, arrival_ms
            )
            return self._batcher.submit(request)
        return self._solve_single(
            base, problem, query_obj, degraded, failed, arrival_ms,
            deadline_ms=deadline_ms,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_query(query: QueryLike) -> tuple[list[Any], Any]:
        if isinstance(query, (RangeQuery, ArbitraryQuery)):
            return query.buckets(), query
        return list(query), query

    @staticmethod
    def _apply_failures(
        base: RetrievalProblem, failed: frozenset[int]
    ) -> tuple[RetrievalProblem, bool]:
        if failed:
            return degrade_problem(base, failed), True
        return base, False

    def _admit_locked(self, arrival_ms: float | None) -> tuple[float, list]:
        """Monotonic-arrival check + load refresh; returns (now, loads)."""
        now = self._now() if arrival_ms is None else float(arrival_ms)
        if now < self._last_arrival:
            raise StorageConfigError(
                f"arrivals must be non-decreasing "
                f"({now} < {self._last_arrival})"
            )
        self._last_arrival = now
        loads = [max(0.0, u - now) for u in self._busy_until]
        self.system.set_loads(loads)
        return now, loads

    def _response_lower_bound_locked(self, problem: RetrievalProblem) -> float:
        """A proven lower bound on the problem's optimal response time.

        Any schedule uses only the query's replica disks; by pigeonhole
        some used disk serves at least ``ceil(|Q| / m)`` buckets (``m``
        replica disks), finishing no earlier than the best such disk
        could.  Exact against the current loads (``_admit_locked`` must
        have refreshed them), so predictive shedding never rejects a
        query the solver could have satisfied.
        """
        disks = sorted(problem.replica_disks())
        per_disk = -(-problem.num_buckets // len(disks))  # ceil
        return min(self.system.finish_time(j, per_disk) for j in disks)

    def _solve_locked(
        self, problem: RetrievalProblem
    ) -> "tuple[Any, bool]":
        """Solve one problem under the lock, via the warm-start cache."""
        if self._fleet is not None:
            return self._fleet.solve(problem)
        if self._cache is None:
            return solve(problem, solver=self.solver, **self.solver_kwargs), False
        signature = problem.replicas
        entry = self._cache.get(signature)
        if entry is not None:
            network = entry.network
            network.rebind(problem)
            if entry.flow is not None:
                network.graph.restore_flow(entry.flow)
            else:
                network.graph.reset_flow()
            cache_hit = True
        else:
            network = RetrievalNetwork(problem)
            cache_hit = False
        schedule = solve(
            problem, solver=self.solver, network=network, **self.solver_kwargs
        )
        self._cache.put(signature, network, network.graph.save_flow())
        return schedule, cache_hit

    def _advance_horizons_locked(self, now: float, loads: list, counts: list) -> None:
        for j, k in enumerate(counts):
            if k:
                disk = self.system.disk(j)
                self._busy_until[j] = now + loads[j] + k * disk.block_time_ms
                self._stats.per_disk_buckets[j] += k

    def _record_one_locked(self, record: ServiceRecord) -> None:
        """Append one decision to history, stats and metrics (locked)."""
        self.history.append(record)
        st = self._stats
        st.queries += 1
        st.buckets += record.num_buckets
        st.total_response_ms += record.response_time_ms
        st.max_response_ms = max(st.max_response_ms, record.response_time_ms)
        st.total_decision_ms += record.decision_time_ms
        if record.degraded:
            st.degraded_queries += 1
            self._m_degraded.inc()
        if record.cache_hit:
            st.cache_hits += 1
        self._m_queries.inc()
        self._m_buckets.inc(record.num_buckets)
        self._m_decision.observe(record.decision_time_ms)
        self._m_response.observe(record.response_time_ms)

    def _update_depth_gauges_locked(self, now: float) -> None:
        for j, gauge in enumerate(self._m_depth):
            gauge.set(max(0.0, self._busy_until[j] - now))

    # ------------------------------------------------------------------
    def _solve_single(
        self,
        base: RetrievalProblem,
        problem: RetrievalProblem,
        query_obj: Any,
        degraded: bool,
        failed: frozenset[int],
        arrival_ms: float | None,
        deadline_ms: float | None = None,
    ) -> ServiceRecord:
        with self._lock:
            now, loads = self._admit_locked(arrival_ms)
            if self._failed != failed:
                # failure set changed since the lock-free preparation:
                # redo the (cheap) degraded filtering under the lock so
                # the decision reflects the current survivors.
                problem, degraded = self._apply_failures(
                    base, frozenset(self._failed)
                )
            if deadline_ms is not None:
                bound = self._response_lower_bound_locked(problem)
                if bound > deadline_ms:
                    raise PredictedOverloadError(
                        f"predicted response {bound:.3f} ms exceeds "
                        f"deadline {deadline_ms:.3f} ms",
                        predicted_ms=bound,
                        target_ms=deadline_ms,
                        retry_after_ms=max(0.0, bound - deadline_ms),
                    )
            schedule, cache_hit = self._solve_locked(problem)
            counts = schedule.counts_per_disk()
            self._advance_horizons_locked(now, loads, counts)
            record = ServiceRecord(
                arrival_ms=now,
                num_buckets=problem.num_buckets,
                response_time_ms=schedule.response_time_ms,
                assignment=schedule.as_bucket_map(),
                degraded=degraded,
                decision_time_ms=schedule.stats.wall_time_s * 1000.0,
                query=query_obj,
                cache_hit=cache_hit,
                batch_size=1,
            )
            self._record_one_locked(record)
            self._update_depth_gauges_locked(now)
            return record

    # ------------------------------------------------------------------
    def _admit_batch(self, requests: list[_PendingQuery]) -> None:
        """Jointly schedule one sealed batch (called by the leader)."""
        with self._lock:
            explicit = [
                r.arrival_ms for r in requests if r.arrival_ms is not None
            ]
            if len(explicit) == len(requests):
                now = max(explicit)
            elif explicit:
                now = max(self._now(), max(explicit))
            else:
                now = None  # _admit_locked reads the clock
            now, loads = self._admit_locked(now)

            current_failed = frozenset(self._failed)
            for req in requests:
                if req.failed != current_failed:
                    req.problem, req.degraded = self._apply_failures(
                        req.base, current_failed
                    )

            merged, owner = merge_problems([r.problem for r in requests])
            # batched admission solves in-process regardless of backend:
            # merged problems have one-off replica signatures, so worker
            # cache affinity buys nothing and the shipping cost is pure
            # overhead on the coalesced (already amortized) path
            schedule = solve(merged, solver=self.solver, **self.solver_kwargs)
            joint = BatchSchedule(schedule, owner, len(requests))
            decision_ms = schedule.stats.wall_time_s * 1000.0

            counts = schedule.counts_per_disk()
            self._advance_horizons_locked(now, loads, counts)
            finishes = joint.per_query_finish_ms()
            per_assign = joint.per_query_assignments()

            for q, req in enumerate(requests):
                assignment = {
                    req.problem.label_of(i): d
                    for i, d in per_assign[q].items()
                }
                record = ServiceRecord(
                    arrival_ms=now,
                    num_buckets=req.problem.num_buckets,
                    response_time_ms=finishes[q],
                    assignment=assignment,
                    degraded=req.degraded,
                    decision_time_ms=decision_ms,
                    query=req.query_obj,
                    cache_hit=False,
                    batch_size=len(requests),
                )
                req.record = record
                self._record_one_locked(record)

            self._stats.batches += 1
            self._m_batches.inc()
            self._m_batch_size.observe(float(len(requests)))
            self._update_depth_gauges_locked(now)

    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """A snapshot of the running aggregates (with registry quantiles)."""
        with self._lock:
            return ServiceStats(
                queries=self._stats.queries,
                buckets=self._stats.buckets,
                total_response_ms=self._stats.total_response_ms,
                max_response_ms=self._stats.max_response_ms,
                total_decision_ms=self._stats.total_decision_ms,
                degraded_queries=self._stats.degraded_queries,
                per_disk_buckets=list(self._stats.per_disk_buckets),
                p50_response_ms=self._m_response.quantile(0.50),
                p95_response_ms=self._m_response.quantile(0.95),
                cache_hits=self._stats.cache_hits,
                batches=self._stats.batches,
            )

    # ------------------------------------------------------------------
    @property
    def cache(self) -> NetworkCache | None:
        """The warm-start network cache (``None`` when disabled).

        Under the ``process`` backend this is ``None``: the warm caches
        live inside the fleet's worker processes.
        """
        return self._cache

    def close(self) -> None:
        """Shut down an owned solve fleet (worker processes); idempotent.

        Thread-backed services hold nothing worth releasing, so calling
        this is only *required* for ``solve_backend="process"`` — but it
        is always safe.  A fleet shared through ``config.fleet`` stays
        open: whoever built it closes it.  Taking the service lock
        serialises close() against any in-flight ``_solve_locked`` fleet
        call, so the fleet can never be torn down mid-solve.
        """
        with self._lock:
            if self._owns_fleet and self._fleet is not None:
                self._fleet.close()
