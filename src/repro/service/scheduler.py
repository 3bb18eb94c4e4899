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
   signature reuse the conserved flow of the last solve (clamped to the
   new capacities) — Algorithm 6's flow conservation extended across
   solves — on a :class:`~repro.core.network.RetrievalNetwork` the cache
   builds at the signature's first hit and keeps from then on.

>>> svc = SchedulerService(system, placement, config=ServiceConfig())
>>> record = svc.submit([(0, 0), (0, 1)])       # coords on the grid
>>> record = svc.submit(RangeQuery(0, 0, 2, 2, N))   # or query objects
>>> svc.mark_failed([3])                         # disk 3 died
>>> svc.stats().p95_response_ms
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.api import get_solver, solve
from repro.core.degraded import degrade_problem
from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.decluster.multisite import MultiSitePlacement
from repro.errors import PredictedOverloadError, StorageConfigError
from repro.obs.registry import MetricsRegistry
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

#: how many recent decisions ``SchedulerService.history`` keeps; older
#: records fall off the front, so a long-running service's memory does
#: not grow with the queries it serves (``stats()`` and the registry
#: still count every query)
HISTORY_MAXLEN = 1024


class SchedulerService:
    """Thread-safe optimal-response-time scheduler over one deployment.

    Parameters
    ----------
    system, placement:
        The hardware and the replicated allocation it hosts.
    config:
        A :class:`~repro.service.ServiceConfig` value holding the
        scheduling policy (solver, clock, metrics sink, cache size,
        solve backend).  Omitted → defaults.

    With ``config.mode == "online"`` construction dispatches to the
    continuous-time :class:`~repro.online.OnlineScheduler` subclass, so
    every existing wiring (net server, CLI serve) gains the online mode
    by configuration alone.
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
        #: replaced (never mutated) under the lock, so ``submit`` reads
        #: a consistent set without taking it
        self._failed: frozenset[int] = frozenset()
        self._last_arrival = 0.0
        self._stats = ServiceStats(per_disk_buckets=[0] * system.num_disks)
        self.history: deque[ServiceRecord] = deque(maxlen=HISTORY_MAXLEN)

        # instantiated once so an unknown solver or engine fails here,
        # not as an error on every submit
        solver = get_solver(config.solver, **config.solver_kwargs)
        self._warmable = bool(getattr(solver, "supports_warm_start", False))

        # solve backend: "thread" solves in the calling thread;
        # "process" routes every solve into a SolveFleet worker that
        # this service builds, owns and closes.  Both run under
        # self._lock, one solve at a time.  Imported lazily so
        # thread-backed services never load the fleet.
        self.solve_backend = config.resolved_solve_backend()
        self._fleet: SolveFleet | None = None
        if self.solve_backend == "process":
            from repro.fleet.pool import SolveFleet

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

        # with a process backend the warm cache lives in the workers
        # (lane affinity keeps it hot); a service-side copy would only
        # go stale, so it is disabled
        self._cache = (
            NetworkCache(config.cache_size, self.registry)
            if config.cache_size > 0 and self._warmable and self._fleet is None
            else None
        )

    # ------------------------------------------------------------------
    # failure management
    # ------------------------------------------------------------------
    def _checked_disks_locked(self, disks: Sequence[int]) -> list[int]:
        """``disks`` as a list, every id validated before any is applied.

        Raises :class:`~repro.errors.StorageConfigError` on the first
        unknown id, so a ``mark_*`` call with one bad id changes nothing.
        """
        ids = list(disks)
        for d in ids:
            self.system.disk(d)
        return ids

    def mark_failed(self, disks: Sequence[int]) -> None:
        """Take disks out of scheduling (e.g. SMART pre-fail, dead path)."""
        with self._lock:
            self._failed = self._failed.union(self._checked_disks_locked(disks))

    def mark_repaired(self, disks: Sequence[int]) -> None:
        """Return repaired disks to service (their backlog restarts at 0)."""
        with self._lock:
            ids = self._checked_disks_locked(disks)
            self._failed = self._failed.difference(ids)
            for d in ids:
                self._busy_until[d] = 0.0
                self._m_depth[d].set(0.0)

    @property
    def failed_disks(self) -> frozenset[int]:
        """The disks currently out of scheduling (read without the lock)."""
        return self._failed

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
        runs.

        Problem construction (replica lookup, degraded filtering) runs
        *before* the solve lock is taken; only load-refresh, solve and
        horizon-advance are serialized.
        """
        coords, query_obj = self._normalize_query(query)
        base = RetrievalProblem.from_query(self.system, self.placement, coords)
        failed = self._failed  # replaced, never mutated: read unlocked
        problem, degraded = self._apply_failures(base, failed)
        with self._lock:
            now, loads = self._admit_locked(arrival_ms)
            if self._failed != failed:
                # failure set changed since the lock-free preparation:
                # redo the (cheap) degraded filtering under the lock so
                # the decision reflects the current survivors.
                problem, degraded = self._apply_failures(base, self._failed)
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
            )
            self._record_one_locked(record)
            self._update_depth_gauges_locked(now)
            return record

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
        loads = [u - now if u > now else 0.0 for u in self._busy_until]
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
        network = self._cache.checkout(problem)
        cache_hit = network is not None
        if network is None:
            network = RetrievalNetwork(problem)
        schedule = solve(
            problem, solver=self.solver, network=network, **self.solver_kwargs
        )
        self._cache.put(problem.replicas, network, network.graph.save_flow())
        return schedule, cache_hit

    def _advance_horizons_locked(self, now: float, loads: list, counts: list) -> None:
        disks = self.system.disks
        busy = self._busy_until
        per_disk = self._stats.per_disk_buckets
        for j, k in enumerate(counts):
            if k:
                busy[j] = now + loads[j] + k * disks[j].block_time_ms
                per_disk[j] += k

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
        """Shut down the solve fleet (worker processes); idempotent.

        Thread-backed services hold nothing worth releasing, so calling
        this is only *required* for ``solve_backend="process"`` — but it
        is always safe.  Taking the service lock serialises close()
        against any in-flight ``_solve_locked`` fleet call, so the fleet
        can never be torn down mid-solve.
        """
        with self._lock:
            if self._fleet is not None:
                self._fleet.close()
