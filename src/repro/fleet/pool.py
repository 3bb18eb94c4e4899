"""The solve fleet: signature-affine lanes of worker processes.

CPython threads cannot exceed ~1x CPU-bound speedup (DESIGN.md §2), so
the fleet escapes the GIL the way PyMOSO's ``par_runs`` harness does —
``concurrent.futures`` process pools — but with one twist: instead of a
single K-worker pool, it keeps **K single-worker lanes** and routes each
solve to ``hash(replica signature) % K``.

Why lanes, not one pool?  The service-layer warm-start cache is keyed by
replica signature; a shared pool would scatter repeat signatures across
workers and shred the ~0.94 hit rate the benchmarks rely on.  With
lanes, a signature always lands in the same process, whose module-level
:class:`~repro.service.cache.NetworkCache` stays warm — per-worker cache
affinity across the process boundary.

Fault containment: a worker that dies mid-solve (OOM-kill, segfault)
surfaces as :class:`WorkerCrashedError` on that one solve.  The lane's
executor is rebuilt on the spot (cold cache, fresh process) so the next
solve routed there succeeds.  The error deliberately does **not** extend
:class:`~repro.errors.ReproError`: the net server maps ``ReproError`` to
``INVALID_QUERY`` (a client bug), while a crashed worker is server-side
``INTERNAL`` — non-transient on the wire, so a client's
:class:`~repro.net.RetryPolicy` will not re-submit and at-most-once
submit semantics hold.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Mapping

import multiprocessing

from repro.core.problem import RetrievalProblem
from repro.core.schedule import RetrievalSchedule
from repro.fleet.codec import decode_schedule, encode_problem
from repro.fleet.worker import worker_pid, worker_solve

__all__ = ["WorkerCrashedError", "SolveFleet", "default_mp_context"]

#: environment override for the multiprocessing start method
MP_CONTEXT_ENV = "REPRO_FLEET_MP_CONTEXT"


class WorkerCrashedError(RuntimeError):
    """A fleet worker process died while a solve was in flight.

    Deliberately *not* a :class:`~repro.errors.ReproError` — the query
    was valid; the infrastructure failed.  Carries the lane index so
    operators can correlate with per-lane stats.
    """

    def __init__(self, lane: int, message: str) -> None:
        super().__init__(message)
        self.lane = lane


def default_mp_context() -> multiprocessing.context.BaseContext:
    """The start method the fleet uses unless told otherwise.

    ``fork`` where available (fast startup, shares the imported
    interpreter image); ``spawn`` elsewhere.  Override with the
    ``REPRO_FLEET_MP_CONTEXT`` environment variable.  Forked workers are
    started eagerly at fleet construction — before the caller spins up
    server threads — which sidesteps the fork-with-threads hazards.
    """
    name = os.environ.get(MP_CONTEXT_ENV)
    if not name:
        name = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
    return multiprocessing.get_context(name)


class SolveFleet:
    """``num_workers`` single-worker process lanes with stable routing.

    Parameters
    ----------
    num_workers:
        Lane count.  Throughput scales with it only on multi-core
        machines (see docs/API.md, "Process fleet").
    solver, solver_kwargs:
        Registry solver every worker runs (matches ``ServiceConfig``).
    cache_size:
        Per-worker warm-cache capacity; ``0`` makes every worker solve
        a pure function of its payload (the differential suite's mode).
    mp_context:
        A multiprocessing context; ``None`` → :func:`default_mp_context`.
    warmup:
        Start every worker process eagerly and verify it answers a ping.
        Keep the default unless a test needs lazy lanes.
    """

    def __init__(
        self,
        num_workers: int,
        *,
        solver: str = "pr-binary",
        solver_kwargs: Mapping[str, object] | None = None,
        cache_size: int = 64,
        mp_context: multiprocessing.context.BaseContext | None = None,
        warmup: bool = True,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self.num_workers = num_workers
        self.solver = solver
        self.solver_kwargs = dict(solver_kwargs or {})
        self.cache_size = cache_size
        self._ctx = mp_context if mp_context is not None else default_mp_context()
        self._lock = threading.Lock()
        self._closed = False
        #: namespace for the workers' module-level caches: distinct
        #: fleets sharing a worker process (possible under "fork" only
        #: via inheritance, but cheap to guard) must not mix entries
        self._ns = f"fleet-{id(self):x}"
        self._lanes: list[ProcessPoolExecutor] = [
            self._new_lane() for _ in range(num_workers)
        ]
        self.solves_per_lane = [0] * num_workers
        self.crashes = 0
        if warmup:
            self.worker_pids()

    # ------------------------------------------------------------------
    def _new_lane(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=1, mp_context=self._ctx)

    def lane_of(self, signature: tuple[tuple[int, ...], ...]) -> int:
        """The stable home lane for a replica signature.

        ``hash()`` over int tuples is deterministic (PYTHONHASHSEED only
        perturbs str/bytes), so routing is stable across processes —
        the same property the sharded service relies on.
        """
        return hash(signature) % self.num_workers

    def worker_pids(self) -> list[int]:
        """Ping every lane; returns the worker pids in lane order."""
        futures = [self.submit_fn(k, worker_pid) for k in range(self.num_workers)]
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    def submit_fn(
        self, lane: int, fn: Callable[..., Any], *args: Any
    ) -> Future[Any]:
        """Submit a raw callable to one lane (tests, warmup, pings)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("fleet is closed")
            executor = self._lanes[lane]
        try:
            return executor.submit(fn, *args)
        except BrokenProcessPool as exc:
            self._rebuild_lane(lane, executor)
            raise WorkerCrashedError(
                lane, f"lane {lane} worker was already dead: {exc}"
            ) from exc

    def _rebuild_lane(self, lane: int, broken: ProcessPoolExecutor) -> None:
        """Replace a lane's executor after its worker died (idempotent)."""
        with self._lock:
            self.crashes += 1
            if self._closed or self._lanes[lane] is not broken:
                return  # another thread already swapped it
            self._lanes[lane] = self._new_lane()
        broken.shutdown(wait=False)

    # ------------------------------------------------------------------
    def solve(
        self, problem: RetrievalProblem, *, lane: int | None = None
    ) -> tuple[RetrievalSchedule, bool]:
        """Solve in the problem's home lane; returns (schedule, cache_hit).

        Raises :class:`WorkerCrashedError` if the worker dies mid-solve;
        the lane is rebuilt before the error propagates, so retrying the
        solve (the *caller's* decision) would succeed.
        """
        if lane is None:
            lane = self.lane_of(problem.replicas)
        payload = {
            "problem": encode_problem(problem),
            "solver": self.solver,
            "solver_kwargs": self.solver_kwargs,
            "cache_ns": self._ns,
            "cache_size": self.cache_size,
        }
        with self._lock:
            if self._closed:
                raise RuntimeError("fleet is closed")
            executor = self._lanes[lane]
        try:
            future = executor.submit(worker_solve, payload)
            result = future.result()
        except BrokenProcessPool as exc:
            self._rebuild_lane(lane, executor)
            raise WorkerCrashedError(
                lane, f"lane {lane} worker died mid-solve: {exc}"
            ) from exc
        with self._lock:
            self.solves_per_lane[lane] += 1
        schedule = decode_schedule(result["schedule"], problem)
        return schedule, bool(result["cache_hit"])

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down every lane (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            lanes = list(self._lanes)
        for executor in lanes:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SolveFleet":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolveFleet({self.num_workers} lanes, solver={self.solver!r}, "
            f"cache_size={self.cache_size})"
        )
