"""Code that runs *inside* fleet worker processes.

Everything here is a module-level function so the stdlib executor can
pickle references to it under any multiprocessing start method ("fork"
or "spawn").  Worker-side state is process-global by design:

``_CACHES``
    One :class:`~repro.service.cache.NetworkCache` per fleet namespace.
    Because a :class:`~repro.fleet.pool.SolveFleet` routes every replica
    signature to a fixed lane (and each lane is a single-process pool),
    a worker's cache sees exactly the signatures hashed to it — the
    per-worker warm-cache affinity that keeps the service-layer hit rate
    intact across the process boundary.

The solve path mirrors ``SchedulerService._solve_locked`` exactly: cold
signature → fresh network; warm signature → rebind + restore conserved
flow; then one registry solve.  With ``cache_size=0`` the worker is a
pure function of its payload, which is what the cross-process
differential suite leans on for bit-for-bit ``SolverStats`` equality.
"""

from __future__ import annotations

import json
import os
import signal
from typing import Any

from repro.core.api import SOLVERS, solve
from repro.core.network import RetrievalNetwork
from repro.fleet.codec import decode_problem, encode_schedule
from repro.graph.io import from_json, to_json
from repro.maxflow.push_relabel import push_relabel
from repro.obs.registry import MetricsRegistry
from repro.service.cache import NetworkCache

__all__ = [
    "worker_solve",
    "worker_maxflow",
    "worker_pid",
    "worker_die",
]

#: per-process warm caches, keyed by fleet namespace
_CACHES: dict[str, NetworkCache] = {}


def _cache_for(namespace: str, size: int) -> NetworkCache | None:
    if size <= 0:
        return None
    cache = _CACHES.get(namespace)
    if cache is None:
        cache = NetworkCache(size, MetricsRegistry())
        _CACHES[namespace] = cache
    return cache


def worker_solve(payload: dict[str, Any]) -> dict[str, Any]:
    """One scheduling solve in this worker process.

    Payload keys: ``problem`` (codec payload), ``solver``,
    ``solver_kwargs``, ``cache_ns``, ``cache_size``.  Returns
    ``{"schedule": ..., "cache_hit": ..., "pid": ...}``; a problem
    payload in any other codec version raises
    :class:`~repro.fleet.CodecError`.
    """
    problem = decode_problem(payload["problem"])
    solver = str(payload.get("solver", "pr-binary"))
    solver_kwargs = dict(payload.get("solver_kwargs") or {})
    solver_cls = SOLVERS.get(solver)
    warmable = bool(getattr(solver_cls, "supports_warm_start", False))
    cache = (
        _cache_for(str(payload.get("cache_ns", "")), int(payload.get("cache_size", 0)))
        if warmable
        else None
    )

    cache_hit = False
    if cache is None:
        schedule = solve(problem, solver=solver, **solver_kwargs)
    else:
        signature = problem.replicas
        entry = cache.get(signature)
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
        schedule = solve(
            problem, solver=solver, network=network, **solver_kwargs
        )
        cache.put(signature, network, network.graph.save_flow())
    return {
        "schedule": encode_schedule(schedule),
        "cache_hit": cache_hit,
        "pid": os.getpid(),
    }


def worker_maxflow(payload_json: str) -> str:
    """Solve one max-flow sub-instance shipped as graph-io JSON.

    The partitioned push–relabel variant sends each worker a capacity
    slice of the full retrieval network; the worker runs the sequential
    integer engine and returns a JSON envelope holding the solved
    network (flows included, same graph-io format) plus exact operation
    counts for the coordinator to aggregate.
    """
    g, s, t = from_json(payload_json)
    result = push_relabel(g, s, t)
    return json.dumps(
        {
            "network": to_json(g, s, t),
            "value": result.value,
            "pushes": result.pushes,
            "relabels": result.relabels,
        },
        separators=(",", ":"),
    )


def worker_pid() -> int:
    """Identify this worker (warmup + affinity tests)."""
    return os.getpid()


def worker_die(sig: int = signal.SIGKILL) -> None:
    """Kill this worker from the inside — fault-injection hook.

    Sending SIGKILL to ourselves models a worker dying mid-solve (OOM
    kill, segfault); the parent sees ``BrokenProcessPool`` on the
    in-flight future.
    """
    os.kill(os.getpid(), sig)
