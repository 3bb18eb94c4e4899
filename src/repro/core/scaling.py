"""Binary capacity scaling — the shared skeleton of Algorithm 6 and of
the black-box baseline from [12].

Both algorithms perform the same search over candidate response times:

1. bracket the optimum in ``[tmin, tmax)`` from the closed-form bounds
   (Algorithm 6 lines 1-11);
2. binary-search the bracket down to ``min_speed`` resolution, probing
   feasibility (max flow == |Q|) at each midpoint (lines 12-37);
3. finish with min-cost capacity increments from ``tmin``
   (``PushRelabelIncremental``, lines 38-42).

They differ **only** in what a probe does with previously computed flow:
the *integrated* prober warm-starts from the conserved flow (with
Algorithm 6's StoreFlows/RestoreFlows discipline), the *black-box* prober
zeroes the flow and solves from scratch — which is exactly the paper's
framing of the two families, so this module expresses the difference as a
:class:`Prober` strategy object.

Defensive deviation (documented in DESIGN.md): the paper subtracts
``min_speed`` from the closed-form ``tmin`` to "ensure that there is no
solution for tmin", but that is a heuristic, not a proof.  We *probe*
``tmin`` first; in the (rare) case it is already feasible, the bracket is
re-anchored to ``[0, tmin]`` so the binary search always starts from an
infeasible lower end and optimality is unconditional.

Certified midpoints (also in DESIGN.md): the closed-form ``tmax`` is
loose, so many midpoints are feasible, and a feasible probe's only
lasting effect is RestoreFlows.  Before the search the skeleton computes
``bound``, the makespan of the marginal-finish-time greedy assignment
(:func:`~repro.core.greedy.greedy_finish_time`).  ``capacity_at`` is
the exact inverse of ``finish_time``, so that assignment fits the
capacities of every deadline ``t >= bound``: such a midpoint is answered
feasible without rescaling or probing.  At the top of every bisection
step a flow-conserving prober's state already equals the stored
snapshot (and a black-box probe starts from zero anyway), so eliding
the probe changes no later probe, no bracket end and no schedule, only
the operation counts.
"""

from __future__ import annotations

import abc
import time
from typing import Any

from repro import invariants
from repro.core.greedy import greedy_finish_time
from repro.core.increment import MinCostIncrementer
from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.core.schedule import RetrievalSchedule, SolverStats
from repro.graph.flownetwork import FlowNetwork
from repro.obs.trace import active_trace

__all__ = ["Prober", "binary_scaling_solve", "incremental_solve"]


class Prober(abc.ABC):
    """Strategy: run max-flow to completion at the current capacities.

    ``conserves_flow`` decides whether the skeleton maintains Algorithm
    6's StoreFlows/RestoreFlows bookkeeping (pointless when every probe
    starts from zero anyway).  The prober owns that bookkeeping —
    :meth:`save`, :meth:`restore` and :meth:`reset_flow` — so a prober
    that carries more than the flow between probes (the push–relabel
    probers carry the exact excess) snapshots it in the same step.
    """

    #: integrated (True) vs black-box (False)
    conserves_flow: bool = True

    #: the network bound by :meth:`attach`
    _network: RetrievalNetwork | None = None

    @abc.abstractmethod
    def attach(self, network: RetrievalNetwork) -> None:
        """Bind to a network before the first probe."""

    @abc.abstractmethod
    def probe(self) -> int:
        """Solve max-flow at the current capacities; return the exact
        integer flow value."""

    @abc.abstractmethod
    def harvest(self, stats: SolverStats) -> None:
        """Deposit accumulated engine counters into ``stats``."""

    def op_counts(self) -> tuple[int, int, int]:
        """Cumulative ``(pushes, relabels, augmentations)`` so far.

        Snapshotted around each probe by the tracing hook; per-probe
        deltas therefore sum exactly to what :meth:`harvest` deposits.
        """
        return (0, 0, 0)

    def _graph(self) -> FlowNetwork:
        assert self._network is not None, "attach() before save/restore"
        return self._network.graph

    def save(self) -> Any:
        """Algorithm 6's StoreFlows: snapshot the current flow.

        The snapshot is opaque to the skeleton; only :meth:`restore`
        of the same prober reads it.
        """
        return self._graph().save_flow()

    def restore(self, saved: Any) -> None:
        """Algorithm 6's RestoreFlows: reinstate a :meth:`save` snapshot."""
        self._graph().restore_flow(saved)

    def reset_flow(self) -> None:
        """Zero the flow (the re-anchored bracket starts from nothing)."""
        self._graph().reset_flow()


def _probe(
    prober: Prober,
    stats: SolverStats,
    num_buckets: int,
    t: float,
    phase: str,
    monitor: invariants.ProbeMonitor | None = None,
) -> int:
    """One feasibility probe; records a trace event when tracing is on.

    ``monitor`` (armed sanitizer only) validates the post-probe flow and
    watches feasibility monotonicity across the solve's probes.
    """
    stats.probes += 1
    trace = active_trace()
    if trace is None and monitor is None:
        return prober.probe()
    p0, r0, a0 = prober.op_counts()
    start = time.perf_counter()
    flow = prober.probe()
    wall = time.perf_counter() - start
    p1, r1, a1 = prober.op_counts()
    feasible = flow >= num_buckets
    if trace is not None:
        trace.record(
            phase=phase,
            t=t,
            flow=flow,
            feasible=feasible,
            pushes=p1 - p0,
            relabels=r1 - r0,
            augmentations=a1 - a0,
            wall_s=wall,
        )
    if monitor is not None:
        monitor.after_probe(t, feasible, phase)
    return flow


def _certify(
    stats: SolverStats,
    num_buckets: int,
    t: float,
    counts: list[int],
    monitor: invariants.ProbeMonitor | None,
) -> None:
    """Answer the midpoint ``t`` feasible from the greedy certificate.

    Recorded as a ``certified`` trace event (no operations, no wall
    time) so a trace still lists the whole search path; ``monitor``
    (armed sanitizer only) checks that ``counts`` fits the capacities at
    ``t`` and watches monotonicity against the probed deadlines.
    """
    stats.certified += 1
    trace = active_trace()
    if trace is not None:
        trace.record(phase="certified", t=t, flow=num_buckets, feasible=True)
    if monitor is not None:
        monitor.after_certified(t, counts)


def binary_scaling_solve(
    problem: RetrievalProblem,
    prober: Prober,
    solver_name: str,
    *,
    network: RetrievalNetwork | None = None,
) -> RetrievalSchedule:
    """Run the full Algorithm 6 skeleton with ``prober``'s flow policy.

    ``network`` warm-starts the solve from an existing
    :class:`RetrievalNetwork` of the same replica signature (see
    :meth:`RetrievalNetwork.rebind`): topology construction is skipped
    and any flow the caller restored into it is conserved — after being
    clamped to the capacities of the first probe, so a stale routing can
    never make an infeasible deadline look feasible.
    """
    if network is None:
        net = RetrievalNetwork(problem)
        warm = False
    else:
        net = network
        if net.problem is not problem:
            net.rebind(problem)
        warm = True
    stats = SolverStats()
    prober.attach(net)
    monitor = invariants.ProbeMonitor(net) if invariants.ENABLED else None
    Q = problem.num_buckets

    # lines 1-11: bracket the optimum
    tmin = problem.theoretical_min_deadline()
    tmax = problem.theoretical_max_deadline()
    min_speed = problem.min_speed()

    # defensive anchor probe at tmin (see module docstring)
    net.set_deadline_capacities(tmin)
    if warm:
        net.clamp_flow_to_sink_caps()
    flow = _probe(prober, stats, Q, tmin, "anchor", monitor)
    if flow >= Q:
        tmax, tmin = tmin, 0.0
        prober.reset_flow()
    saved = prober.save()

    # upper-bound certificate: the greedy assignment fits every t >= bound
    _, counts, bound = greedy_finish_time(problem)

    # lines 12-37: binary search with flow store/restore
    while tmax - tmin >= min_speed:
        tmid = tmin + (tmax - tmin) * 0.5
        if tmid >= bound:
            # a probe here would be feasible and then restored: skip it
            _certify(stats, Q, tmid, counts, monitor)
            tmax = tmid
            continue
        net.set_deadline_capacities(tmid)
        flow = _probe(prober, stats, Q, tmid, "binary", monitor)
        if flow >= Q:
            # feasible but maybe not optimal: back off to the stored flow
            if prober.conserves_flow:
                prober.restore(saved)
            tmax = tmid
        else:
            # infeasible: this flow is valid at every larger deadline
            if prober.conserves_flow:
                saved = prober.save()
            tmin = tmid

    # lines 38-42: finish from tmin with min-cost increments
    if prober.conserves_flow:
        prober.restore(saved)
    net.set_deadline_capacities(tmin)
    schedule = incremental_solve(
        problem, prober, solver_name, stats=stats, network=net,
        entry_deadline=tmin,
    )
    return schedule


def incremental_solve(
    problem: RetrievalProblem,
    prober: Prober,
    solver_name: str,
    *,
    stats: SolverStats | None = None,
    network: RetrievalNetwork | None = None,
    entry_deadline: float = 0.0,
) -> RetrievalSchedule:
    """Algorithm 5's outer loop: probe, then increment-min-cost until |Q|.

    Called standalone (capacities start at zero — the pure
    ``pr-incremental`` solver) or as Algorithm 6's final phase (capacities
    pre-scaled by the caller; ``entry_deadline`` is the deadline those
    capacities encode, recorded as the first increment-phase probe's
    candidate ``t`` — every later candidate, being a min-cost finish time
    *above* the scaled capacities, is strictly larger).
    """
    if network is None:
        network = RetrievalNetwork(problem)
        prober.attach(network)
    if stats is None:
        stats = SolverStats()
    Q = problem.num_buckets
    inc = MinCostIncrementer(network)
    inc.sync_live_set()
    monitor = (
        invariants.ProbeMonitor(network) if invariants.ENABLED else None
    )

    t_cur = entry_deadline
    flow = _probe(prober, stats, Q, t_cur, "increment", monitor)
    while flow < Q:
        t_cur = inc.increment()
        stats.increments += 1
        flow = _probe(prober, stats, Q, t_cur, "increment", monitor)

    prober.harvest(stats)
    assignment = network.assignment()
    return RetrievalSchedule(
        problem,
        assignment,
        network.response_time(),
        stats,
        solver=solver_name,
    )
