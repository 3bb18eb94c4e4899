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

The anchor probe (documented in DESIGN.md): the paper subtracts
``min_speed`` from the closed-form ``tmin`` to "ensure that there is no
solution for tmin".  That is a proof up to float rounding: with ``p =
ceil(|Q|/N)``, every disk finishes ``p`` buckets no earlier than ``tmin
+ min_speed``, so ``sum(capacities_at(tmin)) <= N (p - 1) < |Q|``.  The
skeleton still probes ``tmin`` first, because that probe's flow is the
first stored flow; if rounding ever made it feasible, the bracket is
re-anchored to ``[0, tmin]`` so optimality stays unconditional.

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

Cut-certified points (also in DESIGN.md): the infeasible-side twin.
After every infeasible probe the skeleton records the flow value ``F``
and the capacities of the disks whose sink arc that flow saturates
(:class:`StoredCut`).  Those disks hold every disk on the source side of
the flow's minimum cut, so while none of them gains capacity the cut
keeps value ``F < |Q|`` and the stored flow stays maximum: an anchor,
binary or increment point at such capacities is answered infeasible
with value ``F`` and no max-flow run.  A re-run would hand back the
same flow (exact-height push–relabel returns every re-injected unit
straight to the source, Ford–Fulkerson finds no augmenting path, the
black box restarts from zero anyway), so the schedules do not change.
A network whose sink capacities are all zero carries the zero flow,
which is maximum there: when every capacity at the anchor is 0 the
anchor is answered with ``F = 0``, for a fresh network and for a warm
one alike (the clamp would unroute all of a warm flow, so it is zeroed
outright).  In the bisection the test needs no rescale: a cut also
records ``until``, the earliest deadline at which a recorded disk gains
a bucket, from the solve's ``rescale_terms``; since ``capacities_at``
is monotone and the exact inverse of ``finish_time``, every midpoint
below ``until`` keeps the recorded capacities (:meth:`StoredCut.holds_at`).
The capacities are rescaled only where they are read: before a probe,
and before the armed sanitizer checks a cut-certified point.

Everything per-disk that a solve needs besides the capacities (the
bracket, the greedy certificate, the min-cost increments, the response
time) is read from that same ``rescale_terms`` snapshot, in the
``(D_j + X_j) + k * C_j`` expression ``finish_time`` evaluates.
"""

from __future__ import annotations

import abc
import math
import time
from typing import Any

from repro import invariants
from repro.core.greedy import greedy_finish_time
from repro.core.increment import MinCostIncrementer
from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.core.schedule import RetrievalSchedule, SolverStats
from repro.graph.flownetwork import FlowNetwork
from repro.obs.trace import ProbeTrace, active_trace

__all__ = [
    "Prober", "StoredCut", "binary_scaling_solve", "closed_form_bracket",
    "incremental_solve",
]

#: one disk's ``(D_j, X_j, D_j + X_j, C_j)``, as
#: :meth:`~repro.storage.StorageSystem.rescale_terms` lists them
Terms = tuple[float, float, float, float]


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

    def adopt_flow(self, value: int) -> None:
        """Take the network's current flow, of value ``value``, as given.

        The skeleton calls this after a warm start's clamp: the network
        then carries a valid flow that no probe of this prober computed
        (net inflow 0 at every vertex but the source and the sink, which
        receives ``value``).  A prober that carries state beside the
        flow may set it from that instead of recomputing it; the
        default keeps nothing.
        """


def _probe(
    prober: Prober,
    stats: SolverStats,
    num_buckets: int,
    t: float,
    phase: str,
    monitor: invariants.ProbeMonitor | None,
    trace: ProbeTrace | None,
) -> int:
    """One feasibility probe; records a trace event into ``trace`` (the
    solve's :func:`~repro.obs.trace.active_trace`) when tracing is on.

    ``monitor`` (armed sanitizer only) validates the post-probe flow and
    watches feasibility monotonicity across the solve's probes.
    """
    stats.probes += 1
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
    trace: ProbeTrace | None,
) -> None:
    """Answer the midpoint ``t`` feasible from the greedy certificate.

    Recorded as a ``certified`` trace event (no operations, no wall
    time) so a trace still lists the whole search path; ``monitor``
    (armed sanitizer only) checks that ``counts`` fits the capacities at
    ``t`` and watches monotonicity against the probed deadlines.
    """
    stats.certified += 1
    if trace is not None:
        trace.record(phase="certified", t=t, flow=num_buckets, feasible=True)
    if monitor is not None:
        monitor.after_certified(t, counts)


class StoredCut:
    """The saturated sink arcs of the stored infeasible flow.

    ``arcs`` are the disk→sink arcs the flow saturates, ``caps`` their
    capacities when it was recorded and ``flow`` its value ``F``.  The
    flow stays maximum, with value ``F``, at every capacity vector that
    keeps ``caps`` on ``arcs`` and admits the flow elsewhere (the
    skeleton only ever raises capacities above a stored flow's).

    ``until`` is the earliest deadline at which a recorded arc gains
    capacity: ``min base_j + (caps_j + 1) * C_j`` over the recorded
    disks, from the solve's ``rescale_terms`` (``inf`` when no arc is
    recorded).
    """

    __slots__ = ("arcs", "caps", "flow", "until")

    def __init__(
        self, arcs: list[int], caps: list[int], flow: int, until: float
    ) -> None:
        self.arcs = arcs
        self.caps = caps
        self.flow = flow
        self.until = until

    @classmethod
    def zero(cls, network: RetrievalNetwork, terms: list[Terms]) -> "StoredCut":
        """The zero flow: maximum while every sink capacity is 0."""
        arcs = network.sink_arcs
        # base + (0 + 1) * c for every disk
        until = min([base + c for _, _, base, c in terms], default=math.inf)
        return cls(arcs, [0] * len(arcs), 0, until)

    @classmethod
    def saturated(
        cls, network: RetrievalNetwork, flow: int, terms: list[Terms]
    ) -> "StoredCut":
        """Record the network's current (maximum) flow of value ``flow``;
        ``terms`` is the solve's ``rescale_terms`` snapshot."""
        g = network.graph
        cap, fl = g.cap, g.flow
        arcs, caps = [], []
        until = math.inf
        for a, (_, _, base, c) in zip(network.sink_arcs, terms):
            k = cap[a]
            if fl[a] == k:
                arcs.append(a)
                caps.append(k)
                t = base + (k + 1) * c
                if t < until:
                    until = t
        return cls(arcs, caps, flow, until)

    def holds(self, cap: list[int]) -> bool:
        """Whether every recorded arc still has its recorded capacity."""
        return [cap[a] for a in self.arcs] == self.caps

    def holds_at(self, t: float) -> bool:
        """:meth:`holds` on the capacities at deadline ``t``, in closed
        form, with no rescale.

        ``t`` must be at least the deadline whose capacities the cut
        recorded.  ``capacities_at`` is monotone in the deadline and the
        exact inverse of ``finish_time``, so a recorded disk keeps its
        recorded capacity ``k`` exactly while ``t < finish_time(j, k +
        1)``, and every one keeps it exactly while ``t < until``.
        """
        return t < self.until


def _cut_certify(
    stats: SolverStats,
    t: float,
    phase: str,
    cut: StoredCut,
    monitor: invariants.ProbeMonitor | None,
    trace: ProbeTrace | None,
) -> None:
    """Answer the ``phase`` point ``t`` infeasible from the stored cut.

    Recorded as a ``cut_certified`` trace event (no operations, no wall
    time); ``monitor`` (armed sanitizer only) checks the recorded
    capacities and the value ``F`` against an independent max flow.
    """
    stats.cut_certified += 1
    if trace is not None:
        trace.record(phase="cut_certified", t=t, flow=cut.flow, feasible=False)
    if monitor is not None:
        monitor.after_cut_certified(t, phase, cut.arcs, cut.caps, cut.flow)


def closed_form_bracket(
    terms: list[Terms], num_buckets: int
) -> tuple[float, float, float]:
    """``(tmin, tmax, min_speed)`` of Algorithm 6 lines 1-11 in one pass.

    Equal to :meth:`~RetrievalProblem.theoretical_min_deadline`,
    :meth:`~RetrievalProblem.theoretical_max_deadline` and
    :meth:`~RetrievalProblem.min_speed`: every finish time is
    ``(D_j + X_j) + k * C_j``, the expression
    :meth:`~repro.storage.StorageSystem.finish_time` evaluates, read
    from the solve's ``rescale_terms`` snapshot.
    """
    per_disk = -(-num_buckets // len(terms))  # ceil
    best = min_speed = math.inf
    tmax = -math.inf
    for _, _, base, c in terms:
        t = base + per_disk * c
        if t < best:
            best = t
        t = base + num_buckets * c
        if t > tmax:
            tmax = t
        if c < min_speed:
            min_speed = c
    min_speed = float(min_speed)
    return best - min_speed, tmax, min_speed


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
    trace = active_trace()
    Q = problem.num_buckets
    cap = net.graph.cap
    terms = problem.system.rescale_terms()

    # lines 1-11: bracket the optimum
    tmin, tmax, min_speed = closed_form_bracket(terms, Q)

    # anchor probe at tmin (see module docstring)
    net.set_deadline_capacities(tmin, terms)
    # decided by the capacities at tmin, for a warm network as for a
    # fresh one: a valid flow within all-zero sink capacities is the
    # zero flow, which is what the clamp would leave of a warm one
    zero_caps = not any(net.sink_caps())
    if warm:
        if zero_caps:
            prober.reset_flow()
        else:
            net.clamp_flow_to_sink_caps()
            prober.adopt_flow(sum(net.counts_per_disk()))
    cut = StoredCut.zero(net, terms) if zero_caps else None
    if cut is not None and cut.holds(cap):
        _cut_certify(stats, tmin, "anchor", cut, monitor, trace)
    else:
        flow = _probe(prober, stats, Q, tmin, "anchor", monitor, trace)
        if flow >= Q:
            tmax, tmin = tmin, 0.0
            prober.reset_flow()
            cut = StoredCut.zero(net, terms)
        else:
            cut = StoredCut.saturated(net, flow, terms)
    saved = prober.save()

    # upper-bound certificate: the greedy assignment fits every t >= bound
    _, counts, bound = greedy_finish_time(problem, terms=terms)

    # lines 12-37: binary search with flow store/restore.  The sink
    # capacities are rescaled only where something reads them: before a
    # probe, and before the armed sanitizer checks a cut-certified point.
    while tmax - tmin >= min_speed:
        tmid = tmin + (tmax - tmin) * 0.5
        if tmid >= bound:
            # a probe here would be feasible and then restored: skip it
            _certify(stats, Q, tmid, counts, monitor, trace)
            tmax = tmid
            continue
        if cut.holds_at(tmid):
            # a probe here would return the stored flow: skip it
            if monitor is not None:
                net.set_deadline_capacities(tmid, terms)
            _cut_certify(stats, tmid, "binary", cut, monitor, trace)
            tmin = tmid
            continue
        net.set_deadline_capacities(tmid, terms)
        flow = _probe(prober, stats, Q, tmid, "binary", monitor, trace)
        if flow >= Q:
            # feasible but maybe not optimal: back off to the stored flow
            if prober.conserves_flow:
                prober.restore(saved)
            tmax = tmid
        else:
            # infeasible: this flow is valid at every larger deadline
            if prober.conserves_flow:
                saved = prober.save()
            cut = StoredCut.saturated(net, flow, terms)
            tmin = tmid

    # lines 38-42: finish from tmin with min-cost increments
    if prober.conserves_flow:
        prober.restore(saved)
    net.set_deadline_capacities(tmin, terms)
    schedule = incremental_solve(
        problem, prober, solver_name, stats=stats, network=net,
        entry_deadline=tmin, cut=cut, terms=terms,
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
    cut: StoredCut | None = None,
    terms: list[Terms] | None = None,
) -> RetrievalSchedule:
    """Algorithm 5's outer loop: probe, then increment-min-cost until |Q|.

    Called standalone (capacities start at zero — the pure
    ``pr-incremental`` solver) or as Algorithm 6's final phase (capacities
    pre-scaled by the caller; ``entry_deadline`` is the deadline those
    capacities encode, recorded as the first increment-phase probe's
    candidate ``t`` — every later candidate, being a min-cost finish time
    *above* the scaled capacities, is strictly larger).  ``cut`` is the
    caller's record of its stored infeasible flow; a point where it holds
    is answered without a probe (see the module docstring).  ``terms``
    is the caller's ``rescale_terms`` snapshot, which the increments and
    the response time read (taken here when omitted).
    """
    if terms is None:
        terms = problem.system.rescale_terms()
    if network is None:
        network = RetrievalNetwork(problem)
        prober.attach(network)
        cut = StoredCut.zero(network, terms)
    if stats is None:
        stats = SolverStats()
    Q = problem.num_buckets
    inc = MinCostIncrementer(network, terms)
    inc.sync_live_set()
    monitor = (
        invariants.ProbeMonitor(network) if invariants.ENABLED else None
    )
    trace = active_trace()

    cap = network.graph.cap
    t_cur = entry_deadline
    while True:
        if cut is not None and cut.holds(cap):
            _cut_certify(stats, t_cur, "increment", cut, monitor, trace)
        else:
            flow = _probe(
                prober, stats, Q, t_cur, "increment", monitor, trace
            )
            if flow >= Q:
                break
            cut = StoredCut.saturated(network, flow, terms)
        t_cur = inc.increment()
        stats.increments += 1

    prober.harvest(stats)
    assignment = network.assignment()
    return RetrievalSchedule(
        problem,
        assignment,
        network.response_time(terms),
        stats,
        solver=solver_name,
    )
