"""Work-minimizing tie-breaking among optimal schedules.

The optimal response time usually admits *many* schedules (any max flow
at the optimal deadline's capacities).  They differ in **total disk
work** ``Σ_i C_{disk(i)}`` — seconds of actuator/flash time spent, i.e.
energy and interference with other tenants.  This extension keeps the
optimal response time and, within it, minimizes total work by running a
min-cost max-flow at the optimal deadline with each replica arc priced
at its disk's ``C_j``.

A pure extension (not in the paper — its solvers return an arbitrary
optimal flow); useful whenever slow disks should not be touched unless
they shorten the response.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.api import solve
from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.core.schedule import RetrievalSchedule, SolverStats
from repro.errors import InfeasibleScheduleError
from repro.maxflow.mincost import min_cost_max_flow

__all__ = ["WorkOptimalResult", "total_work_ms", "solve_min_work"]


def total_work_ms(schedule: RetrievalSchedule) -> float:
    """Total disk service time of a schedule: ``Σ_buckets C_{disk}``."""
    sys_ = schedule.problem.system
    return sum(
        sys_.disk(d).block_time_ms for d in schedule.assignment.values()
    )


@dataclass(frozen=True)
class WorkOptimalResult:
    """A response-time-optimal, work-minimal schedule plus savings."""

    schedule: RetrievalSchedule
    baseline_work_ms: float
    optimal_work_ms: float

    @property
    def savings_ms(self) -> float:
        return self.baseline_work_ms - self.optimal_work_ms

    @property
    def savings_fraction(self) -> float:
        if self.baseline_work_ms <= 0:
            return 0.0
        return self.savings_ms / self.baseline_work_ms


def solve_min_work(
    problem: RetrievalProblem, solver: str = "pr-binary", **solver_kwargs: object
) -> WorkOptimalResult:
    """Optimal response time first, minimal total work second.

    Runs the requested solver for the optimal response time ``T*``, then a
    min-cost max-flow at ``caps(T*)`` with replica arcs priced at their
    disk's ``C_j``.  The result provably keeps ``T*`` (its per-disk counts
    satisfy the same capacities) while minimizing work.
    """
    baseline = solve(problem, solver=solver, **solver_kwargs)
    T = baseline.response_time_ms

    net = RetrievalNetwork(problem)
    net.set_deadline_capacities(T)
    costs = [0.0] * net.graph.num_arc_slots
    sys_ = problem.system
    for arcs in net.replica_arcs:
        for a in arcs:
            disk = net.disk_of_vertex(net.graph.head[a])
            costs[a] = sys_.disk(disk).block_time_ms
    result = min_cost_max_flow(net.graph, net.source, net.sink, costs)
    if result.value < problem.num_buckets:
        raise InfeasibleScheduleError(
            "min-cost pass lost flow — capacities at the reported optimum "
            "do not admit |Q| (corrupt baseline schedule?)"
        )

    assignment = net.assignment()
    stats = SolverStats(
        probes=baseline.stats.probes + 1,
        certified=baseline.stats.certified,
        cut_certified=baseline.stats.cut_certified,
        increments=baseline.stats.increments,
        pushes=baseline.stats.pushes,
        relabels=baseline.stats.relabels,
        augmentations=baseline.stats.augmentations + result.augmentations,
        extra={"mincost_total": result.extra["total_cost"]},
    )
    schedule = RetrievalSchedule(
        problem, assignment, net.response_time(), stats,
        solver=f"{solver}+min-work",
    )
    # capacity_at is the exact inverse of finish_time, so the min-cost
    # flow's response time can never exceed T through rounding alone
    if schedule.response_time_ms > T:
        raise InfeasibleScheduleError(
            "min-work schedule exceeded the optimal response time"
        )
    return WorkOptimalResult(
        schedule=schedule,
        baseline_work_ms=total_work_ms(baseline),
        optimal_work_ms=total_work_ms(schedule),
    )
