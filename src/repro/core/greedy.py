"""Greedy retrieval heuristics — quality baselines, not from the paper.

The paper takes for granted that optimal scheduling is worth computing;
these baselines quantify it.  Both run in O(|Q| · c) to O(|Q| log |Q|)
time — far cheaper than any max-flow — but give up optimality:

* :class:`GreedyFinishTimeSolver` — assign buckets one by one, each to
  the replica disk whose *finish time after taking it* is smallest
  (the natural online heuristic a storage array would ship).
* :class:`RoundRobinSolver` — rotate across each bucket's replicas,
  ignoring disk parameters entirely (the "no scheduler" strawman).

The greedy itself is :func:`greedy_finish_time`; Algorithm 6's skeleton
also uses its makespan as an upper-bound certificate
(:mod:`repro.core.scaling`, "Certified midpoints").

`benchmarks/bench_greedy_gap.py` measures the response-time gap versus
the optimum across the paper's workloads, and
`examples/greedy_vs_optimal.py` walks through where and why greedy loses
(it cannot *revoke* an earlier assignment — exactly the ability the
max-flow formulation's residual arcs provide).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.problem import RetrievalProblem
from repro.core.schedule import RetrievalSchedule, SolverStats

__all__ = ["GreedyFinishTimeSolver", "RoundRobinSolver", "greedy_finish_time"]


def greedy_finish_time(
    problem: RetrievalProblem,
    indices: Iterable[int] | None = None,
    *,
    terms: list[tuple[float, float, float, float]] | None = None,
) -> tuple[list[int], list[int], float]:
    """The marginal-finish-time greedy assignment, in one lean pass.

    Visits buckets in ``indices`` order (default: input order) and puts
    each on the replica disk whose finish time *after taking it* is
    smallest, the lowest disk id winning ties.  Returns ``(choice,
    counts, makespan)``: ``choice[i]`` is bucket ``i``'s disk,
    ``counts[j]`` disk ``j``'s bucket count, and ``makespan`` the
    assignment's response time.

    Every finish time is evaluated as ``(D_j + X_j) + k * C_j``, the
    expression :meth:`~repro.storage.StorageSystem.finish_time` uses, so
    ``makespan`` is bit-identical to recomputing it from ``counts`` and
    ``capacities_at(t) >= counts`` holds exactly at every ``t >=
    makespan``.  Algorithm 6's skeleton relies on that to certify
    binary-search midpoints (see :mod:`repro.core.scaling`), and passes
    its :meth:`~repro.storage.StorageSystem.rescale_terms` snapshot as
    ``terms``, whose ``D_j + X_j`` and ``C_j`` this reads.
    """
    if terms is None:
        terms = problem.system.rescale_terms()
    base = [t[2] for t in terms]
    cost = [t[3] for t in terms]
    # finish time of each disk after one more bucket
    nxt = [b + c for b, c in zip(base, cost)]
    counts = [0] * len(terms)
    replicas = problem.replicas
    choice = [0] * len(replicas)
    order = range(len(replicas)) if indices is None else indices
    for i in order:
        reps = replicas[i]
        best = reps[0]
        best_t = nxt[best]
        for d in reps:
            t = nxt[d]
            if t < best_t or (t == best_t and d < best):
                best, best_t = d, t
        choice[i] = best
        k = counts[best] = counts[best] + 1
        nxt[best] = base[best] + (k + 1) * cost[best]
    makespan = max(
        base[j] + k * cost[j] for j, k in enumerate(counts) if k > 0
    )
    return choice, counts, makespan


class GreedyFinishTimeSolver:
    """Marginal-finish-time greedy assignment.

    Processes buckets in input order by default (the paper's motivating
    applications stream buckets in storage order);
    ``order="constrained-first"`` handles the least-flexible buckets
    first — a common greedy improvement — for comparison.
    """

    name = "greedy-finish-time"

    def __init__(self, order: str = "input") -> None:
        if order not in ("input", "constrained-first"):
            raise ValueError(
                f"order must be 'input' or 'constrained-first', got {order!r}"
            )
        self.order = order

    def solve(self, problem: RetrievalProblem) -> RetrievalSchedule:
        indices = None
        if self.order == "constrained-first":
            indices = sorted(
                range(problem.num_buckets),
                key=lambda i: len(set(problem.replicas[i])),
            )
        choice, _, response = greedy_finish_time(problem, indices)
        return RetrievalSchedule(
            problem, dict(enumerate(choice)), response, SolverStats(),
            solver=self.name,
        )


class RoundRobinSolver:
    """Rotate through each bucket's replica list, parameter-blind."""

    name = "round-robin"

    def solve(self, problem: RetrievalProblem) -> RetrievalSchedule:
        sys_ = problem.system
        counts: dict[int, int] = {d: 0 for d in problem.replica_disks()}
        assignment: dict[int, int] = {}
        for i, reps in enumerate(problem.replicas):
            choices = sorted(set(reps))
            assignment[i] = choices[i % len(choices)]
            counts[assignment[i]] += 1
        response = max(
            sys_.finish_time(d, k) for d, k in counts.items() if k > 0
        )
        return RetrievalSchedule(
            problem, assignment, response, SolverStats(), solver=self.name
        )
