"""Schedule explanation: *why* this response time, *why* these disks.

Operators distrust opaque schedulers.  This module turns a schedule into
an explanation built from the max-flow structure itself:

* the **binding disk set** — the min cut of the retrieval network one
  step below the optimum.  These disks' capacities are what pins the
  response time: speeding up *any other* disk cannot help.
* the **bottleneck chain** — the bucket set forced through the binding
  disks (the cut's source side), i.e. which part of the query is hard;
* per-disk placement rationale (finish time with vs without each
  assigned bucket).

Built on :func:`repro.graph.min_cut_reachable`; the explanation is a
certificate, not a heuristic narrative.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.core.schedule import RetrievalSchedule
from repro.graph.validation import min_cut_reachable
from repro.maxflow.push_relabel import push_relabel

__all__ = ["ScheduleExplanation", "explain_schedule"]


@dataclass(frozen=True)
class ScheduleExplanation:
    """A structured explanation of one optimal schedule."""

    response_time_ms: float
    #: disks whose capacity at (T* - min_speed) forms the binding cut
    binding_disks: tuple[int, ...]
    #: query buckets whose replica sets force flow through the cut
    hard_buckets: tuple[int, ...]
    #: disk -> (buckets served, finish time)
    disk_summary: dict[int, tuple[int, float]]
    #: True when the whole query is hard (cut at the source side)
    source_limited: bool

    def render(self, problem: RetrievalProblem) -> str:
        lines = [
            f"optimal response time: {self.response_time_ms:.2f} ms",
        ]
        if self.source_limited:
            lines.append(
                "every bucket is on the critical path (source-side cut): "
                "the query itself saturates the system"
            )
        else:
            disks = ", ".join(str(d) for d in self.binding_disks)
            lines.append(
                f"binding disks: {{{disks}}} — their capacity one step "
                f"below T* is what forbids a faster schedule; speeding up "
                f"any other disk cannot improve this query"
            )
            labels = ", ".join(
                str(problem.label_of(i)) for i in self.hard_buckets[:8]
            )
            more = (
                f" (+{len(self.hard_buckets) - 8} more)"
                if len(self.hard_buckets) > 8
                else ""
            )
            lines.append(f"hard buckets (forced through the cut): {labels}{more}")
        lines.append("per-disk plan:")
        for d in sorted(self.disk_summary):
            k, finish = self.disk_summary[d]
            marker = " <- binding" if d in self.binding_disks else ""
            lines.append(
                f"  disk {d}: {k} bucket(s), finishes {finish:.2f} ms{marker}"
            )
        return "\n".join(lines)


def explain_schedule(
    problem: RetrievalProblem, schedule: RetrievalSchedule
) -> ScheduleExplanation:
    """Build a :class:`ScheduleExplanation` for an optimal schedule.

    The binding set comes from the min cut at capacities
    ``T* - min_speed`` (infeasible by optimality): after a max flow
    there, the source-reachable residual set's outgoing disk→sink edges
    are exactly the capacities blocking further flow.
    """
    T = schedule.response_time_ms
    sys_ = problem.system

    net = RetrievalNetwork(problem)
    net.set_deadline_capacities(T - problem.min_speed())
    push_relabel(net.graph, net.source, net.sink)
    reachable = min_cut_reachable(net.graph, net.source)

    in_deg = net.disk_in_degree
    binding = tuple(
        j
        for j in range(problem.num_disks)
        if net.disk_vertex(j) in reachable and in_deg[j] > 0
    )
    hard = tuple(
        i
        for i in range(problem.num_buckets)
        if net.bucket_vertex(i) in reachable
    )
    # no disk edge in the cut: the cut crosses source or replica arcs,
    # i.e. the query's own structure (not disk speed) limits it
    source_limited = len(binding) == 0

    counts = schedule.counts_per_disk()
    disk_summary = {
        j: (k, sys_.finish_time(j, k))
        for j, k in enumerate(counts)
        if k > 0
    }
    return ScheduleExplanation(
        response_time_ms=T,
        binding_disks=binding,
        hard_buckets=hard,
        disk_summary=disk_summary,
        source_limited=source_limited,
    )
