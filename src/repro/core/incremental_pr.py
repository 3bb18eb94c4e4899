"""Algorithm 5 — ``PushRelabelIncremental()`` (integrated, no scaling).

Starts with all disk→sink capacities at zero and alternates
``IncrementMinCost()`` with warm-started push–relabel runs until the sink
excess reaches ``|Q|``.  The crucial property is line "flow values are not
initialized back to 0": each run's :class:`~repro.maxflow.PushRelabelState`
re-initialization (clear queue, saturate only the *residual* slack of the
source arcs, reset heights, zero source excess — lines 3-14) conserves
every previously routed bucket.

Worst case ``O(c · |Q|⁴)``; Algorithm 6 (:mod:`repro.core.binary_pr`)
adds binary scaling to bound the increment count by ``N``.
"""

from __future__ import annotations

from typing import Any

from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.core.scaling import Prober, incremental_solve
from repro.core.schedule import RetrievalSchedule, SolverStats
from repro.maxflow.csr_push_relabel import CsrPushRelabelState
from repro.maxflow.push_relabel import PushRelabelState

__all__ = ["SequentialProber", "PushRelabelIncrementalSolver"]


class SequentialProber(Prober):
    """Warm-started sequential push–relabel probes (the integrated case).

    Besides the flow, the prober carries the state's exact excess list
    across probes: :meth:`save` snapshots it beside the flow and
    :meth:`restore` reinstates both, and :meth:`adopt_flow` sets it for
    a warm start's clamped flow, so a warm probe skips the ``O(n + m)``
    net-inflow recomputation (see docs/ALGORITHMS.md, "Warm-probe
    cost").
    """

    conserves_flow = True

    def __init__(
        self,
        *,
        initial_heights: str = "exact",
        global_relabel_interval: int | None = None,
        gap_heuristic: bool = True,
    ) -> None:
        self.initial_heights = initial_heights
        self.global_relabel_interval = global_relabel_interval
        self.gap_heuristic = gap_heuristic
        self._state: PushRelabelState | CsrPushRelabelState | None = None

    def attach(self, network: RetrievalNetwork) -> None:
        self._network = network
        self._state = PushRelabelState(
            network.graph,
            network.source,
            network.sink,
            initial_heights=self.initial_heights,
            global_relabel_interval=self.global_relabel_interval,
            gap_heuristic=self.gap_heuristic,
        )

    def probe(self) -> int:
        assert self._state is not None, "attach() before probe()"
        self._state.initialize(preserve_flow=True)
        return self._state.run()

    def save(self) -> tuple[list[int], list[int] | None]:
        assert self._state is not None, "attach() before save()"
        return self._graph().save_flow(), self._state.save_excess()

    def restore(self, saved: Any) -> None:
        assert self._state is not None, "attach() before restore()"
        flow, excess = saved
        self._graph().restore_flow(flow)
        self._state.restore_excess(excess)

    def reset_flow(self) -> None:
        assert self._state is not None, "attach() before reset_flow()"
        self._graph().reset_flow()
        self._state.restore_excess(None)

    def adopt_flow(self, value: int) -> None:
        # a valid flow's net inflow: 0 everywhere but the sink (and the
        # source, whose excess initialize() zeroes anyway)
        assert self._state is not None, "attach() before adopt_flow()"
        excess = [0] * self._graph().n
        excess[self._state.t] = value
        self._state.restore_excess(excess)

    def op_counts(self) -> tuple[int, int, int]:
        if self._state is None:
            return (0, 0, 0)
        return (self._state.pushes, self._state.relabels, 0)

    def harvest(self, stats: SolverStats) -> None:
        if self._state is not None:
            stats.pushes += self._state.pushes
            stats.relabels += self._state.relabels
            stats.extra["global_relabels"] = self._state.global_relabels


class PushRelabelIncrementalSolver:
    """Integrated push–relabel without binary scaling (Algorithm 5)."""

    name = "pr-incremental"

    def __init__(self, *, initial_heights: str = "exact") -> None:
        self.initial_heights = initial_heights

    def solve(self, problem: RetrievalProblem) -> RetrievalSchedule:
        prober = SequentialProber(initial_heights=self.initial_heights)
        return incremental_solve(problem, prober, self.name)
