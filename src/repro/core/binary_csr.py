"""Algorithm 6 on the compiled CSR layout — the ``pr-csr`` solver.

Same binary-scaling skeleton and StoreFlows/RestoreFlows discipline as
:mod:`repro.core.binary_pr`, but the feasibility probes run the CSR
flat-array kernel (:mod:`repro.maxflow.csr_push_relabel`): the prober
compiles the retrieval network once at :meth:`~CsrProber.attach` time
and every probe after that is ``initialize(preserve_flow=True)`` +
``run()`` over the frozen topology's reused scratch buffers — no
per-probe allocation, no adjacency re-walk.

Differentially interchangeable with ``pr-binary``: identical schedules
and operation counts (the prober is flow-conserving and the default
FIFO selection is an operation-for-operation port of the list engine).
Not faster end to end: the raw one-shot engine is ~1.4x faster than
the list engine (BENCH_ablation_engines.json), but on the repository
benchmark's ``cold-solve`` trace (N=32, every submit a cold solve) a
``pr-csr`` epoch takes about 15% longer than a ``pr-binary`` one
(median 2.26 vs 1.97 s, host-speed scaled, 2-vCPU Intel Xeon VM,
CPython 3.11).  Each solve compiles the network, and per-vertex work
walks flat-array slices where the list engine indexes ready lists.
"""

from __future__ import annotations

from repro.core.incremental_pr import SequentialProber
from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.core.scaling import binary_scaling_solve
from repro.core.schedule import RetrievalSchedule, SolverStats
from repro.maxflow.csr_push_relabel import CsrPushRelabelState

__all__ = ["CsrProber", "CsrBinarySolver"]


class CsrProber(SequentialProber):
    """Warm-started CSR push–relabel probes over one compiled topology.

    Inherits the StoreFlows/RestoreFlows handling (flow plus exact
    excess) from :class:`SequentialProber`; only the engine differs.
    """

    def __init__(
        self,
        *,
        selection: str = "fifo",
        initial_heights: str = "exact",
        global_relabel_interval: int | None = None,
        gap_heuristic: bool = True,
    ) -> None:
        super().__init__(
            initial_heights=initial_heights,
            global_relabel_interval=global_relabel_interval,
            gap_heuristic=gap_heuristic,
        )
        self.selection = selection

    def attach(self, network: RetrievalNetwork) -> None:
        self._network = network
        self._state = CsrPushRelabelState(
            network.graph,
            network.source,
            network.sink,
            selection=self.selection,
            initial_heights=self.initial_heights,
            global_relabel_interval=self.global_relabel_interval,
            gap_heuristic=self.gap_heuristic,
        )

    def harvest(self, stats: SolverStats) -> None:
        super().harvest(stats)
        if self._state is not None:
            stats.extra["gap_events"] = self._state.gap_events


class CsrBinarySolver:
    """Integrated binary-scaled push–relabel on the CSR layout."""

    name = "pr-csr"
    supports_warm_start = True

    def __init__(
        self,
        *,
        selection: str = "fifo",
        initial_heights: str = "exact",
        global_relabel_interval: int | None = None,
        gap_heuristic: bool = True,
    ) -> None:
        self.selection = selection
        self.initial_heights = initial_heights
        self.global_relabel_interval = global_relabel_interval
        self.gap_heuristic = gap_heuristic

    def solve(
        self,
        problem: RetrievalProblem,
        *,
        network: RetrievalNetwork | None = None,
    ) -> RetrievalSchedule:
        prober = CsrProber(
            selection=self.selection,
            initial_heights=self.initial_heights,
            global_relabel_interval=self.global_relabel_interval,
            gap_heuristic=self.gap_heuristic,
        )
        return binary_scaling_solve(problem, prober, self.name, network=network)
