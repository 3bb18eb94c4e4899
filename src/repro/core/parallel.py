"""Parallel integrated solver (paper §V).

Algorithm 6 with the push/relabel phase (line 29) executed by the
asynchronous multithreaded engine of Hong & He [31]
(:mod:`repro.maxflow.parallel_push_relabel`).  The binary-scaling
skeleton, flow store/restore, and min-cost incrementation are byte-for-
byte the sequential ones; only the inner max-flow loop is threaded —
exactly the paper's "line 29 of the Algorithm 6 is modified to support
multi-threaded push/relabel operations".

The GIL caveat of the engine module applies: per-query value agreement
with the sequential solver is exact; wall-clock parallel *speedup* is
not expected under CPython (DESIGN.md §2).  For real multi-core scaling
the service layer's ``solve_backend="process"`` routes whole solves to a
:class:`repro.fleet.SolveFleet` of worker *processes* (escaping the
GIL), verified exact-``==`` against in-thread solves.
"""

from __future__ import annotations

from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.core.scaling import Prober, binary_scaling_solve
from repro.core.schedule import RetrievalSchedule, SolverStats
from repro.maxflow.parallel_push_relabel import parallel_push_relabel

__all__ = ["ParallelProber", "ParallelBinarySolver"]


class ParallelProber(Prober):
    """Warm-started multithreaded push–relabel probes."""

    conserves_flow = True

    def __init__(self, num_threads: int = 2) -> None:
        self.num_threads = num_threads
        self._network: RetrievalNetwork | None = None
        self._pushes = 0
        self._relabels = 0
        self._load_balances: list[float] = []

    def attach(self, network: RetrievalNetwork) -> None:
        self._network = network

    def probe(self) -> float:
        net = self._network
        assert net is not None, "attach() before probe()"
        result = parallel_push_relabel(
            net.graph,
            net.source,
            net.sink,
            num_threads=self.num_threads,
            warm_start=True,
        )
        self._pushes += result.pushes
        self._relabels += result.relabels
        self._load_balances.append(result.extra["parallel_stats"].load_balance)
        return result.value

    def op_counts(self) -> tuple[int, int, int]:
        return (self._pushes, self._relabels, 0)

    def harvest(self, stats: SolverStats) -> None:
        stats.pushes += self._pushes
        stats.relabels += self._relabels
        stats.extra["num_threads"] = self.num_threads
        if self._load_balances:
            stats.extra["mean_load_balance"] = sum(self._load_balances) / len(
                self._load_balances
            )


class ParallelBinarySolver:
    """Algorithm 6 with multithreaded push/relabel (2 threads by default,
    matching the paper's Figure 10 configuration)."""

    name = "parallel-binary"
    supports_warm_start = True

    def __init__(self, num_threads: int = 2) -> None:
        self.num_threads = num_threads

    def solve(
        self,
        problem: RetrievalProblem,
        *,
        network: RetrievalNetwork | None = None,
    ) -> RetrievalSchedule:
        prober = ParallelProber(self.num_threads)
        return binary_scaling_solve(problem, prober, self.name, network=network)
