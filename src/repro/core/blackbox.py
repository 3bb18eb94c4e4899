"""The black-box baseline from [12].

Same binary capacity scaling and min-cost incrementation as Algorithm 6,
but max flow is used "as a black box technique": every feasibility probe
resets the flow to zero and solves from scratch, so nothing is conserved
between probes.  (The paper's baseline wraps LEDA's ``MAX_FLOW``; ours
wraps any engine from :mod:`repro.maxflow`, push–relabel by default for
the like-for-like comparison of Figures 7-9.)
"""

from __future__ import annotations

from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.core.scaling import Prober, binary_scaling_solve
from repro.core.schedule import RetrievalSchedule, SolverStats
from repro.maxflow import MaxFlowEngine, PushRelabelEngine, get_engine

__all__ = ["BlackBoxProber", "BlackBoxBinarySolver"]


class BlackBoxProber(Prober):
    """Cold-start probes: reset flow, solve fresh, every time."""

    conserves_flow = False

    def __init__(self, engine: MaxFlowEngine | None = None) -> None:
        self.engine = engine if engine is not None else PushRelabelEngine()
        self._network: RetrievalNetwork | None = None
        self._pushes = 0
        self._relabels = 0
        self._augmentations = 0

    def attach(self, network: RetrievalNetwork) -> None:
        self._network = network

    def probe(self) -> float:
        net = self._network
        assert net is not None, "attach() before probe()"
        result = self.engine.solve(
            net.graph, net.source, net.sink, warm_start=False
        )
        self._pushes += result.pushes
        self._relabels += result.relabels
        self._augmentations += result.augmentations
        return result.value

    def op_counts(self) -> tuple[int, int, int]:
        return (self._pushes, self._relabels, self._augmentations)

    def harvest(self, stats: SolverStats) -> None:
        stats.pushes += self._pushes
        stats.relabels += self._relabels
        stats.augmentations += self._augmentations


class BlackBoxBinarySolver:
    """[12]'s binary-scaling retrieval with a black-box max-flow engine."""

    name = "blackbox-binary"
    supports_warm_start = True

    def __init__(self, engine: str = "push-relabel", **engine_kwargs: object) -> None:
        # resolved here so an unknown engine fails at construction, not
        # at the first solve
        self.engine = get_engine(engine, **engine_kwargs)

    def solve(
        self,
        problem: RetrievalProblem,
        *,
        network: RetrievalNetwork | None = None,
    ) -> RetrievalSchedule:
        prober = BlackBoxProber(self.engine)
        return binary_scaling_solve(problem, prober, self.name, network=network)
