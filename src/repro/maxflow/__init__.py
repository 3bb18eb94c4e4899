"""Maximum-flow engines.

Every engine consumes a :class:`repro.graph.FlowNetwork` and drives flow
from a source to a sink.  The family mirrors the methods the paper surveys
in §II-B:

* :mod:`repro.maxflow.ford_fulkerson` — DFS augmenting paths (Ford &
  Fulkerson [24]); the engine inside Algorithms 1 and 2.
* :mod:`repro.maxflow.edmonds_karp` — BFS shortest augmenting paths;
  ablation baseline.
* :mod:`repro.maxflow.dinic` — blocking flows (Dinic [22]); ablation
  baseline and the independent oracle of the differential fuzz.
* :mod:`repro.maxflow.push_relabel` — FIFO push–relabel with exact-height
  (global relabeling) and gap heuristics (Goldberg & Tarjan [29],
  Cherkassky & Goldberg [19]); the engine inside Algorithms 4–6.
* :mod:`repro.maxflow.csr_push_relabel` — the same FIFO push–relabel on
  the compiled CSR flat-array layout (:meth:`FlowNetwork.compile`), with
  per-topology scratch reuse; produces arc-identical flows to
  ``push-relabel`` and is the engine behind the ``pr-csr`` solver.
* :mod:`repro.maxflow.parallel_push_relabel` — asynchronous multithreaded
  push–relabel in the style of Hong & He [31].

All engines support *warm starts* (continuing from the network's current
flow), which is the property the paper's "integrated" algorithms exploit.
"""

from repro.maxflow.base import MaxFlowEngine, MaxFlowResult
from repro.maxflow.csr_push_relabel import (
    CsrPushRelabelEngine,
    CsrPushRelabelState,
    csr_push_relabel,
)
from repro.maxflow.dinic import DinicEngine, dinic
from repro.maxflow.edmonds_karp import EdmondsKarpEngine, edmonds_karp
from repro.maxflow.ford_fulkerson import (
    FordFulkersonEngine,
    augment_unit_from,
    ford_fulkerson,
)
from repro.maxflow.parallel_push_relabel import (
    ParallelPushRelabelEngine,
    ParallelStats,
    parallel_push_relabel,
)
from repro.maxflow.push_relabel import (
    PushRelabelEngine,
    PushRelabelState,
    push_relabel,
)

ENGINES = {
    "ford-fulkerson": FordFulkersonEngine,
    "edmonds-karp": EdmondsKarpEngine,
    "dinic": DinicEngine,
    "push-relabel": PushRelabelEngine,
    "csr-push-relabel": CsrPushRelabelEngine,
    "parallel-push-relabel": ParallelPushRelabelEngine,
}


def get_engine(name: str, **kwargs: object) -> MaxFlowEngine:
    """Instantiate an engine by registry name (see :data:`ENGINES`)."""
    try:
        cls = ENGINES[name]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; choose from {sorted(ENGINES)}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "ENGINES",
    "get_engine",
    "MaxFlowEngine",
    "MaxFlowResult",
    "FordFulkersonEngine",
    "ford_fulkerson",
    "augment_unit_from",
    "EdmondsKarpEngine",
    "edmonds_karp",
    "DinicEngine",
    "dinic",
    "PushRelabelEngine",
    "PushRelabelState",
    "push_relabel",
    "CsrPushRelabelEngine",
    "CsrPushRelabelState",
    "csr_push_relabel",
    "ParallelPushRelabelEngine",
    "ParallelStats",
    "parallel_push_relabel",
]
