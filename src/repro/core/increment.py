"""Algorithm 3 — ``IncrementMinCost()``.

When the current disk→sink capacities admit no more flow, the generalized
algorithms raise exactly the capacities whose *next* bucket would finish
earliest: for each live edge ``e`` (disk ``j``),

``cost[e] = D_j + X_j + (caps[e] + 1) * C_j``

and every edge achieving the minimum is incremented together (ties are
incremented simultaneously, "as in the basic problem").  Edges whose disk
already has capacity for every replica it holds (``in_degree <= caps``)
are removed from the live set — they can never carry more flow — which
bounds the total number of increment steps by ``O(c * |Q|)``.
"""

from __future__ import annotations

from repro.core.network import RetrievalNetwork
from repro.errors import InfeasibleScheduleError

__all__ = ["MinCostIncrementer"]


class MinCostIncrementer:
    """Stateful Algorithm 3 bound to one retrieval network.

    The live edge set ``E`` starts as every disk that stores at least one
    of the query's buckets (disks with ``in_degree == 0`` can never serve
    this query and are dropped immediately, matching Algorithm 3's
    deletion rule on the first call).
    """

    def __init__(
        self,
        network: RetrievalNetwork,
        terms: list[tuple[float, float, float, float]] | None = None,
    ) -> None:
        self.network = network
        #: the solve's ``rescale_terms`` snapshot; each cost is
        #: ``(D_j + X_j) + (caps + 1) * C_j`` from it, the expression
        #: ``finish_time`` uses (taken at each step when omitted)
        self.terms = terms
        in_deg = network.disk_in_degree
        self.live_disks: list[int] = [
            j for j, d in enumerate(in_deg) if d > 0
        ]
        #: number of increment steps performed
        self.steps = 0

    # ------------------------------------------------------------------
    def sync_live_set(self) -> None:
        """Drop exhausted edges after an external capacity change.

        Algorithm 6 jumps capacities via binary scaling before the
        incremental phase; the live set must be re-filtered against the
        new capacity levels.
        """
        g = self.network.graph
        in_deg = self.network.disk_in_degree
        arcs = self.network.sink_arcs
        self.live_disks = [
            j for j in self.live_disks if in_deg[j] > g.cap[arcs[j]]
        ]

    def increment(self) -> float:
        """One ``IncrementMinCost()`` step; returns the minimum cost.

        Raises :class:`InfeasibleScheduleError` if the live set is empty —
        every replica-holding disk is already at full capacity, so if the
        flow still falls short the instance itself is broken.
        """
        net = self.network
        caps = net.graph.cap
        arcs = net.sink_arcs
        in_deg = net.disk_in_degree
        terms = self.terms
        if terms is None:
            terms = net.problem.system.rescale_terms()

        min_cost = float("inf")
        survivors: list[int] = []
        costs: list[float] = []
        for j in self.live_disks:
            cap = caps[arcs[j]]
            if in_deg[j] <= cap:
                continue  # Algorithm 3 lines 3-5: delete exhausted edge
            _, _, base, c = terms[j]
            cost = base + (cap + 1) * c
            survivors.append(j)
            costs.append(cost)
            if cost < min_cost:
                min_cost = cost
        self.live_disks = survivors

        if not survivors:
            raise InfeasibleScheduleError(
                "no capacity left to increment: every replica-holding disk "
                "is saturated (flow < |Q| implies a corrupt instance)"
            )

        # exact-equality ties: every candidate cost for a given disk is the
        # same float expression D_j + X_j + k*C_j, so equal costs compare
        # equal bit-for-bit — the paper's doubles did the same
        for j, cost in zip(survivors, costs):
            if cost == min_cost:
                net.increment_sink_cap(j)
        self.steps += 1
        return min_cost
