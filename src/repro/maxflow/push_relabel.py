"""FIFO push–relabel maximum flow (Goldberg & Tarjan [29]).

This is the engine inside the paper's Algorithms 4, 5 and 6.  Design notes:

* **FIFO vertex selection** with a **current-arc pointer** per vertex, as in
  the paper ("we use the FIFO ordering ... suggested by [19]"), giving the
  O(|V|³) bound the paper quotes for Algorithm 4.

* **Exact-height (global relabeling) heuristic** [19]: heights are
  periodically recomputed as exact residual-graph distances to the sink
  (or, for vertices that cannot reach the sink, ``n`` + distance to the
  source).  The paper's pseudocode (Algorithm 5 lines 11–13) resets heights
  to zero between incremental runs; both behaviours are supported through
  ``initial_heights`` and produce identical flows — only operation counts
  differ (quantified in ``benchmarks/bench_ablation_conservation.py``).

* **Gap heuristic** [14,19]: when a height level in ``(0, n)`` empties, all
  vertices stranded above it are lifted past ``n`` at once.

* **Single-loop two-phase execution.** Heights may grow up to ``2n`` and
  *every* active vertex (positive excess, not source/sink) is discharged,
  so at termination leftover excess has drained back to the source and the
  arrays hold a genuine maximum *flow*, not just a preflow.  Algorithm 6's
  ``StoreFlows``/``RestoreFlows`` depends on this: a stored state must be a
  valid flow for every larger capacity vector (feasibility–capacity
  monotonicity, see DESIGN.md §5).

* **Warm starts.** :meth:`PushRelabelState.initialize` implements
  Algorithm 5 lines 3–14: clear the FIFO queue, saturate only the source
  arcs with positive residual ``delta`` (conserving all previously computed
  flow), reset heights, zero the source excess.  The excess itself is
  carried over from the previous :meth:`~PushRelabelState.run` (or a
  prober's StoreFlows snapshot) while it is known exact, instead of
  being recomputed from the flow (docs/ALGORITHMS.md, "Warm-probe cost").
"""

from __future__ import annotations

from itertools import compress

from repro import invariants
from repro.graph.flownetwork import FlowNetwork
from repro.maxflow.base import MaxFlowEngine, MaxFlowResult

__all__ = ["PushRelabelState", "push_relabel", "PushRelabelEngine"]


class PushRelabelState:
    """Re-entrant push–relabel machinery bound to one network.

    The retrieval algorithms create one state per query and call
    :meth:`initialize` + :meth:`run` once per capacity probe, preserving
    flow in between — that reuse *is* the paper's "integrated" idea.

    Parameters
    ----------
    g, s, t:
        Network, source, sink.
    initial_heights:
        ``"exact"`` (global-relabel style BFS distances, default) or
        ``"zero"`` (the literal Algorithm 5 pseudocode).
    global_relabel_interval:
        Re-run the exact-height computation after this many relabels;
        ``0`` disables the heuristic.  ``None`` (default) disables it when
        heights already start exact and picks ``max(n, 16)`` otherwise:
        on the shallow 4-layer retrieval networks, exact initialization
        plus the gap heuristic leaves mid-run global relabeling nothing
        to win — intervals 16 and 64 measured 0.99x and 0.97x the solve
        time of interval 0 on the N=16 ablation batch (EXPERIMENTS.md,
        "Mid-run global relabels";
        ``benchmarks/bench_ablation_conservation.py``).
    gap_heuristic:
        Enable the gap heuristic.
    """

    def __init__(
        self,
        g: FlowNetwork,
        s: int,
        t: int,
        *,
        initial_heights: str = "exact",
        global_relabel_interval: int | None = None,
        gap_heuristic: bool = True,
    ) -> None:
        if s == t:
            raise ValueError("source and sink must differ")
        if initial_heights not in ("exact", "zero"):
            raise ValueError(f"initial_heights must be 'exact' or 'zero', got {initial_heights!r}")
        self.g = g
        self.s = s
        self.t = t
        self.initial_heights = initial_heights
        n = g.n
        if global_relabel_interval is None:
            global_relabel_interval = 0 if initial_heights == "exact" else max(n, 16)
        self.global_relabel_interval = global_relabel_interval
        self.gap_heuristic = gap_heuristic

        self.excess: list[int] = [0] * n
        self.height: list[int] = [0] * n
        self.current: list[int] = [0] * n
        #: FIFO of active vertices: run() iterates the list while
        #: appending to it, so nothing is ever popped
        self.queue: list[int] = []
        self.in_queue: bytearray = bytearray(n)
        self.height_count: list[int] = [0] * (2 * n + 1)
        #: True while ``excess`` is the exact net inflow of the current
        #: flow at every vertex but ``s`` — set by :meth:`run` and
        #: :meth:`restore_excess`, cleared by :meth:`initialize`
        self.excess_exact = False

        # operation counters (reported in MaxFlowResult.extra)
        self.pushes = 0
        self.relabels = 0
        self.global_relabels = 0
        self.gap_events = 0

    # ------------------------------------------------------------------
    def initialize(self, *, preserve_flow: bool = True) -> None:
        """(Re)start the solver — Algorithm 4 lines 1–8 / Algorithm 5 lines 3–14.

        With ``preserve_flow=True`` the current flow is kept and only the
        source arcs' *residual* slack ``delta = cap - flow`` is injected as
        new excess.  With ``preserve_flow=False`` the flow is zeroed first
        (black-box behaviour) and the source arcs are saturated in full.

        A warm start reuses the excess list as it stands when
        :attr:`excess_exact` says it matches the flow (after this state's
        own :meth:`run`, or after :meth:`restore_excess`); otherwise the
        per-vertex net inflow is recomputed in ``O(n + m)``.
        """
        g, s, t = self.g, self.s, self.t
        n = g.n
        if not preserve_flow:
            g.reset_flow()
        head, cap, flow, adj = g.arrays()
        carried = preserve_flow and self.excess_exact
        self.excess_exact = False

        # Cancel preserved flow on arcs INTO the source.  Such flow leaves
        # residual s->w arcs, and no height labeling with height[s] = n can
        # satisfy the validity invariant across them — phase 1 could then
        # terminate before the preflow is maximum.  Cancelling converts
        # that flow into excess at the arcs' tails, a legal preflow
        # transformation.  (Retrieval networks have no arcs into s, so
        # they skip this pass; it matters for the generic engine API.)
        if g.in_degree(s):
            for b in adj[s]:
                if b & 1 and flow[b ^ 1] > 0:
                    flow[b ^ 1] = 0
                    flow[b] = 0
                    carried = False

        # Exact excesses from the preserved assignment: net inflow per
        # vertex.  For a valid starting *flow* this is zero away from s/t
        # (Algorithm 5's stated precondition); computing it exactly also
        # makes warm starts from any valid *preflow* safe.  The sink excess
        # must reflect flow already delivered in earlier probes, otherwise
        # Algorithm 5's `excess[t] == |Q|` test cannot see it.
        if carried:
            excess = self.excess
            if invariants.ENABLED:
                invariants.check_carried_excess(
                    g, s, excess, "PushRelabelState.initialize"
                )
        else:
            excess = [0] * n
            # a zero flow (a fresh network, a reset, a black-box probe)
            # has zero net inflow everywhere: skip the O(n + m) sum
            if any(flow):
                for v in range(n):
                    ev = 0
                    for a in adj[v]:
                        ev -= flow[a]
                    excess[v] = ev
            self.excess = excess

        # Algorithm 5 lines 4-10: saturate source arcs that still have slack
        # (delta = cap - flow), conserving all previously computed flow.
        for a in g.forward_arc_lists()[s]:
            delta = cap[a] - flow[a]
            if delta > 0:
                v = head[a]
                flow[a] += delta
                flow[a ^ 1] -= delta
                excess[v] += delta
            elif delta < 0:
                # A caller lowered a source-arc capacity without restoring a
                # compatible flow; refuse to solve a corrupted instance.
                raise ValueError(
                    "flow exceeds capacity on a source arc; restore a "
                    "compatible flow before re-initializing (see DESIGN.md)"
                )

        # Algorithm 5 line 14: the source's (negative) excess is irrelevant.
        excess[s] = 0
        # the active vertices in vertex order: compress skips the zero
        # excesses at C speed, so Python only visits the nonzero ones
        self.queue = queue = [
            v for v in compress(range(n), excess) if excess[v] > 0 and v != t
        ]
        in_queue = self.in_queue = bytearray(n)
        for v in queue:
            in_queue[v] = 1

        if self.initial_heights == "zero":
            self.height = [0] * n
            self.height[s] = n
            self.current = [0] * n
            self.height_count = height_count = [0] * (2 * n + 1)
            height_count[0] = n - 1
            height_count[n] += 1
        else:
            self._global_relabel()

    def save_excess(self) -> list[int] | None:
        """A copy of the excess list if it is exact for the current flow.

        The push–relabel half of Algorithm 6's StoreFlows: stored beside
        the flow snapshot, it lets the probe after a restore skip the
        net-inflow recomputation.  ``None`` when not known exact.
        """
        return self.excess[:] if self.excess_exact else None

    def restore_excess(self, saved: list[int] | None) -> None:
        """Adopt a :meth:`save_excess` copy taken with the restored flow.

        ``None`` (no exact copy was available) makes the next warm
        :meth:`initialize` recompute the excess from the flow.
        """
        if saved is None:
            self.excess_exact = False
        else:
            self.excess[:] = saved
            self.excess_exact = True

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Discharge until no active vertices remain; return flow value.

        Must be preceded by :meth:`initialize`.  On return the excess
        list is the exact net inflow of the flow at every vertex but the
        source, so the next warm :meth:`initialize` can reuse it.
        """
        g, s, t = self.g, self.s, self.t
        n = g.n
        head, cap, flow, adj = g.arrays()
        excess, height, current = self.excess, self.height, self.current
        queue, in_queue = self.queue, self.in_queue
        height_count = self.height_count
        gr_interval = self.global_relabel_interval
        relabels_since_gr = 0
        two_n = 2 * n
        pushes = self.pushes
        relabels = self.relabels

        for v in queue:
            in_queue[v] = 0
            if v == s or v == t:
                continue
            ev = excess[v]
            if ev <= 0:
                continue
            arcs = adj[v]
            deg = len(arcs)
            hv = height[v]
            i = current[v]
            while ev > 0:
                if i < deg:
                    a = arcs[i]
                    residual = cap[a] - flow[a]
                    if residual > 0:
                        w = head[a]
                        if hv == height[w] + 1:
                            delta = ev if ev < residual else residual
                            flow[a] += delta
                            flow[a ^ 1] -= delta
                            ev -= delta
                            excess[w] += delta
                            pushes += 1
                            if w != s and w != t and not in_queue[w]:
                                queue.append(w)
                                in_queue[w] = 1
                    i += 1
                else:
                    # relabel: lift v to 1 + min height over residual arcs
                    relabels += 1
                    relabels_since_gr += 1
                    old_h = hv
                    new_h = two_n
                    for a in arcs:
                        if cap[a] - flow[a] > 0:
                            hw = height[head[a]]
                            if hw + 1 < new_h:
                                new_h = hw + 1
                    if new_h >= two_n + 1:
                        new_h = two_n  # clamp; vertex is effectively stranded
                    height[v] = new_h
                    hv = new_h
                    height_count[old_h] -= 1
                    height_count[new_h] += 1
                    i = 0
                    # gap heuristic: old level emptied below n
                    if (
                        self.gap_heuristic
                        and 0 < old_h < n
                        and height_count[old_h] == 0
                    ):
                        self._apply_gap(old_h)
                        hv = height[v]
                    if gr_interval and relabels_since_gr >= gr_interval:
                        excess[v] = ev
                        current[v] = 0
                        self._global_relabel()
                        # the relabel installs fresh lists
                        height, current = self.height, self.current
                        height_count = self.height_count
                        relabels_since_gr = 0
                        # heights changed globally: requeue v and restart
                        if ev > 0 and not in_queue[v]:
                            queue.append(v)
                            in_queue[v] = 1
                        break
                    if new_h >= two_n:
                        # cannot route anywhere; drop remaining excess search
                        break
            else:
                excess[v] = ev
                current[v] = i
                continue
            # reached via break paths above
            excess[v] = ev
            current[v] = i if i < deg else 0
            if ev > 0 and height[v] < two_n and not in_queue[v]:
                queue.append(v)
                in_queue[v] = 1

        self.pushes = pushes
        self.relabels = relabels
        self.excess_exact = True
        return self.excess[t]

    # ------------------------------------------------------------------
    def _apply_gap(self, gap_h: int) -> None:
        """Lift every vertex with height in (gap_h, n) to n + 1."""
        g = self.g
        n = g.n
        self.gap_events += 1
        s, height, height_count = self.s, self.height, self.height_count
        for v, h in enumerate(height):
            if gap_h < h < n and v != s:
                height_count[h] -= 1
                height[v] = n + 1
                height_count[n + 1] += 1
                self.current[v] = 0

    def _global_relabel(self) -> None:
        """Exact-height computation: BFS distances in the residual graph.

        ``height[v] = dist(v, t)`` when the sink is residually reachable
        from ``v``; otherwise ``n + dist(v, s)``, which routes stranded
        excess back toward the source (phase 2).  Resets the current-arc
        pointers and counts the height histogram as the BFS assigns each
        height (docs/ALGORITHMS.md, "Cold-path bookkeeping").
        """
        g, s, t = self.g, self.s, self.t
        n = g.n
        cap, flow, tail = g.cap, g.flow, g.tails()
        twin_adj = g.twin_arc_lists()
        self.global_relabels += 1
        INF = 2 * n
        height = [INF] * n
        height_count = [0] * (INF + 1)

        # backward BFS from t: w is one step farther than v when its arc
        # b = w -> v (the twin of v's out-arc v -> w) has residual
        # capacity.  The queue is a list the loop iterates while
        # appending to it; a vertex gets its height, and is counted in
        # the histogram, when the BFS first reaches it.
        height[t] = 0
        height_count[0] = 1
        bfs = [t]
        for v in bfs:
            hv1 = height[v] + 1
            for b in twin_adj[v]:
                if cap[b] > flow[b]:
                    w = tail[b]
                    if height[w] == INF:
                        height[w] = hv1
                        height_count[hv1] += 1
                        bfs.append(w)

        hs = height[s]
        reached = len(bfs)
        if hs < INF:
            height_count[hs] -= 1
        else:
            reached += 1
        height[s] = n
        height_count[n] += 1
        # backward BFS from s over the vertices left at INF, needed only
        # when some vertex cannot reach t and s cannot reach t either
        # (if s could, so could every vertex that reaches s).  Its
        # distances are exact: a shortest residual path from a vertex
        # that cannot reach t never passes through one that can.
        if reached < n and hs == INF:
            bfs = [s]
            for v in bfs:
                hv1 = height[v] + 1
                for b in twin_adj[v]:
                    if cap[b] > flow[b]:
                        w = tail[b]
                        if height[w] == INF:
                            height[w] = hv1
                            height_count[hv1] += 1
                            bfs.append(w)
            reached += len(bfs) - 1
        # the vertices no BFS reached keep INF
        height_count[INF] += n - reached
        self.height = height
        self.height_count = height_count
        self.current = [0] * n
        if invariants.ENABLED:
            invariants.check_exact_heights(
                g, s, t, height, height_count, self.current,
                "PushRelabelState._global_relabel",
            )

    # ------------------------------------------------------------------
    def result(self) -> MaxFlowResult:
        """Package counters into a :class:`MaxFlowResult`."""
        return MaxFlowResult(
            value=self.excess[self.t],
            pushes=self.pushes,
            relabels=self.relabels,
            extra={
                "global_relabels": self.global_relabels,
                "gap_events": self.gap_events,
            },
        )


def push_relabel(
    g: FlowNetwork,
    s: int,
    t: int,
    *,
    warm_start: bool = False,
    initial_heights: str = "exact",
    global_relabel_interval: int | None = None,
    gap_heuristic: bool = True,
) -> MaxFlowResult:
    """One-shot FIFO push–relabel solve (the paper's Algorithm 4)."""
    state = PushRelabelState(
        g,
        s,
        t,
        initial_heights=initial_heights,
        global_relabel_interval=global_relabel_interval,
        gap_heuristic=gap_heuristic,
    )
    state.initialize(preserve_flow=warm_start)
    state.run()
    return state.result()


class PushRelabelEngine(MaxFlowEngine):
    """Registry wrapper around :func:`push_relabel`."""

    name = "push-relabel"

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

    def solve(
        self, g: FlowNetwork, s: int, t: int, *, warm_start: bool = False
    ) -> MaxFlowResult:
        return push_relabel(
            g,
            s,
            t,
            warm_start=warm_start,
            initial_heights=self.initial_heights,
            global_relabel_interval=self.global_relabel_interval,
            gap_heuristic=self.gap_heuristic,
        )
