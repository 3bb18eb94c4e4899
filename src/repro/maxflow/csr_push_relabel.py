"""Push–relabel on the compiled CSR flat-array layout.

Same answers, different memory system — plus a selection rule the flat
layout makes cheap.  This engine ports :mod:`repro.maxflow.push_relabel`
(current-arc pointers, exact-height initialization, gap relabeling) onto
the frozen layout built by
:meth:`~repro.graph.flownetwork.FlowNetwork.compile`, with two vertex
selection rules:

* ``selection="fifo"`` (default) — an operation-for-operation port of
  the list-based FIFO engine.  Discharge order, relabel rule and gap
  heuristic match exactly, so the two produce **arc-identical flow
  assignments** (asserted arc-by-arc in the compile/round-trip property
  suite), which makes the list engine a differential oracle for the
  layout itself.
* ``selection="highest"`` — highest-label buckets: active vertices live
  in per-height stacks and the highest is discharged first.  It keeps
  the exact-height BFS initialization *and* the gap heuristic.  It does cut
  relabels ~11% on the generalized probe workload, but the per-push
  bucket bookkeeping costs more than the saved relabels on these
  shallow 4-layer networks (measured: ~10% slower than FIFO), so FIFO
  stays the default.  Flow values are identical (any max-flow is); the
  arc-level routing may differ.

Layout mechanics shared by both paths:

* adjacency is the CSR range ``adj[first[v] : first[v + 1]]``, walked
  with an *absolute* cursor (``current[v]`` stores a position in the
  flat array, not an offset), so the inner loop does one list index per
  arc;
* all per-vertex working state (excess/height/cursor buffers, height
  buckets, activity bitmap, height histogram, BFS scratch and the
  twin-arc mirrors the BFS walks) lives in
  :attr:`~repro.graph.csr.CompiledNetwork.kernel_scratch`, keyed by
  ``(source, sink)``, and is reused across probes — reset by
  whole-buffer slice writes from precomputed templates instead of
  reallocated;
* the exact-height BFS folds the height-histogram rebuild into the
  distance sweep, and the ``O(n + m)`` excess recomputation is skipped
  on cold (``preserve_flow=False``) starts, where the flow buffer is
  known-zero, and on warm starts whose excess is carried exact from
  the last run or a prober restore (docs/ALGORITHMS.md, "Warm-probe
  cost").

Flows and capacities stay in the builder's plain lists (the single
source of truth the scaling skeleton's StoreFlows/RestoreFlows
discipline mutates); the compiled network contributes the frozen
topology and the amortized scratch.  Scalar element access is why: list
indexing beats ``array('q')`` boxing ~1.6x in CPython (measured; see
docs/ALGORITHMS.md "Memory layout"), so the kernel binds the compiled
topology's cached list mirrors and the builder's value lists.
"""

from __future__ import annotations

from itertools import compress

from repro import invariants
from repro.graph.flownetwork import FlowNetwork
from repro.maxflow.base import MaxFlowEngine, MaxFlowResult

__all__ = ["CsrPushRelabelState", "csr_push_relabel", "CsrPushRelabelEngine"]


class CsrPushRelabelState:
    """Re-entrant CSR push–relabel bound to one compiled network.

    Construction compiles (or reuses the memoized compile of) the
    builder ``g`` and adopts the scratch buffers earlier states for the
    same ``(source, sink)`` left behind.  ``initial_heights``,
    ``global_relabel_interval`` and ``gap_heuristic`` mirror
    :class:`~repro.maxflow.push_relabel.PushRelabelState`;
    ``selection`` picks the vertex order (see module docstring).
    """

    def __init__(
        self,
        g: FlowNetwork,
        s: int,
        t: int,
        *,
        selection: str = "fifo",
        initial_heights: str = "exact",
        global_relabel_interval: int | None = None,
        gap_heuristic: bool = True,
    ) -> None:
        if s == t:
            raise ValueError("source and sink must differ")
        if selection not in ("fifo", "highest"):
            raise ValueError(
                f"selection must be 'fifo' or 'highest', got {selection!r}"
            )
        if initial_heights not in ("exact", "zero"):
            raise ValueError(
                f"initial_heights must be 'exact' or 'zero', "
                f"got {initial_heights!r}"
            )
        self.g = g
        self.s = s
        self.t = t
        self.selection = selection
        self.initial_heights = initial_heights
        n = g.n
        if global_relabel_interval is None:
            global_relabel_interval = (
                0 if initial_heights == "exact" else max(n, 16)
            )
        self.global_relabel_interval = global_relabel_interval
        self.gap_heuristic = gap_heuristic

        c = g.compiled()
        self.c = c
        scratch = c.kernel_scratch.get((s, t))
        if scratch is None or scratch["n"] != n:
            first = c.first_list
            adjf = c.adj_list
            head = c.head_list
            two_n = 2 * n
            scratch = {
                "n": n,
                "excess": [0] * n,
                "height": [0] * n,
                "current": [0] * n,
                "in_queue": bytearray(n),
                "height_count": [0] * (two_n + 1),
                "dist": [0] * n,
                "zeros_n": [0] * n,
                "zeros_hc": [0] * (two_n + 1),
                "inf_n": [two_n] * n,
                # per-vertex CSR base positions: the current-arc reset
                "cursor0": first[:n],
                # forward source arcs with their heads, in adjacency order
                "src_arcs": [
                    (a, head[a])
                    for a in adjf[first[s] : first[s + 1]]
                    if not a & 1
                ],
                # the only vertices a cold start can activate, ascending
                # (so the seed order matches the full-vertex scan)
                "src_heads": sorted(
                    {
                        head[a]
                        for a in adjf[first[s] : first[s + 1]]
                        if not a & 1
                    }
                ),
                "zeros_m": [0] * len(adjf),
                # BFS mirrors: the arc into v paired with each CSR slot's
                # out-arc, and every arc's tail
                "twin_adj": [a ^ 1 for a in adjf],
                "tail": c.tail.tolist(),
                # height buckets for highest-label selection
                "buckets": [[] for _ in range(two_n + 1)],
            }
            c.kernel_scratch[(s, t)] = scratch
        self._scratch = scratch
        self.excess: list[int] = scratch["excess"]
        self.height: list[int] = scratch["height"]
        self.current: list[int] = scratch["current"]
        self.in_queue: bytearray = scratch["in_queue"]
        self.height_count: list[int] = scratch["height_count"]
        #: FIFO of active vertices: run() iterates the list while
        #: appending to it, so nothing is ever popped
        self.queue: list[int] = []
        #: True while ``excess`` is the exact net inflow of the current
        #: flow at every vertex but ``s``.  Kept on this state, never in
        #: the shared scratch: between solves the flow is rewritten
        #: (cache rebinds and restores, clamps) by code that does not
        #: know about it.
        self.excess_exact = False

        # operation counters (reported in MaxFlowResult.extra)
        self.pushes = 0
        self.relabels = 0
        self.global_relabels = 0
        self.gap_events = 0

    # ------------------------------------------------------------------
    def initialize(self, *, preserve_flow: bool = True) -> None:
        """(Re)start the solver; see ``PushRelabelState.initialize``.

        Cold starts (``preserve_flow=False``) skip the net-inflow excess
        recomputation: the flow buffer is all-zero after ``reset_flow``,
        so every excess is zero until the source arcs are saturated.
        Warm starts skip it too while :attr:`excess_exact` holds.
        """
        g, s, t = self.g, self.s, self.t
        n = g.n
        cap, flow = g.cap, g.flow
        scratch = self._scratch
        first = self.c.first_list
        adjf = self.c.adj_list
        zeros_n = scratch["zeros_n"]

        self.queue = []
        in_queue = self.in_queue
        in_queue[:] = bytes(n)

        excess = self.excess
        carried = preserve_flow and self.excess_exact
        self.excess_exact = False
        if preserve_flow:
            # Cancel preserved flow on arcs INTO the source (see the
            # list engine for why this is required for correctness).
            for b in adjf[first[s] : first[s + 1]]:
                if b & 1 and flow[b ^ 1] > 0:
                    flow[b ^ 1] = 0
                    flow[b] = 0
                    carried = False
            if carried:
                # the excess this state's last run (or a restore) left
                # is already the exact net inflow: no O(n + m) pass
                if invariants.ENABLED:
                    invariants.check_carried_excess(
                        g, s, excess, "CsrPushRelabelState.initialize"
                    )
            else:
                # Exact excesses from the preserved assignment.
                pos = first[0]
                for v in range(n):
                    end = first[v + 1]
                    ev = 0
                    for k in range(pos, end):
                        ev -= flow[adjf[k]]
                    excess[v] = ev
                    pos = end
        else:
            # known-zero reset from the scratch template: one C-level
            # slice write, no per-solve [0] * m allocation
            flow[:] = scratch["zeros_m"]
            excess[:] = zeros_n

        # Saturate source arcs that still have slack, conserving flow.
        for a, v in scratch["src_arcs"]:
            fa = flow[a]
            if fa > cap[a]:
                raise ValueError(
                    "flow exceeds capacity on a source arc; restore a "
                    "compatible flow before re-initializing (see DESIGN.md)"
                )
            delta = cap[a] - fa
            if delta > 0:
                flow[a] = fa + delta
                flow[a ^ 1] -= delta
                excess[v] += delta

        excess[s] = 0
        queue = self.queue
        if preserve_flow:
            # the active vertices in vertex order: compress skips the
            # zero excesses at C speed, so Python only visits the rest
            queue += [
                v for v in compress(range(n), excess)
                if excess[v] > 0 and v != t
            ]
            for v in queue:
                in_queue[v] = 1
        else:
            # cold start: only source-arc heads can hold excess, and the
            # precomputed ascending seed order equals the full scan's
            for v in scratch["src_heads"]:
                if v != t and excess[v] > 0:
                    queue.append(v)
                    in_queue[v] = 1

        height = self.height
        height_count = self.height_count
        if self.initial_heights == "zero":
            height[:] = zeros_n
            height[s] = n
            self.current[:] = scratch["cursor0"]
            height_count[:] = scratch["zeros_hc"]
            height_count[0] = n - 1
            height_count[n] += 1
        else:
            self._global_relabel()

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Discharge until no active vertices remain; return flow value.

        Must be preceded by :meth:`initialize`.
        """
        if self.selection == "highest":
            value = self._run_highest()
        else:
            value = self._run_fifo()
        self.excess_exact = True
        return value

    def save_excess(self) -> list[int] | None:
        """See :meth:`PushRelabelState.save_excess` (one slice copy)."""
        return self.excess[:] if self.excess_exact else None

    def restore_excess(self, saved: list[int] | None) -> None:
        """See :meth:`PushRelabelState.restore_excess`."""
        if saved is None:
            self.excess_exact = False
        else:
            self.excess[:] = saved
            self.excess_exact = True

    # ------------------------------------------------------------------
    def _run_fifo(self) -> int:
        """FIFO discharge — operation-for-operation the list engine."""
        g, s, t = self.g, self.s, self.t
        c = self.c
        n = g.n
        cap, flow = g.cap, g.flow
        head = c.head_list
        first = c.first_list
        adjf = c.adj_list
        excess, height, current = self.excess, self.height, self.current
        queue, in_queue = self.queue, self.in_queue
        height_count = self.height_count
        gr_interval = self.global_relabel_interval
        gap_on = self.gap_heuristic
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
            i0 = first[v]
            i1 = first[v + 1]
            hv = height[v]
            i = current[v]
            while ev > 0:
                if i < i1:
                    a = adjf[i]
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
                    for k in range(i0, i1):
                        a = adjf[k]
                        if cap[a] - flow[a] > 0:
                            hw = height[head[a]]
                            if hw + 1 < new_h:
                                new_h = hw + 1
                    if new_h >= two_n + 1:
                        new_h = two_n  # clamp; vertex effectively stranded
                    height[v] = new_h
                    hv = new_h
                    height_count[old_h] -= 1
                    height_count[new_h] += 1
                    i = i0
                    # gap heuristic: old level emptied below n
                    if gap_on and 0 < old_h < n and height_count[old_h] == 0:
                        self._apply_gap(old_h)
                        hv = height[v]
                    if gr_interval and relabels_since_gr >= gr_interval:
                        excess[v] = ev
                        current[v] = i0
                        self._global_relabel()
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
            current[v] = i if i < i1 else i0
            if ev > 0 and height[v] < two_n and not in_queue[v]:
                queue.append(v)
                in_queue[v] = 1

        self.pushes = pushes
        self.relabels = relabels
        return self.excess[t]

    # ------------------------------------------------------------------
    def _run_highest(self) -> int:
        """Highest-label discharge over per-height bucket stacks.

        The FIFO seed queue from :meth:`initialize` is scattered into
        the buckets first; ``in_queue`` doubles as the in-bucket bitmap.
        A vertex popped with a stale height (moved by a gap lift) is
        re-bucketed instead of discharged.
        """
        g, s, t = self.g, self.s, self.t
        c = self.c
        n = g.n
        cap, flow = g.cap, g.flow
        head = c.head_list
        first = c.first_list
        adjf = c.adj_list
        excess, height, current = self.excess, self.height, self.current
        in_queue = self.in_queue
        height_count = self.height_count
        gap_on = self.gap_heuristic
        two_n = 2 * n
        pushes = self.pushes
        relabels = self.relabels

        buckets = self._scratch["buckets"]
        for b in buckets:
            if b:
                del b[:]
        hmax = 0
        queue = self.queue
        for v in queue:
            if in_queue[v]:
                h = height[v]
                if h < two_n:
                    buckets[h].append(v)
                    if h > hmax:
                        hmax = h
                else:
                    in_queue[v] = 0
        del queue[:]

        while hmax >= 0:
            bucket = buckets[hmax]
            if not bucket:
                hmax -= 1
                continue
            v = bucket.pop()
            hv = height[v]
            if hv != hmax:  # stale after a gap lift; re-bucket
                if hv < two_n:
                    buckets[hv].append(v)
                    if hv > hmax:
                        hmax = hv
                else:
                    in_queue[v] = 0
                continue
            in_queue[v] = 0
            ev = excess[v]
            if ev <= 0:
                continue
            i0 = first[v]
            i1 = first[v + 1]
            i = current[v]
            while ev > 0:
                if i < i1:
                    a = adjf[i]
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
                                hw = height[w]
                                buckets[hw].append(w)
                                in_queue[w] = 1
                                if hw > hmax:
                                    hmax = hw
                    i += 1
                else:
                    # relabel: lift v to 1 + min height over residual arcs
                    relabels += 1
                    old_h = hv
                    new_h = two_n
                    for k in range(i0, i1):
                        a = adjf[k]
                        if cap[a] - flow[a] > 0:
                            hw = height[head[a]]
                            if hw + 1 < new_h:
                                new_h = hw + 1
                    if new_h > two_n:
                        new_h = two_n  # clamp; vertex effectively stranded
                    height[v] = new_h
                    hv = new_h
                    height_count[old_h] -= 1
                    height_count[new_h] += 1
                    i = i0
                    # gap heuristic: old level emptied below n
                    if gap_on and 0 < old_h < n and height_count[old_h] == 0:
                        self._apply_gap(old_h)
                        hv = height[v]
                    if hv >= two_n:
                        # cannot route anywhere; park remaining excess
                        break
            excess[v] = ev
            current[v] = i if i < i1 else i0
            if ev > 0 and hv < two_n:
                buckets[hv].append(v)
                in_queue[v] = 1
                if hv > hmax:
                    hmax = hv

        self.pushes = pushes
        self.relabels = relabels
        return self.excess[t]

    # ------------------------------------------------------------------
    def _apply_gap(self, gap_h: int) -> None:
        """Lift every vertex with height in (gap_h, n) to n + 1.

        Bucketed (highest-label) vertices are left in place: the run
        loop detects the stale height at pop time and re-buckets.
        """
        n = self.g.n
        s = self.s
        self.gap_events += 1
        height, height_count = self.height, self.height_count
        current, cursor0 = self.current, self._scratch["cursor0"]
        lifted = n + 1
        for v in range(n):
            if v == s:
                continue
            h = height[v]
            if gap_h < h < n:
                height_count[h] -= 1
                height[v] = lifted
                height_count[lifted] += 1
                current[v] = cursor0[v]

    # ------------------------------------------------------------------
    def _global_relabel(self) -> None:
        """Exact heights (BFS residual distances), histogram fused in.

        Identical distance semantics to the list engine's
        ``_global_relabel``; the height histogram and current-arc reset
        ride along so no separate histogram pass runs.
        """
        g, s, t = self.g, self.s, self.t
        c = self.c
        n = g.n
        cap, flow = g.cap, g.flow
        first = c.first_list
        scratch = self._scratch
        twin_adj, tail = scratch["twin_adj"], scratch["tail"]
        self.global_relabels += 1
        INF = 2 * n
        height = self.height
        height[:] = scratch["inf_n"]

        # backward BFS from t over residual twins: w is one step farther
        # than v when its arc b = w -> v has residual capacity; the queue
        # is a list the loop iterates while appending to it
        height[t] = 0
        bfs = [t]
        for v in bfs:
            hv1 = height[v] + 1
            for b in twin_adj[first[v] : first[v + 1]]:
                if cap[b] > flow[b]:
                    w = tail[b]
                    if height[w] > hv1:
                        height[w] = hv1
                        bfs.append(w)

        # backward BFS from s only when some non-source vertex cannot
        # reach t; the count of sink-reached vertices makes the test O(1)
        s_reached = height[s] < INF
        height[s] = n
        if len(bfs) - s_reached < n - 1:
            dist_s = scratch["dist"]
            dist_s[:] = scratch["inf_n"]
            dist_s[s] = 0
            bfs = [s]
            for v in bfs:
                dv1 = dist_s[v] + 1
                for b in twin_adj[first[v] : first[v + 1]]:
                    if cap[b] > flow[b]:
                        w = tail[b]
                        if dist_s[w] > dv1:
                            dist_s[w] = dv1
                            bfs.append(w)
            for v in range(n):
                if v != s and height[v] >= INF:
                    hs = n + dist_s[v]
                    height[v] = hs if hs < INF else INF

        self.current[:] = scratch["cursor0"]
        height_count = self.height_count
        height_count[:] = scratch["zeros_hc"]
        for h in height:
            height_count[h if h < INF else INF] += 1

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


def csr_push_relabel(
    g: FlowNetwork,
    s: int,
    t: int,
    *,
    warm_start: bool = False,
    selection: str = "fifo",
    initial_heights: str = "exact",
    global_relabel_interval: int | None = None,
    gap_heuristic: bool = True,
) -> MaxFlowResult:
    """One-shot push–relabel solve on the compiled CSR layout.

    The state object itself is memoized in the compiled network's
    scratch (keyed by endpoints and options), so a probe loop that calls
    the one-shot engine repeatedly — the black-box scheduler's exact
    shape — pays construction once and ``initialize`` + ``run`` per
    solve.  Counters are reset per call so the returned
    :class:`MaxFlowResult` reports this solve only.
    """
    key = (
        "state", s, t, selection, initial_heights,
        global_relabel_interval, gap_heuristic,
    )
    scratch = g.compiled().kernel_scratch
    state = scratch.get(key)
    if state is None or state.g is not g:
        state = CsrPushRelabelState(
            g,
            s,
            t,
            selection=selection,
            initial_heights=initial_heights,
            global_relabel_interval=global_relabel_interval,
            gap_heuristic=gap_heuristic,
        )
        scratch[key] = state
    state.pushes = 0
    state.relabels = 0
    state.global_relabels = 0
    state.gap_events = 0
    # the caller may have rewritten the flow since the memoized state's
    # last run: a warm start here accepts any preflow, so recompute
    state.excess_exact = False
    state.initialize(preserve_flow=warm_start)
    state.run()
    return state.result()


class CsrPushRelabelEngine(MaxFlowEngine):
    """Registry wrapper around :func:`csr_push_relabel`."""

    name = "csr-push-relabel"

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
        self, g: FlowNetwork, s: int, t: int, *, warm_start: bool = False
    ) -> MaxFlowResult:
        return csr_push_relabel(
            g,
            s,
            t,
            warm_start=warm_start,
            selection=self.selection,
            initial_heights=self.initial_heights,
            global_relabel_interval=self.global_relabel_interval,
            gap_heuristic=self.gap_heuristic,
        )
