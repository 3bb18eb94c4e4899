"""Runtime invariant sanitizer (``REPRO_CHECK_INVARIANTS=1``).

The paper's integrated algorithms are correct only while these unstated
invariants hold:

* **flow conservation** — the assignment inside a
  :class:`~repro.graph.FlowNetwork` stays a legal flow across
  StoreFlows/RestoreFlows and across warm starts (Equation 1);
* **capacity respect** — raising the disk→sink capacities
  ``floor((t - D_j - X_j) / C_j)`` never leaves an arc carrying more
  flow than its capacity (after :meth:`clamp_flow_to_sink_caps`);
* **certificate soundness** — a binary-scaling midpoint answered
  feasible without a probe must admit the greedy assignment that
  certified it: its per-disk counts fit ``capacities_at(t)``;
* **cut soundness** — a point answered infeasible from the stored
  flow's saturated cut must keep every recorded capacity, and an
  independent max flow at its capacities must equal the stored value;
* **probe monotonicity** — feasibility of a candidate deadline ``t`` is
  monotone: once some ``t`` probes feasible, no larger ``t`` may probe
  infeasible (the property binary scaling searches over);
* **exact heights** — the push–relabel engine's global relabel leaves
  every height at its residual BFS distance (to ``t``, else ``n`` +
  distance to ``s``), with a matching histogram and reset current-arc
  pointers.

This module turns them into machine-checked assertions.  The checks are
**off by default** and cost nothing on the default path: every hook site
tests the module-level :data:`ENABLED` flag (one attribute load) and the
flag is computed once, at import, from the ``REPRO_CHECK_INVARIANTS``
environment variable.  Set it to ``1`` (or anything not in ``{"", "0",
"false", "no", "off"}``) to run the whole test suite — or a production
canary — with the sanitizer armed.

Violations raise :class:`InvariantViolation`, a subclass of
:class:`~repro.errors.FlowValidationError`, so existing ``except``
clauses for flow corruption also catch sanitizer trips.
"""

from __future__ import annotations

import os

from repro.errors import FlowValidationError

__all__ = [
    "ENABLED",
    "InvariantViolation",
    "ProbeMonitor",
    "check_antisymmetry",
    "check_carried_excess",
    "check_certificate",
    "check_clamped_network",
    "check_exact_heights",
    "check_valid_flow",
    "enabled_from_env",
]

_FALSEY = frozenset({"", "0", "false", "no", "off"})


def enabled_from_env(environ: os._Environ | dict | None = None) -> bool:
    """Read the sanitizer switch from ``REPRO_CHECK_INVARIANTS``."""
    env = os.environ if environ is None else environ
    return str(env.get("REPRO_CHECK_INVARIANTS", "")).lower() not in _FALSEY


#: Evaluated once at import; hook sites guard on this attribute so the
#: disabled path does no assertion work.  Tests may flip it directly
#: (``monkeypatch.setattr(invariants, "ENABLED", True)``).
ENABLED: bool = enabled_from_env()


class InvariantViolation(FlowValidationError):
    """An armed sanitizer caught a broken algorithmic invariant."""


# ----------------------------------------------------------------------
# flow-level checks (FlowNetwork hooks)
# ----------------------------------------------------------------------
def check_antisymmetry(graph, context: str) -> None:
    """Every arc and its residual twin must carry opposite flow."""
    flow = graph.flow
    for a in range(0, len(flow), 2):
        if flow[a] + flow[a + 1] != 0:
            raise InvariantViolation(
                f"{context}: antisymmetry broken on arc {a} "
                f"(flow {flow[a]} + twin {flow[a + 1]} != 0)"
            )


def check_valid_flow(graph, source: int, sink: int, context: str) -> None:
    """Conservation + capacity respect for the current assignment."""
    from repro.graph.validation import assert_valid_flow

    try:
        assert_valid_flow(graph, source, sink)
    except FlowValidationError as exc:
        raise InvariantViolation(f"{context}: {exc}") from exc


def check_carried_excess(
    graph, source: int, excess: list[int], context: str
) -> None:
    """A warm probe's carried excess must be the flow's exact net inflow.

    The push–relabel probes reuse the excess list their previous run (or
    a StoreFlows snapshot) left behind instead of recomputing it; that is
    sound only while nothing rewrote the flow in between.  Compared at
    every vertex except ``source``, whose excess the engines zero.
    """
    flow, adj = graph.flow, graph.adj
    for v in range(graph.n):
        if v == source:
            continue
        inflow = -sum(flow[a] for a in adj[v])
        if excess[v] != inflow:
            raise InvariantViolation(
                f"{context}: carried excess {excess[v]} at vertex {v} != "
                f"net inflow {inflow} (flow changed behind the prober)"
            )


def check_exact_heights(
    graph,
    source: int,
    sink: int,
    height: list[int],
    height_count: list[int],
    current: list[int],
    context: str,
) -> None:
    """A global relabel must leave exact heights, histogram and pointers.

    Recomputes the reference the simple way: one full backward BFS from
    ``sink`` and one from ``source`` over the residual graph, then
    ``height[v] = dist(v, sink)`` if finite, else ``n + dist(v,
    source)`` capped at ``2n``, ``height[source] = n``, and a separate
    histogram pass.  Every current-arc pointer must be back at 0.
    O(n + m).
    """
    n = graph.n
    inf = 2 * n
    head, cap, flow, adj = graph.arrays()

    def dist_to(root: int) -> list[int]:
        dist = [inf] * n
        dist[root] = 0
        frontier = [root]
        for v in frontier:
            for a in adj[v]:
                # head[a] is one step from v when a's twin, the arc
                # head[a] -> v, has residual capacity
                w = head[a]
                if cap[a ^ 1] - flow[a ^ 1] > 0 and dist[w] == inf:
                    dist[w] = dist[v] + 1
                    frontier.append(w)
        return dist

    to_sink = dist_to(sink)
    to_source = dist_to(source)
    expected = [
        d if d < inf else min(n + to_source[v], inf)
        for v, d in enumerate(to_sink)
    ]
    expected[source] = n
    for v in range(n):
        if height[v] != expected[v]:
            raise InvariantViolation(
                f"{context}: vertex {v} has height {height[v]}, its exact "
                f"residual distance label is {expected[v]}"
            )
    counts = [0] * (inf + 1)
    for h in expected:
        counts[h] += 1
    if list(height_count) != counts:
        raise InvariantViolation(
            f"{context}: height histogram does not match the heights"
        )
    if any(current):
        raise InvariantViolation(
            f"{context}: current-arc pointers not reset by the global relabel"
        )


def check_certificate(system, counts: list[int], t: float, context: str) -> None:
    """A certified deadline must admit the certifying assignment.

    ``counts`` is the greedy's per-disk bucket count; every entry must
    fit the exact disk→sink capacity at ``t``.  O(N).
    """
    caps = system.capacities_at(t)
    for j, (k, cap) in enumerate(zip(counts, caps)):
        if k > cap:
            raise InvariantViolation(
                f"{context}: certified t={t} but disk {j} holds {k} "
                f"greedy buckets over capacity {cap}"
            )


def check_clamped_network(network, context: str) -> None:
    """After clamping, the warm flow must sit within every capacity."""
    g = network.graph
    for j, a in enumerate(network.sink_arcs):
        if g.flow[a] > g.cap[a]:
            raise InvariantViolation(
                f"{context}: disk {j} still overloaded after clamp "
                f"(flow {g.flow[a]} > cap {g.cap[a]})"
            )
    check_valid_flow(g, network.source, network.sink, context)


# ----------------------------------------------------------------------
# probe-level checks (core/scaling.py hook)
# ----------------------------------------------------------------------
class ProbeMonitor:
    """Per-solve monotonicity + flow-validity watcher for probes.

    One instance is created per ``binary_scaling_solve`` /
    ``incremental_solve`` invocation when the sanitizer is armed.  Each
    deadline-indexed probe (phases ``anchor`` and ``binary``, where the
    sink capacities are a pure function of the candidate ``t``) is
    recorded; a feasible probe below an infeasible one is a monotonicity
    violation.  Increment-phase probes are validity-checked only — their
    capacities are not parameterised by ``t``.  Certified midpoints
    (:meth:`after_certified`) count as feasible deadline observations,
    cut-certified points (:meth:`after_cut_certified`) as infeasible ones.
    """

    #: phases whose capacities encode the probed deadline
    DEADLINE_PHASES = frozenset({"anchor", "binary"})

    def __init__(self, network) -> None:
        self.network = network
        self.observations: list[tuple[float, bool, str]] = []
        self._max_infeasible_t = float("-inf")
        self._min_feasible_t = float("inf")

    def after_probe(self, t: float, feasible: bool, phase: str) -> None:
        self.observations.append((t, feasible, phase))
        net = self.network
        check_valid_flow(
            net.graph, net.source, net.sink,
            f"after {phase} probe at t={t}",
        )
        if phase in self.DEADLINE_PHASES:
            self._observe_deadline(t, feasible)

    def after_certified(self, t: float, counts: list[int]) -> None:
        """A midpoint answered feasible by the greedy certificate."""
        self.observations.append((t, True, "certified"))
        check_certificate(
            self.network.problem.system, counts, t,
            f"certified midpoint t={t}",
        )
        self._observe_deadline(t, True)

    def after_cut_certified(
        self, t: float, phase: str, arcs: list[int], caps: list[int],
        flow: int,
    ) -> None:
        """A ``phase`` point answered infeasible from the stored cut.

        The recorded sink arcs must still have their recorded
        capacities, and Dinic's max flow on a zeroed copy of the network
        must equal the stored value ``flow``.
        """
        from repro.maxflow.dinic import dinic

        self.observations.append((t, False, "cut_certified"))
        net = self.network
        g = net.graph
        context = f"cut-certified {phase} point t={t}"
        for a, c in zip(arcs, caps):
            if g.cap[a] != c:
                raise InvariantViolation(
                    f"{context}: recorded sink arc {a} had capacity {c}, "
                    f"now {g.cap[a]}"
                )
        copy = g.copy()
        value = dinic(copy, net.source, net.sink).value
        if value != flow:
            raise InvariantViolation(
                f"{context}: stored flow value {flow} but the max flow "
                f"at these capacities is {value}"
            )
        if phase in self.DEADLINE_PHASES:
            self._observe_deadline(t, False)

    def _observe_deadline(self, t: float, feasible: bool) -> None:
        if feasible:
            self._min_feasible_t = min(self._min_feasible_t, t)
        else:
            self._max_infeasible_t = max(self._max_infeasible_t, t)
        # exact: probes at the same float deadline compare equal, and
        # capacity_at is the exact inverse of finish_time, so any strict
        # inversion is a genuine monotonicity break
        if self._min_feasible_t < self._max_infeasible_t:
            raise InvariantViolation(
                "probe monotonicity broken: "
                f"t={self._min_feasible_t} probed feasible but "
                f"t={self._max_infeasible_t} probed infeasible "
                f"(observations: {self.observations})"
            )
