"""Flow-network representation of a retrieval problem (Figures 3 and 4).

Vertex layout: ``0 = source``, ``1 = sink``, ``2 .. 2+|Q|-1`` bucket
vertices, ``2+|Q| .. 2+|Q|+N-1`` disk vertices.  Arcs:

* source → bucket, capacity 1 (one retrieval per requested bucket);
* bucket → disk, capacity 1, one arc per *distinct* replica location;
* disk → sink — the capacity-scaled edge set the paper calls ``E``.

The disk→sink capacities encode a candidate response time ``t``: disk
``j`` may serve ``floor((t - D_j - X_j) / C_j)`` buckets by ``t``
(Algorithm 6 line 15).  Integrated solvers mutate these capacities *in
place* while conserving flow; black-box solvers additionally call
:meth:`~repro.graph.FlowNetwork.reset_flow` before each probe.
"""

from __future__ import annotations

from repro import invariants
from repro.core.problem import RetrievalProblem
from repro.errors import InfeasibleScheduleError, InvalidArcError
from repro.graph.flownetwork import FlowNetwork

__all__ = ["RetrievalNetwork"]


class RetrievalNetwork:
    """The mutable max-flow instance for one :class:`RetrievalProblem`."""

    def __init__(self, problem: RetrievalProblem) -> None:
        self.problem = problem
        Q = problem.num_buckets
        N = problem.num_disks
        g = FlowNetwork(2 + Q + N)
        self.graph = g
        self.source = 0
        self.sink = 1

        # One bulk append, arcs in the order (and so with the ids) of
        # per-arc construction: per bucket its source arc then its
        # deduplicated replica arcs in disk order, then every disk's
        # sink arc.  The paper's two-copy buckets skip set/sorted.
        dbase = 2 + Q
        tails: list[int] = []
        heads: list[int] = []
        for bv, reps in enumerate(problem.replicas, 2):
            if len(reps) == 2 and reps[0] != reps[1]:
                d0, d1 = reps
                if d1 < d0:
                    d0, d1 = d1, d0
                tails += (0, bv, bv)
                heads += (bv, dbase + d0, dbase + d1)
            else:
                disks = sorted(set(reps))
                tails.append(0)
                heads.append(bv)
                tails.extend([bv] * len(disks))
                heads.extend([dbase + d for d in disks])
        base = 2 * len(tails)
        tails.extend(range(dbase, dbase + N))
        heads.extend([1] * N)
        g.add_arcs(tails, heads, [1] * (len(tails) - N) + [0] * N)

        # read the arc ids back so these lists share the graph's int objects
        fwd = g.forward_arc_lists()
        #: source→bucket arc ids, indexed by bucket
        self.source_arcs: list[int] = list(fwd[0])
        #: bucket→disk arc ids per bucket (deduplicated replicas)
        self.replica_arcs: list[list[int]] = list(map(list, fwd[2:dbase]))
        #: disk→sink arc ids, indexed by disk
        self.sink_arcs: list[int] = [arcs[0] for arcs in fwd[dbase:]]
        # The disk→sink arcs are appended last, so their forward slots
        # form the arithmetic run base, base+2, ... (twins at the odd
        # slots); the per-probe rescale writes all N capacities through
        # this strided slice in one extended-slice assignment.
        self._sink_cap_slice = slice(base, base + 2 * N, 2)

        # Per-disk replica multiplicity (Algorithm 3's ``in_degree``):
        # the only original arcs entering a disk vertex are the
        # deduplicated bucket→disk replica arcs.  The topology is frozen
        # from here on (rebind checks the signature), so count once.
        self._disk_in_degree = [g.in_degree(v) for v in range(dbase, dbase + N)]

    @property
    def disk_in_degree(self) -> list[int]:
        """Per-disk replica multiplicity within this query (Algorithm 3's
        ``in_degree``).

        Counted once at construction — the topology never changes after
        it — and shared: treat the returned list as read-only.
        """
        return self._disk_in_degree

    # ------------------------------------------------------------------
    # vertex arithmetic
    # ------------------------------------------------------------------
    def bucket_vertex(self, i: int) -> int:
        return 2 + i

    def disk_vertex(self, j: int) -> int:
        return 2 + self.problem.num_buckets + j

    def disk_of_vertex(self, v: int) -> int:
        return v - 2 - self.problem.num_buckets

    # ------------------------------------------------------------------
    # topology reuse (warm starts across queries)
    # ------------------------------------------------------------------
    def signature(self) -> tuple[tuple[int, ...], ...]:
        """The replica-set signature this topology was built from.

        Two problems with equal signatures (and the same system) produce
        byte-identical networks, so a network built for one can serve the
        other after :meth:`rebind` — the basis of the service-layer
        warm-start cache.
        """
        return self.problem.replicas

    def rebind(self, problem: RetrievalProblem) -> None:
        """Point this network at another problem with the same topology.

        Only the ``problem`` reference changes; arcs, capacities and flow
        are left untouched (callers decide whether the stale flow is
        worth keeping — see :meth:`clamp_flow_to_sink_caps`).  Raises if
        the replica signature differs.
        """
        if problem.replicas != self.problem.replicas:
            raise InfeasibleScheduleError(
                "cannot rebind: replica signatures differ"
            )
        if problem.num_disks != self.problem.num_disks:
            raise InfeasibleScheduleError(
                f"cannot rebind: {problem.num_disks} disks vs "
                f"{self.problem.num_disks}"
            )
        self.problem = problem

    def clamp_flow_to_sink_caps(self) -> int:
        """Cancel bucket routings on disks whose flow exceeds capacity.

        A flow carried over from an earlier solve (same topology,
        different loads) is conserving but may violate the *current*
        disk→sink capacities.  For every overloaded disk the excess
        bucket units are unrouted in full — disk→sink, bucket→disk and
        source→bucket arcs together — leaving a valid flow within
        capacities that keeps every still-affordable routing.  Returns
        the number of bucket units cancelled.
        """
        g = self.graph
        over: dict[int, int] = {}
        for j, a in enumerate(self.sink_arcs):
            excess = g.flow[a] - g.cap[a]
            if excess > 0:
                over[self.disk_vertex(j)] = excess
                g.flow[a] -= excess
                g.flow[a ^ 1] += excess
        if not over:
            if invariants.ENABLED:
                invariants.check_clamped_network(self, "clamp_flow_to_sink_caps")
            return 0
        cancelled = 0
        for i, arcs in enumerate(self.replica_arcs):
            if not over:
                break
            for a in arcs:
                if g.flow[a] > 0:
                    need = over.get(g.head[a], 0)
                    if need:
                        g.flow[a] -= 1
                        g.flow[a ^ 1] += 1
                        sa = self.source_arcs[i]
                        g.flow[sa] -= 1
                        g.flow[sa ^ 1] += 1
                        cancelled += 1
                        if need == 1:
                            del over[g.head[a]]
                        else:
                            over[g.head[a]] = need - 1
                    break  # a bucket carries at most one unit
        if invariants.ENABLED:
            invariants.check_clamped_network(self, "clamp_flow_to_sink_caps")
        return cancelled

    # ------------------------------------------------------------------
    # capacity management
    # ------------------------------------------------------------------
    def sink_caps(self) -> list[int]:
        """Current disk→sink capacities (exact ints by construction)."""
        return [self.graph.cap[a] for a in self.sink_arcs]

    def set_sink_caps(self, caps: list[int]) -> None:
        """Set the disk→sink capacities to ``caps`` (one per disk), the
        inverse of :meth:`sink_caps`: a warm-start cache entry that kept
        only a flow snapshot writes its capacities back into a rebuilt
        network with this."""
        if len(caps) != len(self.sink_arcs):
            raise InvalidArcError(
                f"{len(caps)} sink capacities for {len(self.sink_arcs)} disks"
            )
        self.graph.cap[self._sink_cap_slice] = caps

    def set_uniform_sink_caps(self, cap: int) -> None:
        """Set every disk→sink capacity to ``cap`` (basic problem)."""
        self.graph.cap[self._sink_cap_slice] = [cap] * len(self.sink_arcs)

    def set_deadline_capacities(
        self,
        deadline_ms: float,
        terms: list[tuple[float, float, float, float]] | None = None,
    ) -> None:
        """Capacities for candidate response time ``deadline_ms``
        (Algorithm 6 lines 14-15).

        ``capacities_at`` is the single float→int boundary of the stack:
        it maps the float deadline to exact integer bucket counts, and
        the whole vector lands in one strided slice assignment (the
        disk→sink forward slots are an arithmetic run by construction)
        instead of a per-disk Python loop — this runs inside *every*
        feasibility probe of the scaling skeleton, which passes the
        per-solve :meth:`~repro.storage.StorageSystem.rescale_terms`
        snapshot as ``terms``."""
        caps = self.problem.system.capacities_at(deadline_ms, terms)
        self.graph.cap[self._sink_cap_slice] = caps

    def increment_all_sink_caps(self) -> None:
        """Raise every disk→sink capacity by one (Algorithm 1 lines 6-7)."""
        for a in self.sink_arcs:
            self.graph.cap[a] += 1

    def increment_sink_cap(self, j: int) -> None:
        """Raise disk ``j``'s disk→sink capacity by one (Algorithm 3)."""
        self.graph.cap[self.sink_arcs[j]] += 1

    # ------------------------------------------------------------------
    # flow management
    # ------------------------------------------------------------------
    def saturate_source_arcs(self) -> None:
        """Saturate every source→bucket arc.

        The integrated solvers' stated precondition: each requested
        bucket demands exactly one unit of retrieval, pushed onto the
        source→bucket arcs up front and then routed bucket-by-bucket.
        """
        g = self.graph
        for a in self.source_arcs:
            g.flow[a] = 1
            g.flow[a ^ 1] = -1

    # ------------------------------------------------------------------
    # flow inspection
    # ------------------------------------------------------------------
    def flow_value(self) -> int:
        """Net flow into the sink."""
        g = self.graph
        return -sum(g.flow[a] for a in g.adj[self.sink])

    def counts_per_disk(self) -> list[int]:
        """Buckets currently routed through each disk (exact ints)."""
        g = self.graph
        return [g.flow[a] for a in self.sink_arcs]

    def assignment(self) -> dict[int, int]:
        """Extract bucket → disk from the current (integral) flow.

        Raises if the flow is not a complete retrieval (value < |Q|).
        """
        g = self.graph
        head, flow = g.head, g.flow
        dbase = 2 + self.problem.num_buckets
        out: dict[int, int] = {}
        for i, arcs in enumerate(self.replica_arcs):
            for a in arcs:
                if flow[a] > 0:
                    out[i] = head[a] - dbase
                    break
            else:
                raise InfeasibleScheduleError(
                    f"bucket {i} unrouted: flow value "
                    f"{self.flow_value()} < |Q| = {self.problem.num_buckets}"
                )
        return out

    def response_time(self) -> float:
        """``max_j (D_j + X_j + k_j C_j)`` of the current complete flow."""
        sys_ = self.problem.system
        worst = 0.0
        for j, k in enumerate(self.counts_per_disk()):
            if k > 0:
                worst = max(worst, sys_.finish_time(j, k))
        return worst
