"""A mutable directed flow network with paired residual arcs.

Design
------
The structure follows the classic competitive-programming / LEDA layout that
every serious max-flow implementation converges on:

* Arcs are stored in parallel Python lists (``head``, ``cap``, ``flow``).
  Arc ``a`` and arc ``a ^ 1`` are *twins*: the twin of a forward arc is its
  residual (reverse) arc.  Pushing ``delta`` units over arc ``a`` is::

      flow[a]     += delta
      flow[a ^ 1] -= delta

  and the residual capacity of any arc is ``cap[a] - flow[a]``.

* ``adj[v]`` lists the arc ids leaving vertex ``v`` (forward *and* residual
  arcs alike — a residual arc leaves the head of its twin).  Engines iterate
  ``adj[v]`` and skip arcs with zero residual capacity.

Plain Python lists are the *construction* representation, and they are
still what the scalar hot loops index: list reads beat both NumPy
fancy-indexing and ``array('q')`` element access in CPython (~1.6x for
the latter — every array read boxes a fresh int; see the HPC guide's
"profile, don't guess" rule — we did, in
``benchmarks/bench_ablation_engines.py``).  The crossover is
*whole-buffer* work: save/restore/reset snapshots, codec payloads and
the per-probe sink-capacity sweep are slice-shaped, and there flat
int64 buffers win by an order of magnitude.  :meth:`FlowNetwork.compile`
freezes a finished topology into that form — a
:class:`~repro.graph.csr.CompiledNetwork` of parallel ``array('q')``
buffers with CSR arc ranges — which the ``csr-push-relabel`` engine,
the service cache and the fleet codec all share.  Bulk operations that
stay on the builder (capacity re-scaling of the disk→sink arcs in
:mod:`repro.core.network`) use extended-slice assignment on the lists
exported by :meth:`FlowNetwork.arrays`, which is likewise C-speed.

Capacities and flows are **Python ints, exactly** — the integer kernel
contract (see ``docs/ALGORITHMS.md``).  The paper's networks are purely
integral (unit source→bucket and bucket→disk arcs; disk→sink capacities
``floor((t - D_j - X_j) / C_j)``), so nothing is lost, and every layer
above gains exact comparisons: no epsilon tolerances, no ``round()``
repair, and no boundary-feasibility flips when a probe deadline lands
exactly on a disk finish time.  Small-int compares and adds are also
faster than float boxing in the scalar hot loops.  Constructors accept
integral floats (``1.0``) for compatibility and reject fractional values
loudly; the ``float-flow`` lint rule keeps float arithmetic from creeping
back into any ``flow``/``cap`` slot under ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro import invariants
from repro.errors import InvalidArcError, InvalidVertexError

__all__ = ["Arc", "FlowNetwork"]


def _exact_int(value: object, what: str) -> int:
    """Coerce ``value`` to an int, rejecting anything non-integral.

    Accepts ints and integral floats (legacy callers wrote ``1.0``);
    raises :class:`InvalidArcError` for fractional, non-finite or
    non-numeric values.  This is the only tolerance-free gate through
    which a capacity or flow may enter the kernel.
    """
    if type(value) is int:
        return value
    try:
        as_int = int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArcError(f"{what} must be an integer, got {value!r}") from exc
    if as_int != value or isinstance(value, bool):
        raise InvalidArcError(f"{what} must be integral, got {value!r}")
    return as_int


@dataclass(frozen=True)
class Arc:
    """An immutable snapshot of one arc, for inspection and debugging.

    Engines never build these in hot loops; they exist so tests, examples
    and reporting code can talk about arcs without poking parallel lists.
    """

    index: int
    tail: int
    head: int
    cap: int
    flow: int

    @property
    def residual(self) -> int:
        """Remaining capacity ``cap - flow`` of this arc."""
        return self.cap - self.flow

    @property
    def is_reverse(self) -> bool:
        """True if this is the residual twin of an original arc."""
        return self.index % 2 == 1


class FlowNetwork:
    """Directed graph with paired arcs, integer capacities and flows.

    Parameters
    ----------
    n:
        Number of vertices, ids ``0 .. n-1``.  More can be added later with
        :meth:`add_vertex`.

    Notes
    -----
    Adding the arc ``(u, v, cap)`` creates *two* entries: the forward arc at
    an even index and its residual twin ``(v, u, 0)`` at the following odd
    index.  :meth:`add_arc` returns the forward arc id.
    """

    __slots__ = (
        "n", "head", "cap", "flow", "adj", "_tail", "_in_deg", "_fwd",
        "_compiled", "_twin",
    )

    def __init__(self, n: int = 0) -> None:
        if n < 0:
            raise InvalidVertexError(f"vertex count must be >= 0, got {n}")
        self.n: int = n
        self.head: list[int] = []
        self.cap: list[int] = []
        self.flow: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self._tail: list[int] = []
        #: per-vertex count of original arcs entering the vertex,
        #: maintained by add_arc so in_degree() is O(1)
        self._in_deg: list[int] = [0] * n
        #: per-vertex forward (even) arc ids, maintained by add_arc so
        #: forward_out_arcs() is allocation-free
        self._fwd: list[list[int]] = [[] for _ in range(n)]
        #: memoized CompiledNetwork; invalidated by topology mutation
        self._compiled = None
        #: memoized twin_arc_lists(); invalidated by topology mutation
        self._twin: list[list[int]] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Append a new vertex and return its id."""
        self.adj.append([])
        self._in_deg.append(0)
        self._fwd.append([])
        self._compiled = self._twin = None
        self.n += 1
        return self.n - 1

    def add_vertices(self, count: int) -> list[int]:
        """Append ``count`` vertices, returning their ids."""
        if count < 0:
            raise InvalidVertexError(f"cannot add {count} vertices")
        return [self.add_vertex() for _ in range(count)]

    def add_arc(self, u: int, v: int, cap: int) -> int:
        """Add arc ``u -> v`` with integer capacity ``cap``; return its (even) id.

        The residual twin ``v -> u`` with capacity 0 is created implicitly
        at id ``add_arc(...) + 1``.  Integral floats are accepted for
        compatibility; fractional capacities raise.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        cap = _exact_int(cap, f"capacity on arc {u}->{v}")
        if cap < 0:
            raise InvalidArcError(f"negative capacity {cap} on arc {u}->{v}")
        a = len(self.head)
        self.head.append(v)
        self.cap.append(cap)
        self.flow.append(0)
        self._tail.append(u)
        self.adj[u].append(a)
        self._fwd[u].append(a)

        self.head.append(u)
        self.cap.append(0)
        self.flow.append(0)
        self._tail.append(v)
        self.adj[v].append(a + 1)
        self._in_deg[v] += 1
        self._compiled = self._twin = None
        return a

    def add_arcs(
        self, tails: Sequence[int], heads: Sequence[int], caps: Sequence[int]
    ) -> int:
        """Add the arcs ``tails[k] -> heads[k]`` with ``caps[k]``, in order.

        The bulk form of :meth:`add_arc`: the arcs get the same ids, in
        the same order, as ``add_arc`` called once per arc (arc ``k`` is
        forward slot ``first + 2k``), and the same checks apply; the
        validation runs over whole lists and the slots are appended
        with slice writes.  Returns ``first``, the first forward id.
        """
        m = len(tails)
        if len(heads) != m or len(caps) != m:
            raise InvalidArcError(
                f"add_arcs: {m} tails, {len(heads)} heads, {len(caps)} caps"
            )
        first = len(self.head)
        if not m:
            return first
        n = self.n
        if (
            min(tails) < 0 or min(heads) < 0
            or max(tails) >= n or max(heads) >= n
            or min(caps) < 0
            or any(type(c) is not int for c in caps)
        ):
            # per-arc path: the offending arc raises add_arc's own error
            for u, v, c in zip(tails, heads, caps):
                self.add_arc(u, v, c)
            return first
        slots = [0] * (2 * m)
        slots[0::2] = heads
        slots[1::2] = tails
        self.head.extend(slots)
        slots[0::2] = tails
        slots[1::2] = heads
        self._tail.extend(slots)
        slots = [0] * (2 * m)
        self.flow.extend(slots)
        slots[0::2] = caps
        self.cap.extend(slots)
        adj, fwd, in_deg = self.adj, self._fwd, self._in_deg
        a = first
        for u, v in zip(tails, heads):
            adj[u].append(a)
            fwd[u].append(a)
            adj[v].append(a + 1)
            in_deg[v] += 1
            a += 2
        self._compiled = self._twin = None
        return first

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_arcs(self) -> int:
        """Number of *original* (forward) arcs."""
        return len(self.head) // 2

    @property
    def num_arc_slots(self) -> int:
        """Number of arc slots including residual twins (= 2 * num_arcs)."""
        return len(self.head)

    def tail(self, a: int) -> int:
        """Tail (source vertex) of arc ``a``."""
        self._check_arc(a)
        return self._tail[a]

    def residual(self, a: int) -> int:
        """Residual capacity ``cap[a] - flow[a]`` of arc ``a``."""
        self._check_arc(a)
        return self.cap[a] - self.flow[a]

    def arc(self, a: int) -> Arc:
        """Return an :class:`Arc` snapshot of arc slot ``a``."""
        self._check_arc(a)
        return Arc(a, self._tail[a], self.head[a], self.cap[a], self.flow[a])

    def arcs(self, include_reverse: bool = False) -> Iterator[Arc]:
        """Iterate arc snapshots; original arcs only unless requested."""
        step = 1 if include_reverse else 2
        for a in range(0, len(self.head), step):
            yield self.arc(a)

    def out_arcs(self, v: int) -> Sequence[int]:
        """Arc ids leaving ``v`` (forward and residual alike)."""
        self._check_vertex(v)
        return self.adj[v]

    def forward_out_arcs(self, v: int) -> list[int]:
        """Only the *original* arcs leaving ``v`` (even ids).

        Non-allocating fast path: returns the live per-vertex list that
        :meth:`add_arc` maintains, not a fresh filtered copy — treat it
        as read-only (mutating it would corrupt the adjacency).
        """
        self._check_vertex(v)
        return self._fwd[v]

    def forward_arc_lists(self) -> list[list[int]]:
        """Every vertex's :meth:`forward_out_arcs` list, indexed by vertex.

        The live lists, for builders that read many vertices at once
        without a checked call per vertex — treat them as read-only.
        """
        return self._fwd

    def tails(self) -> list[int]:
        """The live per-slot tail list: ``tails()[a]`` is arc ``a``'s tail.

        For engines that walk arcs backwards (the exact-height BFS);
        treat it as read-only.
        """
        return self._tail

    def twin_arc_lists(self) -> list[list[int]]:
        """Per-vertex twin-arc lists: ``twin_arc_lists()[v][i] ==
        adj[v][i] ^ 1``, the arc *into* ``v`` paired with ``v``'s
        ``i``-th out-arc (its other end is ``tails()[b]``).

        For the exact-height BFS, which walks arcs backwards.  Built on
        first use and kept until the next :meth:`add_vertex`,
        :meth:`add_arc` or :meth:`add_arcs`, so every solve on one
        network (a warm-start cache entry's, say) shares one copy —
        treat it as read-only.
        """
        twin = self._twin
        if twin is None:
            twin = self._twin = [[a ^ 1 for a in arcs] for arcs in self.adj]
        return twin

    def in_degree(self, v: int) -> int:
        """Number of original arcs entering ``v`` — O(1).

        Used by the paper's ``IncrementMinCost`` (Algorithm 3, lines 3-5):
        a disk vertex whose in-degree is already matched by its sink-arc
        capacity cannot usefully receive a larger capacity.  The count is
        maintained incrementally by :meth:`add_arc` instead of re-scanning
        ``adj[v]`` for residual twins on every call.
        """
        self._check_vertex(v)
        return self._in_deg[v]

    # ------------------------------------------------------------------
    # flow manipulation
    # ------------------------------------------------------------------
    def push(self, a: int, delta: int) -> None:
        """Push ``delta`` units along arc ``a`` (and pull on its twin).

        Raises if the push would exceed residual capacity — exactly, with
        no floating tolerance; engines that have already checked the
        residual update the lists directly for speed.
        """
        self._check_arc(a)
        delta = _exact_int(delta, f"push delta on arc {a}")
        if delta > self.cap[a] - self.flow[a]:
            raise InvalidArcError(
                f"push of {delta} exceeds residual {self.cap[a] - self.flow[a]}"
                f" on arc {a}"
            )
        self.flow[a] += delta
        self.flow[a ^ 1] -= delta

    def set_capacity(self, a: int, cap: int) -> None:
        """Set the capacity of arc ``a`` (forward arcs only)."""
        self._check_arc(a)
        if a % 2 == 1:
            raise InvalidArcError("cannot set capacity of a residual twin")
        cap = _exact_int(cap, f"capacity on arc {a}")
        if cap < 0:
            raise InvalidArcError(f"negative capacity {cap}")
        self.cap[a] = cap

    def reset_flow(self) -> None:
        """Zero every flow value — the 'black box starts from scratch' case.

        Mutates in place (never rebinds) so views handed out by
        :meth:`arrays` stay valid across resets.  Whole-buffer slice
        assignment — one C-level write instead of a Python loop.
        """
        flow = self.flow
        flow[:] = [0] * len(flow)

    def save_flow(self) -> list[int]:
        """Snapshot the flow assignment (Algorithm 6's ``StoreFlows``)."""
        return list(self.flow)

    def restore_flow(self, saved: list[int]) -> None:
        """Restore a snapshot taken by :meth:`save_flow` (``RestoreFlows``).

        Mutates in place (never rebinds) so views handed out by
        :meth:`arrays` stay valid across restores.
        """
        if len(saved) != len(self.flow):
            raise InvalidArcError(
                f"snapshot has {len(saved)} slots, network has {len(self.flow)}"
            )
        self.flow[:] = saved
        if invariants.ENABLED:
            invariants.check_antisymmetry(self, "restore_flow")

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self) -> "FlowNetwork":
        """Deep copy (structure, capacities and flows)."""
        g = FlowNetwork.__new__(FlowNetwork)
        g.n = self.n
        g.head = list(self.head)
        g.cap = list(self.cap)
        g.flow = list(self.flow)
        g._tail = list(self._tail)
        g.adj = [list(lst) for lst in self.adj]
        g._in_deg = list(self._in_deg)
        g._fwd = [list(lst) for lst in self._fwd]
        g._compiled = None  # compiled layouts are never shared
        g._twin = None
        return g

    def vertices(self) -> range:
        """Range of vertex ids."""
        return range(self.n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlowNetwork(n={self.n}, arcs={self.num_arcs})"

    # ------------------------------------------------------------------
    # internal checks
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise InvalidVertexError(f"vertex {v} out of range [0, {self.n})")

    def _check_arc(self, a: int) -> None:
        if not 0 <= a < len(self.head):
            raise InvalidArcError(f"arc {a} out of range [0, {len(self.head)})")

    # ------------------------------------------------------------------
    # bulk views
    # ------------------------------------------------------------------
    def arrays(self) -> tuple[list[int], list[int], list[int], list[list[int]]]:
        """Expose the raw parallel lists ``(head, cap, flow, adj)``.

        Max-flow engines bind these to locals once per solve; mutating them
        mutates the network (that is the point).
        """
        return self.head, self.cap, self.flow, self.adj

    # ------------------------------------------------------------------
    # compiled (CSR flat-array) layout
    # ------------------------------------------------------------------
    def compile(self):
        """Freeze the current topology into a fresh flat int64 layout.

        One-shot pass producing a
        :class:`~repro.graph.csr.CompiledNetwork`: parallel ``array('q')``
        buffers (``head``/``cap``/``flow``/``twin``) plus vertex-sorted
        CSR arc ranges.  Construction stays on this mutable builder;
        engines run on the frozen layout.  Raises
        :class:`InvalidArcError` if any capacity or flow is outside the
        int64 range.
        """
        from repro.graph.csr import CompiledNetwork

        return CompiledNetwork(self)

    def compiled(self):
        """The memoized compiled layout of the current topology.

        Rebuilt after any :meth:`add_vertex`/:meth:`add_arc` (topology
        mutations invalidate the memo).  Value mutations — capacities,
        flows — do **not** invalidate it: the frozen topology stays
        correct and callers refresh the value buffers with
        :meth:`~repro.graph.csr.CompiledNetwork.pull`.
        """
        c = self._compiled
        if c is None:
            c = self.compile()
            self._compiled = c
        return c


def build_network(
    n: int, arcs: Iterable[tuple[int, int, int]]
) -> tuple[FlowNetwork, list[int]]:
    """Convenience builder: create a network and add ``arcs``.

    Returns the network and the list of forward arc ids, in input order.
    """
    g = FlowNetwork(n)
    ids = [g.add_arc(u, v, c) for (u, v, c) in arcs]
    return g, ids
