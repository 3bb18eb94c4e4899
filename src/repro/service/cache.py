"""Warm-start network cache keyed by replica-set signature.

Repeated and overlapping queries — the hot case of any real frontend —
resolve to the *same* replica signature ``problem.replicas``, and the
paper's flow networks are a pure function of that signature.  Caching the
built :class:`~repro.core.network.RetrievalNetwork` (plus the final flow
of the last solve, via the existing ``save_flow``/``restore_flow``
machinery) lets the integrated solvers skip topology construction
entirely and start each probe from a conserved, clamped preflow — the
same flow-conservation idea Algorithm 6 applies *within* a solve,
extended *across* solves.

An entry is the last solve's flow snapshot plus, per disk, the bucket
units that departed since (the online scheduler's drains).  A drain only
records its units (:meth:`NetworkCache.release`, O(1)); the flow surgery
— ``release_flow`` and ``decrement_sink_cap`` per disk — runs once, when
the entry is next checked out (:meth:`NetworkCache.checkout`), so an
entry evicted before its next hit never pays for it.  Coalescing is
exact: releases on different disks touch disjoint buckets, and releasing
``u1`` then ``u2`` units on one disk frees the same first ``u1 + u2``
routed buckets, in index order, as one release of ``u1 + u2``.

Since the CSR refactor the entry implicitly carries a third asset: the
network's **compiled flat-array layout**.  ``graph.compiled()`` memoizes
the :class:`~repro.graph.csr.CompiledNetwork` on the builder, and
neither :meth:`~repro.core.network.RetrievalNetwork.rebind` nor
:meth:`~repro.core.network.RetrievalNetwork.clamp_flow_to_sink_caps`
touches topology — so a cache hit under the ``pr-csr`` solver reuses the
same compiled buffers *and* its ``kernel_scratch`` (height/excess/queue
working state keyed per source/sink), skipping compilation and scratch
allocation along with topology construction.

The cache is deliberately not thread-safe on its own: the scheduler
service mutates cached networks while solving, so every access happens
under the service's solve lock anyway (a fleet worker is one thread).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.obs.registry import MetricsRegistry

__all__ = ["CacheEntry", "NetworkCache"]

Signature = tuple[tuple[int, ...], ...]


@dataclass
class CacheEntry:
    """One cached topology, the flow it last carried, and the units
    released from that flow since.

    ``flow`` holds either representation's snapshot —
    ``FlowNetwork.save_flow``'s plain list or
    ``CompiledNetwork.save_flow``'s ``array('q')`` (compact: 8 bytes per
    arc slot, no boxed ints); both restore into both.  ``pending`` maps
    a disk to the units drained from it but not yet applied to ``flow``
    and the network's sink capacity; it never holds more than one key
    per disk, and ``pending[j]`` never exceeds the units ``flow`` routes
    through disk ``j``.
    """

    network: RetrievalNetwork
    flow: list[int] | array | None = None
    pending: dict[int, int] = field(default_factory=dict)

    def restore(self) -> RetrievalNetwork:
        """Load this entry's state into its network and return it.

        Restores ``flow`` (or zero flow when there is none), then
        applies the pending releases: each disk's units are unrouted
        with ``release_flow`` and its sink capacity shrinks by as much.
        The repaired flow becomes the new snapshot, so restoring twice
        gives the same state.
        """
        network = self.network
        graph = network.graph
        if self.flow is None:
            graph.reset_flow()
            return network
        graph.restore_flow(self.flow)
        if self.pending:
            for j, units in self.pending.items():
                released = network.release_flow(j, units)
                network.decrement_sink_cap(j, released)
            self.pending.clear()
            self.flow = graph.save_flow()
        return network


class NetworkCache:
    """LRU cache of retrieval networks with hit/miss/eviction counters.

    Parameters
    ----------
    size:
        Maximum number of entries; ``0`` makes every lookup a miss and
        every store a no-op (caching disabled, counters still live).
    registry:
        Metrics sink for ``repro_service_cache_{hits,misses,evictions}_total``
        counters and the ``repro_service_cache_entries`` gauge.
    """

    def __init__(self, size: int, registry: MetricsRegistry) -> None:
        if size < 0:
            raise ValueError(f"cache size must be >= 0, got {size}")
        self.size = size
        self._entries: OrderedDict[Signature, CacheEntry] = OrderedDict()
        self._m_hits = registry.counter(
            "repro_service_cache_hits_total",
            "Warm-start network cache hits.",
        )
        self._m_misses = registry.counter(
            "repro_service_cache_misses_total",
            "Warm-start network cache misses.",
        )
        self._m_evictions = registry.counter(
            "repro_service_cache_evictions_total",
            "Warm-start network cache LRU evictions.",
        )
        self._m_entries = registry.gauge(
            "repro_service_cache_entries",
            "Warm-start network cache resident entries.",
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return int(self._m_hits.value)

    @property
    def misses(self) -> int:
        return int(self._m_misses.value)

    @property
    def evictions(self) -> int:
        return int(self._m_evictions.value)

    # ------------------------------------------------------------------
    def get(self, signature: Signature) -> CacheEntry | None:
        """Look up (and LRU-touch) the entry; counts a hit or a miss."""
        entry = self._entries.get(signature)
        if entry is None:
            self._m_misses.inc()
            return None
        self._entries.move_to_end(signature)
        self._m_hits.inc()
        return entry

    def checkout(self, problem: RetrievalProblem) -> RetrievalNetwork | None:
        """The cached network for ``problem``, ready to solve on, or
        ``None`` on a miss (the caller builds a fresh one).

        Counts the hit or miss like :meth:`get`.  A hit rebinds the
        cached network to ``problem`` and restores the entry's state
        into it (:meth:`CacheEntry.restore`, which applies any pending
        releases).  Callers solve on the network and hand its final flow
        back with :meth:`put`.
        """
        entry = self.get(problem.replicas)
        if entry is None:
            return None
        entry.network.rebind(problem)
        return entry.restore()

    def release(self, signature: Signature, disk: int, units: int) -> int:
        """Record ``units`` drained from ``disk`` against the entry.

        O(1): no flow is touched until the entry's next checkout.
        Neither LRU-touches nor counts a hit or miss — a drain is
        maintenance, not a lookup.  Returns the units actually released:
        at most what the snapshot still routes through ``disk`` (by flow
        conservation at the disk vertex, exactly what ``release_flow``
        on the checked-out network would free), ``0`` for an absent
        entry.
        """
        entry = self._entries.get(signature)
        if entry is None or entry.flow is None:
            return 0
        already = entry.pending.get(disk, 0)
        routed = entry.flow[entry.network.sink_arcs[disk]] - already
        released = min(units, routed)
        if released <= 0:
            return 0
        entry.pending[disk] = already + released
        return released

    def put(
        self,
        signature: Signature,
        network: RetrievalNetwork,
        flow: list[int] | array | None,
    ) -> None:
        """Insert or refresh an entry; evicts the LRU tail on overflow."""
        if self.size == 0:
            return
        entry = self._entries.get(signature)
        if entry is None:
            self._entries[signature] = CacheEntry(network, flow)
        else:
            entry.network = network
            entry.flow = flow
            entry.pending.clear()
            self._entries.move_to_end(signature)
        while len(self._entries) > self.size:
            self._entries.popitem(last=False)
            self._m_evictions.inc()
        self._m_entries.set(len(self._entries))

    def clear(self) -> None:
        self._entries.clear()
        self._m_entries.set(0)
