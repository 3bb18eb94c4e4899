"""Warm-start network cache keyed by replica-set signature.

Repeated and overlapping queries — the hot case of any real frontend —
resolve to the *same* replica signature ``problem.replicas``, and the
paper's flow networks are a pure function of that signature.  Caching
the final flow of the last solve (via the existing
``save_flow``/``restore_flow`` machinery) and, once the signature
repeats, the built :class:`~repro.core.network.RetrievalNetwork` lets
the integrated solvers skip topology construction and start each probe
from a conserved, clamped preflow — the same flow-conservation idea
Algorithm 6 applies *within* a solve, extended *across* solves.

What an entry costs depends on whether it has been hit.  A miss stores
only the flow snapshot and the N disk→sink capacities (about 25 KB for
a ~470-bucket query at N=32 per site); the network the miss built is
dropped with the caller's last reference.  The entry's first hit
rebuilds the network (about 1 ms at that size), writes the capacities
back, and keeps it: from then on the entry also pins the network (about
390 KB at that size) and every later hit reuses it.  Source and replica
arcs always have capacity 1, so the flow and the sink capacities are
all of a solved network's state that a warm solve reads; schedules are
the same whether the entry held its network or rebuilt it.  Signatures
that never repeat — most of a cold, non-repeating stream — never pay
for a network in the cache.

An entry is the last solve's flow snapshot plus, per disk, the bucket
units that departed since (the online scheduler's drains).  A drain only
records its units (:meth:`NetworkCache.release`, O(1)); the flow surgery
— ``release_flow`` and ``decrement_sink_cap`` per disk — runs once, when
the entry is next checked out (:meth:`NetworkCache.checkout`), so an
entry evicted before its next hit never pays for it.  Coalescing is
exact: releases on different disks touch disjoint buckets, and releasing
``u1`` then ``u2`` units on one disk frees the same first ``u1 + u2``
routed buckets, in index order, as one release of ``u1 + u2``.

An entry that holds a network also carries its **compiled flat-array
layout**.  ``graph.compiled()`` memoizes the
:class:`~repro.graph.csr.CompiledNetwork` on the builder, and neither
:meth:`~repro.core.network.RetrievalNetwork.rebind` nor
:meth:`~repro.core.network.RetrievalNetwork.clamp_flow_to_sink_caps`
touches topology — so from an entry's second hit on, the ``pr-csr``
solver reuses the same compiled buffers *and* its ``kernel_scratch``
(height/excess/queue working state keyed per source/sink), skipping
compilation and scratch allocation along with topology construction.
The first hit compiles the rebuilt network once.

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
    """One signature's last flow, the disk→sink capacities it ran
    under, and the units released from that flow since.

    ``flow`` holds either representation's snapshot —
    ``FlowNetwork.save_flow``'s plain list or
    ``CompiledNetwork.save_flow``'s ``array('q')`` (compact: 8 bytes per
    arc slot, no boxed ints); both restore into both.  Until the entry's
    first :meth:`checkout`, ``network`` is ``None`` and ``sink_caps``
    holds the N capacities; the checkout builds the network, writes
    them back and keeps the network from then on (``sink_caps`` is then
    ``None``: the network carries them).  ``pending`` maps a disk to the
    units drained from it but not yet applied to ``flow`` and the sink
    capacity; it never holds more than one key per disk, and
    ``pending[j]`` never exceeds the units ``flow`` routes through disk
    ``j``.
    """

    flow: list[int] | array | None
    sink_caps: list[int] | None = None
    network: RetrievalNetwork | None = None
    pending: dict[int, int] = field(default_factory=dict)

    def sink_slot(self, disk: int) -> int:
        """Disk ``disk``'s disk→sink arc id, with or without a network:
        the N sink arcs are appended last (``RetrievalNetwork``), so
        their forward slots are the snapshot's last ``2N``."""
        if self.network is not None:
            return self.network.sink_arcs[disk]
        return len(self.flow) - 2 * len(self.sink_caps) + 2 * disk

    def checkout(self, problem: RetrievalProblem) -> RetrievalNetwork:
        """Load this entry's state into its network and return it.

        The first checkout builds ``RetrievalNetwork(problem)`` (the
        topology is a pure function of the signature) and writes
        ``sink_caps`` back; later ones rebind the kept network to
        ``problem``.  Then restores ``flow`` (or zero flow when there is
        none) and applies the pending releases: each disk's units are
        unrouted with ``release_flow`` and its sink capacity shrinks by
        as much.  The repaired flow becomes the new snapshot, so checking
        out twice gives the same state.
        """
        network = self.network
        if network is None:
            network = RetrievalNetwork(problem)
            network.set_sink_caps(self.sink_caps)
            self.network, self.sink_caps = network, None
        else:
            network.rebind(problem)
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
        counters and the ``repro_service_cache_{entries,networks}``
        gauges.
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
        self._m_networks = registry.gauge(
            "repro_service_cache_networks",
            "Warm-start cache entries holding a built network "
            "(entries reach one at their first hit).",
        )
        self._networks = 0

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

        Counts the hit or miss like :meth:`get`.  A hit loads the
        entry's state into its network — built on the entry's first
        hit, rebound to ``problem`` on later ones — and applies any
        pending releases (:meth:`CacheEntry.checkout`).  Callers solve
        on the network and hand its final flow back with :meth:`put`.
        """
        entry = self.get(problem.replicas)
        if entry is None:
            return None
        built = entry.network is None
        network = entry.checkout(problem)
        if built:
            self._count_networks(1)
        return network

    def release(self, signature: Signature, disk: int, units: int) -> int:
        """Record ``units`` drained from ``disk`` against the entry.

        O(1): no flow is touched until the entry's next checkout, and an
        entry without a network yet gets none.  Neither LRU-touches nor
        counts a hit or miss — a drain is maintenance, not a lookup.
        Returns the units actually released: at most what the snapshot
        still routes through ``disk`` (by flow conservation at the disk
        vertex, exactly what ``release_flow`` on the checked-out network
        would free), ``0`` for an absent entry.
        """
        entry = self._entries.get(signature)
        if entry is None or entry.flow is None:
            return 0
        already = entry.pending.get(disk, 0)
        routed = entry.flow[entry.sink_slot(disk)] - already
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
        """Store ``flow`` and ``network``'s sink capacities for
        ``signature``; evicts the LRU tail on overflow.

        An entry that holds no network stays without one, so the
        network a miss built is freed with the caller's last reference;
        an entry that holds one (it has been checked out) keeps
        ``network``.  Either way pending releases are dropped: ``flow``
        is the caller's newer state.
        """
        if self.size == 0:
            return
        entry = self._entries.get(signature)
        if entry is None or entry.network is None:
            self._entries[signature] = CacheEntry(flow, network.sink_caps())
        else:
            entry.network = network
            entry.flow = flow
            entry.pending.clear()
        self._entries.move_to_end(signature)
        while len(self._entries) > self.size:
            _, evicted = self._entries.popitem(last=False)
            self._m_evictions.inc()
            if evicted.network is not None:
                self._count_networks(-1)
        self._m_entries.set(len(self._entries))

    def _count_networks(self, delta: int) -> None:
        self._networks += delta
        self._m_networks.set(self._networks)

    def clear(self) -> None:
        self._entries.clear()
        self._m_entries.set(0)
        self._count_networks(-self._networks)
