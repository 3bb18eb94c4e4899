"""Warm-start network cache: accounting and answer transparency.

The load-bearing property is the differential: with caching enabled,
every per-query response time must equal the single-query optimum that a
cold ``solve(problem, solver="pr-binary")`` computes under the same
loads — verified with ``verify_schedule``/``certify_optimal`` on seeded
instances.  The cache may only change *speed*, never answers.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.api import solve
from repro.core.certify import certify_optimal, verify_schedule
from repro.core.network import RetrievalNetwork
from repro.core.problem import RetrievalProblem
from repro.decluster import make_placement
from repro.obs import MetricsRegistry
from repro.service import NetworkCache, SchedulerService, ServiceConfig
from repro.service import cache as cache_mod
from repro.service import scheduler as scheduler_mod
from repro.storage import StorageSystem

N = 6


@pytest.fixture(autouse=True)
def _thread_backend(monkeypatch):
    """Pin this module to the thread backend.

    These tests probe the *service-side* cache (``svc.cache`` internals,
    hit/miss/eviction accounting), which deliberately does not exist
    under the process backend — there the cache lives inside each fleet
    worker and has its own suites (tests/fleet/, the cross-process
    differential in tests/property/).  Without the pin, a CI matrix leg
    running ``REPRO_SOLVE_BACKEND=process`` would fail on internals that
    are absent by design rather than by bug.
    """
    monkeypatch.setenv("REPRO_SOLVE_BACKEND", "thread")


def deployment(seed=0):
    rng = np.random.default_rng(seed)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], N, delays_ms=[1.0, 4.0], rng=rng
    )
    return system, placement


def three_problems():
    """Problems with three distinct replica signatures."""
    system, placement = deployment()
    return [
        RetrievalProblem.from_query(system, placement, coords)
        for coords in ([(0, 0)], [(1, 1), (2, 2)], [(3, 3), (4, 4), (5, 5)])
    ]


def make_queries(seed, count, distinct=5):
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(distinct):
        k = int(rng.integers(2, 7))
        cells = rng.choice(N * N, size=k, replace=False)
        pool.append([(int(c) // N, int(c) % N) for c in cells])
    return [pool[int(rng.integers(distinct))] for _ in range(count)]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestAccounting:
    def test_hits_misses_evictions(self):
        registry = MetricsRegistry()
        cache = NetworkCache(2, registry)
        a, b, c = three_problems()
        assert cache.checkout(a) is None
        cache.put(a.replicas, RetrievalNetwork(a), None)
        cache.put(b.replicas, RetrievalNetwork(b), None)
        assert cache.checkout(a).signature() == a.replicas
        cache.put(c.replicas, RetrievalNetwork(c), None)  # evicts LRU b
        assert cache.checkout(b) is None
        assert (cache.hits, cache.misses, cache.evictions) == (1, 2, 1)
        assert len(cache) == 2
        assert registry.get("repro_service_cache_entries").value == 2

    def test_networks_gauge_counts_entries_holding_a_network(self):
        """A miss stores no network, the first hit builds one, and an
        eviction or a clear drops it from the gauge."""
        registry = MetricsRegistry()
        cache = NetworkCache(2, registry)
        a, b, c = three_problems()

        def gauges():
            return (
                registry.get("repro_service_cache_entries").value,
                registry.get("repro_service_cache_networks").value,
            )

        def solve_into_cache(problem):
            network = cache.checkout(problem) or RetrievalNetwork(problem)
            solve(problem, network=network)
            cache.put(problem.replicas, network, network.graph.save_flow())

        solve_into_cache(a)  # miss
        assert gauges() == (1, 0)
        solve_into_cache(a)  # first hit builds a's network
        assert gauges() == (1, 1)
        solve_into_cache(a)  # later hits reuse it
        assert gauges() == (1, 1)
        solve_into_cache(b)  # miss
        assert gauges() == (2, 1)
        solve_into_cache(c)  # miss: evicts a, the LRU entry, and its network
        assert gauges() == (2, 0)
        assert (cache.hits, cache.misses, cache.evictions) == (2, 3, 1)
        solve_into_cache(b)
        assert gauges() == (2, 1)
        cache.clear()
        assert gauges() == (0, 0)

    def test_zero_size_disables_storage(self):
        cache = NetworkCache(0, MetricsRegistry())
        cache.put(("a",), "net", None)
        assert len(cache) == 0
        assert cache.get(("a",)) is None

    def test_service_counts_repeat_queries(self):
        clock = FakeClock()
        svc = SchedulerService(
            *deployment(),
            config=ServiceConfig(time_fn=clock, cache_size=8),
        )
        q = [(0, 0), (1, 1), (2, 2)]
        first = svc.submit(q)
        clock.t += 5.0
        second = svc.submit(q)
        assert not first.cache_hit
        assert second.cache_hit
        assert svc.cache.hits == 1
        assert svc.stats().cache_hits == 1

    def test_degraded_signature_is_distinct(self):
        clock = FakeClock()
        svc = SchedulerService(
            *deployment(),
            config=ServiceConfig(time_fn=clock, cache_size=8),
        )
        q = [(0, 0), (1, 1), (2, 2)]
        svc.submit(q)
        svc.mark_failed([0])
        clock.t += 5.0
        rec = svc.submit(q)
        # the degraded replica set differs, so this cannot hit the
        # healthy entry
        assert rec.degraded
        assert not rec.cache_hit

    def test_cold_solver_runs_without_cache(self):
        svc = SchedulerService(
            *deployment(),
            config=ServiceConfig(
                time_fn=FakeClock(), solver="ff-incremental"
            ),
        )
        assert svc.cache is None
        assert svc.submit([(0, 0), (1, 1)]).response_time_ms > 0


class TestDifferential:
    def test_cached_answers_stay_optimal(self):
        """Service-with-cache == cold optimum, certified per query."""
        clock = FakeClock()
        svc = SchedulerService(
            *deployment(seed=7),
            config=ServiceConfig(time_fn=clock, cache_size=16),
        )
        for coords in make_queries(seed=11, count=20):
            rec = svc.submit(coords)
            # svc.system still carries the admission loads set under the
            # lock, so a cold reference solve sees the identical instance
            problem = RetrievalProblem.from_query(
                svc.system, svc.placement, coords
            )
            reference = solve(problem, solver="pr-binary")
            assert rec.response_time_ms == pytest.approx(
                reference.response_time_ms, abs=1e-9
            )
            verify_schedule(problem, reference)
            cert = certify_optimal(problem, reference)
            assert cert, cert.reason
            clock.t += 2.0
        assert svc.cache.hits > 0  # the differential exercised warm paths

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cache_on_matches_cache_off_twin(self, seed):
        """Serial replay: a cached service answers exactly as a twin
        built on the same deployment with ``cache_size=0``.

        The stream repeats a small signature pool while the fake clock
        advances 1 ms per submit, so loads evolve between submits and
        every warm hit rebinds onto a different instance.
        """
        clocks = (FakeClock(), FakeClock())
        warm, cold = (
            SchedulerService(
                *deployment(seed),
                config=ServiceConfig(time_fn=clock, cache_size=size),
            )
            for clock, size in zip(clocks, (32, 0))
        )
        for coords in make_queries(seed, count=24, distinct=6):
            a = warm.submit(coords)
            b = cold.submit(coords)
            assert a.response_time_ms == b.response_time_ms, coords
            for clock in clocks:
                clock.t += 1.0
        assert warm.cache.hits > 0 and cold.cache is None

    def test_csr_solver_reuses_the_compiled_layout(self):
        """Repeat hits under pr-csr keep the compiled buffers warm.

        A miss keeps only the flow; the first hit builds the entry's
        network, and ``graph.compiled()`` memoizes the flat layout on it.
        Rebind/restore touch values only — so from the second hit on the
        signature sees the *same* CompiledNetwork object, with its kernel
        scratch (height/excess working state) carried across solves.
        """
        clock = FakeClock()
        svc = SchedulerService(
            *deployment(seed=13),
            config=ServiceConfig(
                time_fn=clock, cache_size=8, solver="pr-csr"
            ),
        )
        coords = [(0, 0), (1, 1), (2, 2)]
        records = [svc.submit(coords)]
        problem = RetrievalProblem.from_query(svc.system, svc.placement, coords)
        entry = svc.cache._entries.get(problem.replicas)
        assert entry is not None
        assert entry.network is None  # a miss keeps no network

        clock.t += 2.0
        records.append(svc.submit(coords))  # first hit: builds the network
        compiled = entry.network.graph._compiled
        assert compiled is not None
        assert compiled.kernel_scratch  # engine state parked for reuse

        clock.t += 2.0
        records.append(svc.submit(coords))
        assert svc.cache._entries.get(problem.replicas) is entry
        assert entry.network.graph._compiled is compiled
        assert svc.cache.hits == 2
        # and the warm path stayed transparent: every answer optimal
        for rec in records:
            assert rec.response_time_ms > 0
        reference = solve(
            RetrievalProblem.from_query(svc.system, svc.placement, coords),
            solver="pr-binary",
        )
        assert records[-1].response_time_ms == pytest.approx(
            reference.response_time_ms, abs=1e-9
        )

    def test_compiled_array_snapshots_restore_into_the_cache(self):
        """CacheEntry.flow accepts the compiled array('q') wire form."""
        from array import array as _array

        registry = MetricsRegistry()
        cache = NetworkCache(2, registry)
        rng = np.random.default_rng(5)
        placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
        system = StorageSystem.from_groups(
            ["ssd+hdd", "ssd+hdd"], N, delays_ms=[1.0, 4.0], rng=rng
        )
        problem = RetrievalProblem.from_query(
            system, placement, [(0, 0), (1, 1)]
        )
        schedule = solve(problem, solver="pr-csr")
        assert schedule.response_time_ms > 0
        network = RetrievalNetwork(problem)
        solve(problem, solver="pr-csr", network=network)
        snap = network.graph.compiled()
        snap.pull(network.graph)
        cache.put(problem.replicas, network, snap.save_flow())
        entry = cache.get(problem.replicas)
        assert isinstance(entry.flow, _array)
        network.graph.reset_flow()
        network.graph.restore_flow(entry.flow)  # builder accepts arrays
        assert network.graph.flow == list(entry.flow)

    def test_eviction_pressure_keeps_answers(self):
        clock = FakeClock()
        svc = SchedulerService(
            *deployment(seed=9),
            config=ServiceConfig(time_fn=clock, cache_size=2),
        )
        for coords in make_queries(seed=13, count=15, distinct=6):
            rec = svc.submit(coords)
            problem = RetrievalProblem.from_query(
                svc.system, svc.placement, coords
            )
            reference = solve(problem, solver="pr-binary")
            assert rec.response_time_ms == pytest.approx(
                reference.response_time_ms, abs=1e-9
            )
            clock.t += 1.0
        assert svc.cache.evictions > 0


class TestMemory:
    def test_entries_hold_a_network_only_after_their_first_hit(
        self, monkeypatch
    ):
        """A miss's network is collected once the solve is done; the
        first hit builds the one network the entry keeps, and later hits
        reuse it by identity without building another."""
        built = {"miss": [], "hit": []}

        def spy(kind):
            def build(problem):
                network = RetrievalNetwork(problem)
                built[kind].append(weakref.ref(network))
                return network

            return build

        monkeypatch.setattr(scheduler_mod, "RetrievalNetwork", spy("miss"))
        monkeypatch.setattr(cache_mod, "RetrievalNetwork", spy("hit"))
        clock = FakeClock()
        svc = SchedulerService(
            *deployment(seed=3),
            config=ServiceConfig(time_fn=clock, cache_size=8),
        )
        once, again = [(0, 0), (1, 1)], [(2, 2), (3, 3), (4, 4)]
        for coords in (once, again):
            assert not svc.submit(coords).cache_hit
            clock.t += 1.0
        gc.collect()
        assert len(built["miss"]) == 2
        assert [ref() for ref in built["miss"]] == [None, None]
        assert all(e.network is None for e in svc.cache._entries.values())

        assert svc.submit(again).cache_hit
        (ref,) = built["hit"]
        network = ref()
        problem = RetrievalProblem.from_query(svc.system, svc.placement, again)
        entry = svc.cache._entries[problem.replicas]
        assert entry.network is network is not None
        for _ in range(2):
            clock.t += 1.0
            assert svc.submit(again).cache_hit
            assert entry.network is network
        assert len(built["hit"]) == 1 and len(built["miss"]) == 2
        held = [e.network for e in svc.cache._entries.values() if e.network]
        assert held == [network]
        assert svc.registry.get("repro_service_cache_networks").value == 1
