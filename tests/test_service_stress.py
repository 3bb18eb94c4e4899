"""Concurrency stress: SchedulerService under multithreaded submit.

Hammers ``submit`` from many threads and asserts the lifetime
``ServiceStats`` equal the aggregation of the returned
``ServiceRecord``s — a lost update anywhere in the stats path (counter
increments, response sums, per-disk bucket tallies, history append)
shows up as a mismatch.  Rides the ``slow`` marker so the default CI
job stays fast.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.decluster import make_placement
from repro.service import SchedulerService
from repro.storage import StorageSystem

N = 6
NUM_THREADS = 8
QUERIES_PER_THREAD = 12


def make_service(**kwargs) -> SchedulerService:
    rng = np.random.default_rng(42)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], N, delays_ms=[1.0, 4.0], rng=rng
    )
    return SchedulerService(system, placement, **kwargs)


def hammer(svc, rng_seed, records, errors, barrier):
    rng = np.random.default_rng(rng_seed)
    try:
        barrier.wait(timeout=30)
        for _ in range(QUERIES_PER_THREAD):
            k = int(rng.integers(1, 6))
            # distinct cells: ServiceRecord.assignment is keyed by
            # coordinate, so duplicates would collapse in the cross-check
            cells = rng.choice(N * N, size=k, replace=False)
            coords = [(int(c) // N, int(c) % N) for c in cells]
            records.append(svc.submit(coords))
    except Exception as exc:  # noqa: BLE001 - surfaced in the main thread
        errors.append(exc)


@pytest.mark.slow
@pytest.mark.stress
class TestSubmitStress:
    def run_stress(self, svc):
        records: list = []
        errors: list = []
        barrier = threading.Barrier(NUM_THREADS)
        threads = [
            threading.Thread(
                target=hammer, args=(svc, 1000 + i, records, errors, barrier)
            )
            for i in range(NUM_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert len(records) == NUM_THREADS * QUERIES_PER_THREAD
        return records

    def test_stats_equal_sum_of_returned_records(self):
        svc = make_service()
        records = self.run_stress(svc)
        stats = svc.stats()

        assert stats.queries == len(records)
        assert stats.buckets == sum(r.num_buckets for r in records)
        assert stats.total_response_ms == pytest.approx(
            sum(r.response_time_ms for r in records)
        )
        assert stats.max_response_ms == pytest.approx(
            max(r.response_time_ms for r in records)
        )
        assert stats.total_decision_ms == pytest.approx(
            sum(r.decision_time_ms for r in records)
        )
        assert stats.degraded_queries == sum(1 for r in records if r.degraded)

        per_disk = [0] * (2 * N)
        for r in records:
            for disk in r.assignment.values():
                per_disk[disk] += 1
        assert stats.per_disk_buckets == per_disk
        assert sum(stats.per_disk_buckets) == stats.buckets

    def test_history_and_metrics_consistent_under_contention(self):
        svc = make_service()
        records = self.run_stress(svc)
        assert len(svc.history) == len(records)
        # arrivals were taken under the lock: history is time-ordered
        arrivals = [r.arrival_ms for r in svc.history]
        assert arrivals == sorted(arrivals)

        queries = svc.registry.get("repro_service_queries_total")
        buckets = svc.registry.get("repro_service_buckets_total")
        decision = svc.registry.get("repro_service_decision_ms")
        response = svc.registry.get("repro_service_response_ms")
        assert queries.value == len(records)
        assert buckets.value == sum(r.num_buckets for r in records)
        assert decision.count == len(records)
        assert response.total == pytest.approx(
            sum(r.response_time_ms for r in records)
        )

    def test_stress_with_failed_disk(self):
        svc = make_service()
        svc.mark_failed([0])
        records = self.run_stress(svc)
        stats = svc.stats()
        assert stats.degraded_queries == len(records)
        assert all(0 not in r.assignment.values() for r in records)
        assert stats.per_disk_buckets[0] == 0
        degraded = svc.registry.get("repro_service_degraded_total")
        assert degraded.value == len(records)

    def test_cache_accounting_under_contention(self):
        from repro.service import ServiceConfig

        svc = make_service(config=ServiceConfig(cache_size=256))
        records = self.run_stress(svc)
        # every solve either hit or missed; nothing lost under contention
        assert svc.cache.hits + svc.cache.misses == len(records)
        assert svc.cache.hits == sum(1 for r in records if r.cache_hit)
        assert svc.stats().cache_hits == svc.cache.hits


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.mark.slow
@pytest.mark.stress
class TestSerialReplayEquivalence:
    def test_concurrent_records_match_serial_replay(self):
        """Concurrency must not change answers, only interleaving.

        Hammer a cache-enabled service under a frozen fake clock, then
        replay the admission order (the history) serially on a fresh,
        identically configured deployment: every response time and
        assignment must reproduce exactly — the solver, the cache and
        the horizon bookkeeping are all deterministic in admission
        order.
        """
        from repro.service import ServiceConfig

        svc = make_service(
            config=ServiceConfig(cache_size=64, time_fn=FakeClock())
        )
        records: list = []
        errors: list = []
        barrier = threading.Barrier(NUM_THREADS)
        threads = [
            threading.Thread(
                target=hammer, args=(svc, 2000 + i, records, errors, barrier)
            )
            for i in range(NUM_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors

        replay = make_service(
            config=ServiceConfig(cache_size=64, time_fn=FakeClock())
        )
        for original in svc.history:
            again = replay.submit(original.query, arrival_ms=0.0)
            assert again.response_time_ms == pytest.approx(
                original.response_time_ms, abs=1e-9
            )
            assert again.assignment == original.assignment
