"""Tests for the SchedulerService facade."""

from __future__ import annotations

import threading

import pytest

from repro.decluster import make_placement
from repro.errors import (
    InfeasibleScheduleError,
    StorageConfigError,
    WorkloadError,
)
from repro.service import SchedulerService, ServiceConfig
from repro.service.scheduler import HISTORY_MAXLEN
from repro.storage import StorageSystem


def make_service(N=5, time_fn=None, **kw):
    placement = make_placement("orthogonal", N, num_sites=2, seed=0)
    system = StorageSystem.homogeneous(2 * N, "cheetah", num_sites=2)
    config = ServiceConfig(time_fn=time_fn, **kw)
    return SchedulerService(system, placement, config=config)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestBasics:
    def test_submit_returns_record(self):
        svc = make_service(time_fn=FakeClock())
        rec = svc.submit([(0, 0), (0, 1)])
        assert rec.num_buckets == 2
        assert rec.response_time_ms > 0
        assert not rec.degraded
        assert len(rec.assignment) == 2

    def test_placement_system_mismatch(self):
        placement = make_placement("orthogonal", 5, num_sites=2, seed=0)
        system = StorageSystem.homogeneous(5, "cheetah")
        with pytest.raises(StorageConfigError, match="placement"):
            SchedulerService(system, placement)

    def test_loads_evolve_between_queries(self):
        clock = FakeClock()
        svc = make_service(time_fn=clock)
        svc.submit([(i, j) for i in range(3) for j in range(3)])
        clock.t = 1.0  # almost immediately: disks still busy
        rec = svc.submit([(0, 0)])
        assert any(x > 0 for x in svc.system.loads())
        assert rec.response_time_ms > 6.1  # must queue behind the backlog

    def test_loads_drain_when_idle(self):
        clock = FakeClock()
        svc = make_service(time_fn=clock)
        svc.submit([(0, 0), (1, 1)])
        clock.t = 1e6
        svc.submit([(2, 2)])
        assert all(x == 0 for x in svc.system.loads()[:1])  # drained

    def test_arrivals_must_be_monotone(self):
        svc = make_service(time_fn=FakeClock())
        svc.submit([(0, 0)], arrival_ms=10.0)
        with pytest.raises(StorageConfigError, match="non-decreasing"):
            svc.submit([(0, 0)], arrival_ms=5.0)

    def test_stats_accumulate(self):
        svc = make_service(time_fn=FakeClock())
        svc.submit([(0, 0)], arrival_ms=0.0)
        svc.submit([(1, 1), (2, 2)], arrival_ms=100.0)
        st = svc.stats()
        assert st.queries == 2
        assert st.buckets == 3
        assert st.mean_response_ms > 0
        assert st.max_response_ms >= st.mean_response_ms
        assert sum(st.per_disk_buckets) == 3

    def test_stats_snapshot_is_independent(self):
        svc = make_service(time_fn=FakeClock())
        svc.submit([(0, 0)], arrival_ms=0.0)
        snap = svc.stats()
        svc.submit([(1, 1)], arrival_ms=1.0)
        assert snap.queries == 1
        assert svc.stats().queries == 2

    def test_history_keeps_only_the_most_recent_records(self):
        cap, extra = HISTORY_MAXLEN, 5
        svc = make_service(time_fn=FakeClock())
        for i in range(cap + extra):
            svc.submit([(0, 0)], arrival_ms=float(i))
        assert len(svc.history) == cap
        # the oldest `extra` records fell off the front, in order
        arrivals = [rec.arrival_ms for rec in svc.history]
        assert arrivals == [float(i) for i in range(extra, cap + extra)]
        assert svc.stats().queries == cap + extra


class TestFailures:
    def test_failed_disk_avoided(self):
        svc = make_service(time_fn=FakeClock())
        svc.mark_failed([0])
        rec = svc.submit([(i, j) for i in range(2) for j in range(3)])
        assert rec.degraded
        assert 0 not in rec.assignment.values()
        assert svc.stats().degraded_queries == 1

    def test_repair_restores_disk(self):
        clock = FakeClock()
        svc = make_service(time_fn=clock)
        svc.mark_failed([0, 1])
        svc.mark_repaired([0])
        assert svc.failed_disks == frozenset({1})

    def test_unknown_disk_rejected(self):
        svc = make_service(time_fn=FakeClock())
        with pytest.raises(StorageConfigError):
            svc.mark_failed([99])

    def test_unknown_disk_in_a_list_applies_nothing(self):
        # every id is validated before any is applied: a bad id after a
        # good one must not leave the good one failed or repaired
        svc = make_service(time_fn=FakeClock())
        rec = svc.submit([(i, j) for i in range(3) for j in range(3)])
        busy = next(iter(rec.assignment.values()))
        svc.mark_failed([busy])
        horizons = list(svc._busy_until)
        assert horizons[busy] > 0

        with pytest.raises(StorageConfigError):
            svc.mark_failed([(busy + 1) % 10, 999])
        assert svc.failed_disks == frozenset({busy})
        with pytest.raises(StorageConfigError):
            svc.mark_repaired([busy, 999])
        assert svc.failed_disks == frozenset({busy})
        assert svc._busy_until == horizons

    def test_data_unavailable_propagates(self):
        svc = make_service(N=3, time_fn=FakeClock())
        # fail both replicas of bucket (0, 0)
        reps = svc.placement.allocation.replicas_of(0, 0)
        svc.mark_failed(list(reps))
        with pytest.raises(InfeasibleScheduleError, match="lost all replicas"):
            svc.submit([(0, 0)])


class TestConcurrency:
    def test_parallel_submissions_consistent(self):
        svc = make_service(time_fn=FakeClock())
        errors = []

        def worker():
            try:
                for _ in range(10):
                    svc.submit([(0, 0), (1, 1), (2, 2)])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        st = svc.stats()
        assert st.queries == 40
        assert st.buckets == 120
        assert len(svc.history) == 40

    def test_close_waits_for_the_service_lock(self):
        # regression for the interprocedural-locks finding: close() used
        # to tear down the backend without the lock, racing an in-flight
        # _solve_locked backend call
        svc = make_service(time_fn=FakeClock())
        closed = threading.Event()

        def closer():
            svc.close()
            closed.set()

        with svc._lock:  # stand-in for a solve holding the lock
            t = threading.Thread(target=closer)
            t.start()
            assert not closed.wait(0.1), "close() ran while the lock was held"
        t.join(timeout=5)
        assert closed.is_set()

    def test_close_is_idempotent(self):
        # pinned to the thread backend: only it still serves after close
        svc = make_service(time_fn=FakeClock(), solve_backend="thread")
        svc.close()
        svc.close()
        svc.submit([(0, 0)])  # thread backend still serves after close

    def test_process_backend_close_is_idempotent_then_refuses(self):
        svc = make_service(
            time_fn=FakeClock(), solve_backend="process", cache_size=0
        )
        svc.submit([(0, 0)])
        svc.close()
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit([(1, 1)])


class TestSolverChoice:
    def test_custom_solver(self):
        svc = make_service(time_fn=FakeClock(), solver="ff-incremental")
        rec = svc.submit([(0, 0)])
        assert rec.response_time_ms > 0

    def test_decision_time_recorded(self):
        svc = make_service(time_fn=FakeClock())
        rec = svc.submit([(0, 0), (1, 0)])
        assert rec.decision_time_ms > 0
        assert svc.stats().mean_decision_ms > 0


class TestQueryObjects:
    def test_range_query_accepted(self):
        from repro.workloads import RangeQuery

        svc = make_service(time_fn=FakeClock())
        q = RangeQuery(0, 0, 2, 2, 5)
        rec = svc.submit(q)
        assert rec.num_buckets == 4
        assert sorted(rec.assignment) == sorted(q.buckets())
        assert rec.query is q

    def test_arbitrary_query_accepted(self):
        from repro.workloads import ArbitraryQuery

        svc = make_service(time_fn=FakeClock())
        q = ArbitraryQuery(((0, 0), (3, 4)), 5)
        rec = svc.submit(q)
        assert rec.num_buckets == 2
        assert rec.query is q

    def test_repeated_bucket_is_rejected_after_wraparound(self):
        svc = make_service(time_fn=FakeClock())  # N=5
        with pytest.raises(WorkloadError, match="duplicate bucket"):
            svc.submit([(0, 0), (0, 0), (5, 5)])
        with pytest.raises(WorkloadError, match="duplicate bucket"):
            svc.submit([(0, 0), (5, 5)])  # (5, 5) wraps to (0, 0)
        st = svc.stats()
        assert (st.queries, st.buckets) == (0, 0)
        rec = svc.submit([(0, 0), (4, 4)])
        assert rec.num_buckets == len(rec.assignment) == 2

    def test_raw_coords_recorded_on_record(self):
        svc = make_service(time_fn=FakeClock())
        coords = [(0, 0), (1, 1)]
        rec = svc.submit(coords)
        assert rec.query == coords
        assert rec.cache_hit in (False, True)
        assert rec.batch_size == 1


class TestNewStats:
    def test_percentiles_in_snapshot(self):
        clock = FakeClock()
        svc = make_service(time_fn=clock)
        for k in range(1, 6):
            svc.submit([(i, 0) for i in range(k)])
            clock.t += 100.0
        st = svc.stats()
        assert 0 < st.p50_response_ms <= st.p95_response_ms
        # interpolated within histogram buckets: bounded by the edge
        # above the observed max, not by the max itself
        hist = svc.registry.get("repro_service_response_ms")
        ceiling = next(
            (b for b in hist.bounds if b >= st.max_response_ms),
            st.max_response_ms,
        )
        assert st.p95_response_ms <= ceiling + 1e-9

    def test_repair_clears_queue_depth_gauge(self):
        clock = FakeClock()
        svc = make_service(time_fn=clock)
        rec = svc.submit([(i, j) for i in range(3) for j in range(3)])
        busy = next(iter(rec.assignment.values()))
        gauge = svc.registry.get(
            "repro_service_queue_depth_ms", {"disk": str(busy)}
        )
        assert gauge.value > 0
        svc.mark_failed([busy])
        svc.mark_repaired([busy])
        assert gauge.value == 0.0
