"""Tests for the event-driven simulator and online replay."""

from __future__ import annotations

import pytest

from repro.decluster import make_placement
from repro.errors import InfeasibleScheduleError, StorageConfigError
from repro.service import SchedulerService, ServiceConfig
from repro.storage import StorageSystem, simulate_schedule


def small_system() -> StorageSystem:
    sys_ = StorageSystem.homogeneous(4, "cheetah", num_sites=2, delay_ms=[2, 1])
    sys_.set_loads([1, 0, 0, 3])
    return sys_


class TestSimulateSchedule:
    def test_matches_analytic_model(self):
        sys_ = small_system()
        assignment = {f"b{k}": k % 4 for k in range(10)}
        res = simulate_schedule(sys_, assignment)
        analytic = max(
            sys_.finish_time(d, c) for d, c in res.buckets_by_disk.items()
        )
        assert res.response_time_ms == pytest.approx(analytic)

    def test_empty_schedule(self):
        res = simulate_schedule(small_system(), {})
        assert res.response_time_ms == 0.0
        assert res.bottleneck_disk() is None

    def test_events_are_back_to_back(self):
        sys_ = small_system()
        res = simulate_schedule(sys_, {"a": 0, "b": 0, "c": 0})
        ev = sorted(
            (e for e in res.events if e.disk_id == 0), key=lambda e: e.start_ms
        )
        # first bucket starts after delay + initial load
        assert ev[0].start_ms == pytest.approx(2 + 1)
        for prev, nxt in zip(ev, ev[1:]):
            assert nxt.start_ms == pytest.approx(prev.end_ms)
        assert all(e.service_ms == pytest.approx(6.1) for e in ev)

    def test_bottleneck_disk(self):
        sys_ = small_system()
        res = simulate_schedule(sys_, {"a": 0, "b": 1, "c": 1, "d": 1})
        assert res.bottleneck_disk() == 1  # 3 buckets beats 1 bucket + loads

    def test_utilization_bounds(self):
        sys_ = small_system()
        res = simulate_schedule(sys_, {"a": 0, "b": 1})
        for d in (0, 1):
            assert 0 < res.utilization(d) <= 1
        assert res.utilization(2) == 0.0

    def test_unknown_disk_rejected(self):
        with pytest.raises(InfeasibleScheduleError):
            simulate_schedule(small_system(), {"a": 99})


class TestOnlineReplay:
    """A timed stream replayed through :class:`SchedulerService`.

    Pinned ``arrival_ms`` values drive the service's busy-horizon ledger:
    before each decision every disk's ``X_j`` is its backlog at that
    arrival (Table I), which the tests read back from ``service.system``.
    """

    @staticmethod
    def service(system, N, num_sites=1):
        placement = make_placement("orthogonal", N, num_sites=num_sites, seed=0)
        config = ServiceConfig(
            solver="greedy-finish-time", cache_size=0, solve_backend="thread"
        )
        return SchedulerService(system, placement, config)

    def test_loads_evolve(self):
        svc = self.service(StorageSystem.homogeneous(2, "cheetah"), 2)
        svc.submit([(0, 0), (0, 1)], arrival_ms=0.0)
        assert list(svc.system.loads()) == [0.0, 0.0]
        # second query arrives before disks finish -> positive loads
        svc.submit([(1, 0), (1, 1)], arrival_ms=1.0)
        assert any(x > 0 for x in svc.system.loads())

    def test_loads_drain_when_idle(self):
        svc = self.service(StorageSystem.homogeneous(2, "cheetah"), 2)
        svc.submit([(0, 0)], arrival_ms=0.0)
        svc.submit([(0, 1)], arrival_ms=10_000.0)
        assert list(svc.system.loads()) == [0.0, 0.0]

    def test_arrivals_must_be_monotone(self):
        svc = self.service(StorageSystem.homogeneous(2, "cheetah"), 2)
        svc.submit([(0, 0)], arrival_ms=5.0)
        with pytest.raises(StorageConfigError, match="non-decreasing"):
            svc.submit([(0, 1)], arrival_ms=4.0)

    def test_unassigned_bucket_detected(self):
        """A bucket no live disk holds is refused, never left unassigned."""
        svc = self.service(StorageSystem.homogeneous(2, "cheetah"), 2)
        svc.mark_failed([0, 1])
        with pytest.raises(InfeasibleScheduleError, match="lost all replicas"):
            svc.submit([(0, 0)], arrival_ms=0.0)
        assert svc.stats().queries == 0

    def test_run_stream_and_stats(self):
        svc = self.service(StorageSystem.homogeneous(2, "cheetah"), 2)
        stream = [(0.0, [(0, 0)]), (1.0, [(0, 1), (1, 0)]), (2.0, [(1, 1)])]
        records = [svc.submit(b, arrival_ms=t) for t, b in stream]
        stats = svc.stats()
        assert stats.queries == len(records) == 3
        assert stats.mean_response_ms > 0
        assert stats.max_response_ms >= stats.mean_response_ms
        assert records[-1].arrival_ms == 2.0

    def test_empty_replay_stats(self):
        stats = self.service(StorageSystem.homogeneous(2, "cheetah"), 2).stats()
        assert stats.mean_response_ms == 0.0
        assert stats.max_response_ms == 0.0

    def test_response_matches_offline_simulation(self):
        """Each decision's response == simulator on the loads it saw."""
        sys_ = StorageSystem.homogeneous(6, "raptor", num_sites=2, delay_ms=[3, 0])
        svc = self.service(sys_, 3, num_sites=2)
        for arrival in (0.0, 2.0):
            rec = svc.submit(
                [(i, j) for i in range(2) for j in range(3)], arrival_ms=arrival
            )
            res = simulate_schedule(svc.system, rec.assignment)
            assert rec.response_time_ms == pytest.approx(res.response_time_ms)
        assert any(x > 0 for x in svc.system.loads())
