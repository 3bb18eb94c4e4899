"""OnlineScheduler: lifecycle, drain edge cases, predictive admission.

The drain edge cases — drain-to-zero then re-admit, failure of a disk
whose transfer just drained, event-clock ties — run with the invariant
sanitizer armed and are parametrized over both solve backends (the
process backend has no service-side cache, so a re-admit starts cold
there; everything else must hold identically)."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import invariants
from repro.core import solve
from repro.core.problem import RetrievalProblem
from repro.decluster import make_placement
from repro.errors import (
    InfeasibleScheduleError,
    PredictedOverloadError,
    StorageConfigError,
)
from repro.online import OnlineConfig, OnlineRecord, OnlineScheduler
from repro.service import SchedulerService, ServiceConfig
from repro.storage import StorageSystem

N = 5


@pytest.fixture(autouse=True)
def _armed(monkeypatch):
    monkeypatch.setattr(invariants, "ENABLED", True)


@pytest.fixture(params=["thread", "process"])
def backend(request, monkeypatch):
    monkeypatch.setenv("REPRO_SOLVE_BACKEND", request.param)
    return request.param


def deployment(seed=0):
    rng = np.random.default_rng(seed)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], N, delays_ms=[1.0, 4.0], rng=rng
    )
    return system, placement


def make_online(seed=0, **online_kw):
    system, placement = deployment(seed)
    config = ServiceConfig(mode="online", online=OnlineConfig(**online_kw))
    return SchedulerService(system, placement, config=config)


BIG = [(i, j) for i in range(3) for j in range(3)]
SMALL = [(4, 4), (3, 3)]


class TestDispatchAndConfig:
    def test_mode_online_constructs_online_scheduler(self):
        svc = make_online()
        try:
            assert isinstance(svc, OnlineScheduler)
        finally:
            svc.close()

    def test_offline_mode_stays_base_class(self):
        system, placement = deployment()
        svc = SchedulerService(system, placement, config=ServiceConfig())
        try:
            assert not isinstance(svc, OnlineScheduler)
        finally:
            svc.close()

    def test_direct_construction_rejects_offline_config(self):
        system, placement = deployment()
        with pytest.raises(ValueError, match="mode == 'online'"):
            OnlineScheduler(system, placement, ServiceConfig())

    def test_online_knobs_require_online_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ServiceConfig(online=OnlineConfig())

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError, match="clock"):
            OnlineConfig(clock="sundial")

    def test_unknown_replan_solver_rejected_at_construction(self, backend):
        """Fails before any submit (and before a fleet worker starts),
        not at the first mark_failed that re-plans."""
        children = set(multiprocessing.active_children())
        with pytest.raises(KeyError, match="unknown solver 'nope'"):
            make_online(replan_solver="nope")
        assert set(multiprocessing.active_children()) == children


class TestNonFiniteArrivals:
    def test_infinite_arrival_is_refused_and_leaves_the_clock_alone(self):
        svc = make_online()
        try:
            svc.submit(SMALL, arrival_ms=10.0)
            with pytest.raises(StorageConfigError, match="finite"):
                svc.submit(SMALL, arrival_ms=float("inf"))
            assert svc.now_ms == 10.0
            assert svc.submit(SMALL, arrival_ms=20.0).arrival_ms == 20.0
            assert svc.online_stats().admitted == 2
        finally:
            svc.close()

    def test_nan_arrival_is_refused_and_keeps_the_order_check(self):
        svc = make_online()
        try:
            svc.submit(SMALL, arrival_ms=10.0)
            with pytest.raises(StorageConfigError, match="finite"):
                svc.submit(SMALL, arrival_ms=float("nan"))
            with pytest.raises(StorageConfigError, match="backwards"):
                svc.submit(SMALL, arrival_ms=0.5)
        finally:
            svc.close()


class TestLifecycle:
    def test_submit_drain_complete(self):
        svc = make_online()
        try:
            rec = svc.submit(BIG, arrival_ms=0.0)
            assert isinstance(rec, OnlineRecord)
            assert rec.query_id == 0
            assert sum(rec.counts_per_disk) == len(BIG)
            assert rec.completion_ms == rec.arrival_ms + rec.response_time_ms
            assert svc.inflight == 1
            final = svc.drain()
            # the clock stops at the last *drain*; the record's
            # completion additionally counts that disk's network delay
            assert 0 < final <= rec.completion_ms
            st = svc.online_stats()
            assert (st.admitted, st.completed, st.inflight) == (1, 1, 0)
            assert st.drains == sum(1 for k in rec.counts_per_disk if k)
        finally:
            svc.close()

    def test_completion_resolves_before_same_tick_arrival(self):
        """A drain and an arrival on the same tick: completion first,
        so the arrival sees a fully drained backlog."""
        svc = make_online()
        try:
            rec = svc.submit(BIG, arrival_ms=0.0)
            later = svc.submit(SMALL, arrival_ms=rec.completion_ms)
            assert svc.online_stats().completed == 1
            assert all(x == 0.0 for x in later.loads_before)
        finally:
            svc.close()

    def test_overlapping_arrival_sees_backlog(self):
        svc = make_online()
        try:
            svc.submit(BIG, arrival_ms=0.0)
            rec = svc.submit(BIG, arrival_ms=1.0)
            assert any(x > 0 for x in rec.loads_before)
        finally:
            svc.close()

    def test_clock_cannot_run_backwards(self):
        svc = make_online()
        try:
            svc.submit(SMALL, arrival_ms=10.0)
            with pytest.raises(StorageConfigError, match="backwards"):
                svc.submit(SMALL, arrival_ms=9.0)
            with pytest.raises(StorageConfigError, match="backwards"):
                svc.advance_to(5.0)
        finally:
            svc.close()

    def test_advance_to_applies_due_drains(self):
        svc = make_online()
        try:
            rec = svc.submit(BIG, arrival_ms=0.0)
            svc.advance_to(rec.completion_ms)
            assert svc.inflight == 0
            assert svc.now_ms == rec.completion_ms
        finally:
            svc.close()


class TestRepairEdgeCases:
    def test_repair_to_zero_then_readmit(self, backend):
        """Draining every transfer, then re-admitting the same signature
        from its warm flow, must reproduce the idle-system optimum."""
        svc = make_online()
        try:
            first = svc.submit(BIG, arrival_ms=0.0)
            svc.drain()
            again = svc.submit(BIG, arrival_ms=first.completion_ms + 100.0)
            assert again.response_time_ms == first.response_time_ms
            assert again.counts_per_disk == first.counts_per_disk
            st = svc.online_stats()
            if backend == "thread":
                assert again.cache_hit
            assert st.completed == 1 and st.admitted == 2
        finally:
            svc.close()

    def test_fail_disk_whose_flow_just_released(self, backend):
        """A disk failing immediately after its transfer drained: the
        warm flow still routes through that disk; the next admit must
        route around it without tripping the sanitizer."""
        svc = make_online()
        try:
            rec = svc.submit(BIG, arrival_ms=0.0)
            svc.drain()
            victim = max(
                range(len(rec.counts_per_disk)),
                key=rec.counts_per_disk.__getitem__,
            )
            svc.mark_failed([victim])
            again = svc.submit(BIG, arrival_ms=rec.completion_ms + 50.0)
            assert again.degraded
            assert again.counts_per_disk[victim] == 0
            assert again.failed_disks == (victim,)
            svc.drain()
            assert svc.online_stats().completed == 2
        finally:
            svc.close()

    def test_same_tick_arrivals_and_drains(self, backend):
        """Event-clock ties: two arrivals on one tick, and per-disk
        drains landing on the same instant, must all resolve."""
        svc = make_online()
        try:
            svc.submit(BIG, arrival_ms=5.0)
            svc.submit(SMALL, arrival_ms=5.0)  # same tick is legal
            assert svc.inflight == 2
            final = svc.drain()
            st = svc.online_stats()
            assert (st.admitted, st.completed) == (2, 2)
            assert svc.inflight == 0
            assert final == svc.now_ms
        finally:
            svc.close()

    def test_failure_mid_flight_replans_pending_work(self, backend):
        svc = make_online()
        try:
            rec = svc.submit(BIG, arrival_ms=0.0)
            victim = max(
                range(len(rec.counts_per_disk)),
                key=rec.counts_per_disk.__getitem__,
            )
            svc.mark_failed([victim])
            assert svc.online_stats().replans >= 1
            assert svc.inflight == 1
            svc.drain()
            assert svc.online_stats().completed == 1
        finally:
            svc.close()

    def test_repair_mid_flight_never_worsens(self, backend):
        svc = make_online()
        try:
            first = svc.submit(BIG, arrival_ms=0.0)
            victim = max(
                range(len(first.counts_per_disk)),
                key=first.counts_per_disk.__getitem__,
            )
            svc.mark_failed([victim])
            svc.drain()
            svc.mark_repaired([victim])
            rec = svc.submit(BIG, arrival_ms=svc.now_ms + 100.0)
            assert not rec.degraded
            svc.drain()
            assert svc.online_stats().completed == 2
        finally:
            svc.close()

    def test_unknown_disk_in_a_list_changes_nothing(self, backend):
        """``mark_*`` with one unknown id leaves the failed set, the busy
        horizons, the in-flight plan and the clock exactly as they were
        (no partial failure that skipped its re-plan)."""

        def state(svc):
            return (
                svc.failed_disks,
                list(svc._busy_until),
                {
                    q: (
                        dict(f.assignment),
                        {j: (p.at_ms, p.units) for j, p in f.pending.items()},
                    )
                    for q, f in svc._inflight.items()
                },
                svc.now_ms,
                svc.online_stats(),
            )

        svc = make_online()
        try:
            rec = svc.submit(BIG, arrival_ms=0.0)
            svc.submit(SMALL, arrival_ms=1.0)
            busy = sorted(
                range(len(rec.counts_per_disk)),
                key=rec.counts_per_disk.__getitem__,
            )
            victim, other = busy[-1], busy[-2]
            svc.mark_failed([victim])
            before = state(svc)
            assert before[2]  # work is in flight
            with pytest.raises(StorageConfigError):
                svc.mark_failed([other, 999])
            assert state(svc) == before
            with pytest.raises(StorageConfigError):
                svc.mark_repaired([victim, 999])
            assert state(svc) == before
            svc.drain()
            assert svc.online_stats().completed == 2
        finally:
            svc.close()

    def test_bucket_losing_every_replica_drops_flight(self, backend):
        svc = make_online()
        try:
            probe = RetrievalProblem.from_query(
                svc.system, svc.placement, [(0, 0)]
            )
            replicas = sorted(probe.replicas[0])
            svc.submit([(0, 0), (1, 1)], arrival_ms=0.0)
            with pytest.raises(InfeasibleScheduleError):
                svc.mark_failed(replicas)
            # the doomed flight is dropped, the clock cannot wedge
            assert svc.inflight == 0
            svc.drain()
        finally:
            svc.close()


class TestReplanReplicaSet:
    """Re-plans start from the query's full replica set and degrade it by
    the failures current at re-plan time, not those at admission."""

    GRID = [(i, j) for i in range(N) for j in range(N)]

    def test_failure_after_repair_uses_repaired_disk(self, backend):
        """Admitted while disk 0 was down, the query may lean on disk 5
        (bucket (0, 0) has replicas {0, 5}).  Once 0 is repaired, losing
        5 must re-plan onto 0 instead of declaring the bucket lost."""
        svc = make_online()
        try:
            svc.mark_failed([0])
            rec = svc.submit(self.GRID, arrival_ms=0.0)
            assert rec.degraded and rec.counts_per_disk[0] == 0
            svc.mark_repaired([0])
            svc.mark_failed([5])
            assert svc.inflight == 1
            svc.drain()
            assert svc.online_stats().completed == 1
        finally:
            svc.close()

    def test_improvement_replan_moves_work_to_repaired_disk(self, backend):
        """Repairing disk 0 before any transfer drains: the full-set
        optimum is strictly better than the degraded plan, so the
        improvement re-plan adopts it and schedules work on disk 0."""
        svc = make_online()
        try:
            svc.mark_failed([0])
            rec = svc.submit(self.GRID, arrival_ms=0.0)
            full = RetrievalProblem.from_query(
                svc.system, svc.placement, self.GRID
            )
            svc.system.set_loads(rec.loads_before)
            best = solve(full, solver="pr-binary").response_time_ms
            assert best < rec.response_time_ms  # strictly better exists
            svc.mark_repaired([0])
            assert svc.online_stats().replans == 1
            flight = svc._inflight[rec.query_id]
            assert 0 in flight.pending
            assert 0 in flight.assignment.values()
            svc.drain()
            assert svc.online_stats().completed == 1
        finally:
            svc.close()


class TestPredictiveAdmission:
    def test_config_level_target_sheds(self):
        svc = make_online(max_predicted_response_ms=0.5)
        try:
            with pytest.raises(PredictedOverloadError) as err:
                svc.submit(BIG, arrival_ms=0.0)
            exc = err.value
            assert exc.predicted_ms > exc.target_ms == 0.5
            assert exc.retry_after_ms == pytest.approx(
                exc.predicted_ms - exc.target_ms + 5.0
            )
            assert svc.online_stats().shed_predicted == 1
            assert svc.inflight == 0
        finally:
            svc.close()

    def test_per_call_deadline_tightens_target(self):
        svc = make_online()
        try:
            svc.submit(BIG, arrival_ms=0.0)  # no config target: admitted
            with pytest.raises(PredictedOverloadError):
                svc.submit(BIG, arrival_ms=0.0, deadline_ms=0.1)
            rec = svc.submit(BIG, arrival_ms=0.0, deadline_ms=1e9)
            assert rec.predicted_ms <= 1e9
        finally:
            svc.close()

    def test_shed_query_leaves_no_state(self):
        """A shed arrival must not advance horizons or leak in-flight
        bookkeeping — the next admit sees an untouched system."""
        svc = make_online(max_predicted_response_ms=0.5)
        try:
            with pytest.raises(PredictedOverloadError):
                svc.submit(BIG, arrival_ms=0.0)
            assert svc.inflight == 0
            # a later admit (relaxed per-call target cannot help here,
            # so compare against a fresh scheduler instead)
            fresh = make_online(seed=0)
            try:
                want = fresh.submit(SMALL, arrival_ms=1.0)
            finally:
                fresh.close()
            relaxed = make_online(seed=0, max_predicted_response_ms=1e9)
            try:
                with pytest.raises(PredictedOverloadError):
                    relaxed.submit(BIG, arrival_ms=0.0, deadline_ms=0.1)
                got = relaxed.submit(SMALL, arrival_ms=1.0)
            finally:
                relaxed.close()
            assert all(x == 0.0 for x in got.loads_before)
            assert got.response_time_ms == want.response_time_ms
            assert got.counts_per_disk == want.counts_per_disk
        finally:
            svc.close()

    def test_predicted_is_a_true_lower_bound(self):
        svc = make_online()
        try:
            for t, q in ((0.0, BIG), (1.0, SMALL), (2.0, BIG)):
                rec = svc.submit(q, arrival_ms=t)
                assert rec.predicted_ms <= rec.response_time_ms
        finally:
            svc.close()
