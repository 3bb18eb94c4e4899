"""SolveFleet lanes, routing, the worker's codec check, and backend selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RetrievalProblem, solve
from repro.decluster import make_placement
from repro.fleet import CodecError, SolveFleet
from repro.fleet.codec import encode_problem
from repro.fleet.worker import worker_solve
from repro.service import SchedulerService, ServiceConfig
from repro.storage import StorageSystem

SOLVE_BACKEND_ENV = "REPRO_SOLVE_BACKEND"


def small_problem(seed: int = 0) -> RetrievalProblem:
    rng = np.random.default_rng(seed)
    sys_ = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], 2, delays_ms=[1.0, 4.0], rng=rng
    )
    reps = tuple(
        tuple(sorted(rng.choice(4, size=2, replace=False).tolist()))
        for _ in range(3 + seed % 3)
    )
    return RetrievalProblem(sys_, reps)


@pytest.fixture(scope="module")
def fleet():
    with SolveFleet(2, cache_size=8) as f:
        yield f


class TestLanes:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="num_workers"):
            SolveFleet(0)
        with pytest.raises(ValueError, match="cache_size"):
            SolveFleet(1, cache_size=-1, warmup=False)

    def test_lane_routing_is_stable_and_in_range(self, fleet):
        for seed in range(10):
            sig = small_problem(seed).replicas
            lane = fleet.lane_of(sig)
            assert 0 <= lane < fleet.num_workers
            assert fleet.lane_of(sig) == lane  # deterministic

    def test_worker_pids_are_distinct_processes(self, fleet):
        import os

        pids = fleet.worker_pids()
        assert len(pids) == fleet.num_workers
        assert len(set(pids)) == fleet.num_workers
        assert os.getpid() not in pids

    def test_solve_counts_land_on_the_home_lane(self, fleet):
        problem = small_problem(3)
        lane = fleet.lane_of(problem.replicas)
        before = list(fleet.solves_per_lane)
        fleet.solve(problem)
        after = fleet.solves_per_lane
        assert after[lane] == before[lane] + 1
        other = 1 - lane
        assert after[other] == before[other]

    def test_signature_affinity_keeps_the_worker_cache_warm(self, fleet):
        """The same signature twice: cold then warm, same answer."""
        problem = small_problem(7)
        s1, hit1 = fleet.solve(problem)
        s2, hit2 = fleet.solve(problem)
        assert hit1 is False and hit2 is True
        assert s2.response_time_ms == s1.response_time_ms
        assert s2.assignment == s1.assignment

    def test_closed_fleet_rejects_work(self):
        f = SolveFleet(1, warmup=False)
        f.close()
        f.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            f.solve(small_problem())


class TestWorkerCodec:
    def test_worker_rejects_other_versions(self):
        payload = encode_problem(small_problem())
        for version in (1, 3):
            payload["version"] = version
            with pytest.raises(CodecError, match="version"):
                worker_solve({
                    "problem": payload,
                    "solver": "pr-binary",
                    "solver_kwargs": {},
                    "cache_ns": "",
                    "cache_size": 0,
                })


def deployment(N=4):
    placement = make_placement("orthogonal", N, num_sites=2, seed=0)
    system = StorageSystem.homogeneous(2 * N, "cheetah", num_sites=2)
    return system, placement


class TestBackendRegistry:
    """Backend names resolve in ``ServiceConfig``: explicit > env > thread."""

    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv(SOLVE_BACKEND_ENV, raising=False)
        assert ServiceConfig().resolved_solve_backend() == "thread"
        monkeypatch.setenv(SOLVE_BACKEND_ENV, "process")
        assert ServiceConfig().resolved_solve_backend() == "process"
        # explicit beats the environment
        cfg = ServiceConfig(solve_backend="thread")
        assert cfg.resolved_solve_backend() == "thread"

    def test_unknown_names_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown solve backend"):
            ServiceConfig(solve_backend="carrier-pigeon").resolved_solve_backend()
        monkeypatch.setenv(SOLVE_BACKEND_ENV, "bogus")
        with pytest.raises(ValueError, match="unknown solve backend"):
            ServiceConfig().resolved_solve_backend()

    def test_config_resolves_through_the_registry(self, monkeypatch):
        # the service follows the resolved name: the env alone is enough
        # to put it on a fleet
        monkeypatch.setenv(SOLVE_BACKEND_ENV, "process")
        svc = SchedulerService(*deployment(), config=ServiceConfig(cache_size=0))
        try:
            assert svc.solve_backend == "process"
            assert svc._fleet is not None
            assert svc.cache is None
        finally:
            svc.close()

    def test_config_validates_fleet_workers(self):
        with pytest.raises(ValueError, match="fleet_workers"):
            ServiceConfig(fleet_workers=0)

    def test_thread_backend_matches_core_solve(self):
        system, placement = deployment()
        problem = RetrievalProblem.from_query(
            system, placement, [(0, 0), (1, 1), (2, 3)]
        )
        expected = solve(problem)
        svc = SchedulerService(
            system, placement,
            config=ServiceConfig(solve_backend="thread", cache_size=0),
        )
        assert svc._fleet is None
        record = svc.submit([(0, 0), (1, 1), (2, 3)], arrival_ms=0.0)
        assert record.response_time_ms == expected.response_time_ms
        svc.close()  # nothing to release, must not raise


class TestServiceFleetOwnership:
    def test_service_leaves_a_shared_fleet_open(self, fleet):
        svc = SchedulerService(
            *deployment(),
            config=ServiceConfig(solve_backend="process", fleet=fleet),
        )
        assert svc._fleet is fleet
        svc.submit([(0, 0), (1, 2)], arrival_ms=0.0)
        svc.close()
        svc.close()  # idempotent
        # the shared fleet must survive the service's close
        schedule, _ = fleet.solve(small_problem(2))
        assert len(schedule.assignment) == small_problem(2).num_buckets

    def test_service_closes_its_own_fleet(self):
        svc = SchedulerService(
            *deployment(),
            config=ServiceConfig(solve_backend="process", cache_size=0),
        )
        owned = svc._fleet
        assert owned is not None and owned.num_workers == 1
        try:
            record = svc.submit([(0, 0), (1, 2)], arrival_ms=0.0)
            assert record.cache_hit is False
        finally:
            svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            owned.solve(small_problem(4))
