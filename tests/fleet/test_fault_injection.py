"""Worker-death fault injection: the fleet, the server, the CLI.

A fleet worker killed mid-solve must surface as one failed solve —
:class:`~repro.fleet.WorkerCrashedError` at the fleet layer, an
``INTERNAL`` wire error at the server layer — never a hang, never a
silent retry.  ``INTERNAL`` is non-transient, so a client
:class:`~repro.net.RetryPolicy` does *not* re-submit: submit keeps its
at-most-once semantics even when the infrastructure fails.  The lane is
rebuilt on the spot, so the very next solve routed there succeeds.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.service_bench import _build_deployment
from repro.core import RetrievalProblem
from repro.fleet import SolveFleet, WorkerCrashedError
from repro.fleet.worker import worker_die
from repro.net import RetryPolicy, SchedulerClient
from repro.net.errors import OverloadedError, RemoteError
from repro.net.run import BackgroundServer
from repro.net.server import ServerConfig
from repro.service import SchedulerService, ServiceConfig
from repro.storage import StorageSystem

REPO = Path(__file__).resolve().parents[2]


def small_problem(seed: int = 0) -> RetrievalProblem:
    rng = np.random.default_rng(seed)
    sys_ = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], 2, delays_ms=[1.0, 4.0], rng=rng
    )
    reps = tuple(
        tuple(sorted(rng.choice(4, size=2, replace=False).tolist()))
        for _ in range(4)
    )
    return RetrievalProblem(sys_, reps)


def kill_worker(fleet: SolveFleet, lane: int) -> None:
    """Kill one lane's worker and wait for the corpse to be collected."""
    future = fleet.submit_fn(lane, worker_die)
    with pytest.raises(Exception):
        future.result(timeout=30)


class TestFleetCrash:
    def test_crash_surfaces_then_lane_recovers(self):
        problem = small_problem()
        with SolveFleet(1, cache_size=0) as fleet:
            schedule, _ = fleet.solve(problem)
            kill_worker(fleet, 0)
            # the broken executor raises on the next use; the fleet maps
            # it to WorkerCrashedError and rebuilds the lane
            with pytest.raises(WorkerCrashedError) as exc_info:
                fleet.solve(problem)
            assert exc_info.value.lane == 0
            assert fleet.crashes >= 1
            # rebuilt lane: the same solve now succeeds, same answer
            retry, _ = fleet.solve(problem)
            assert retry.response_time_ms == schedule.response_time_ms
            assert retry.assignment == schedule.assignment

    def test_crash_error_is_not_a_repro_error(self):
        """WorkerCrashedError must not be swallowed by ReproError handlers.

        The net server maps ReproError to INVALID_QUERY (a client bug);
        a dead worker is an infrastructure failure and must reach the
        INTERNAL branch instead.
        """
        from repro.errors import ReproError

        assert not issubclass(WorkerCrashedError, ReproError)
        assert issubclass(WorkerCrashedError, RuntimeError)


class TestServerCrash:
    @pytest.fixture
    def service(self):
        system, placement = _build_deployment(4, seed=0)
        svc = SchedulerService(
            system,
            placement,
            config=ServiceConfig(
                solve_backend="process", fleet_workers=1, cache_size=0
            ),
        )
        try:
            yield svc
        finally:
            svc.close()

    def test_submit_after_worker_death_is_internal_not_retried(self, service):
        fleet = service._fleet
        coords = [[0, 0], [1, 1], [2, 2]]
        with BackgroundServer(service, ServerConfig(max_inflight=8)) as bg:
            client = SchedulerClient(
                bg.host,
                bg.port,
                deadline_ms=60_000.0,
                retry=RetryPolicy(attempts=4, base_backoff_ms=1.0),
            )
            try:
                record = client.submit(coords)
                assert record.num_buckets == 3

                kill_worker(fleet, 0)
                crashes_before = fleet.crashes
                with pytest.raises(RemoteError) as exc_info:
                    client.submit(coords)
                # INTERNAL: the base RemoteError, non-transient — the
                # 4-attempt policy must NOT have re-submitted (a retry
                # would have hit the rebuilt lane and *succeeded*)
                assert exc_info.value.code == "INTERNAL"
                assert exc_info.value.transient is False
                assert not isinstance(exc_info.value, OverloadedError)
                assert "worker crashed" in str(exc_info.value)
                # exactly one solve hit the dead worker: had the policy
                # re-submitted, the retry would have found the rebuilt
                # lane and succeeded instead of raising above
                assert fleet.crashes == crashes_before + 1

                # the lane was rebuilt: an explicit new submit succeeds
                record2 = client.submit(coords)
                assert record2.num_buckets == 3
                assert record2.assignment == record.assignment
            finally:
                client.close()
        # leaving the BackgroundServer context is the drain: reaching
        # this line at all means the crash did not wedge the event loop
        assert len(service.history) == 2


@pytest.mark.slow
class TestServeCliWithFleet:
    def test_sigterm_drains_fleet_server_exit_zero(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2", "--n", "4"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            assert "backend process x2" in line
            time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "drain complete" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
