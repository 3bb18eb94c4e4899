"""The repro.api facade: one front door for every deployment shape.

The three historical entry styles (one-shot solve, SchedulerService,
net clients) must all be reachable through ``api.Scheduler`` with the
*same* ``submit(query, *, deadline=None)`` spelling.  The service classes are not re-exported from the top-level
``repro`` package.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import api
from repro.decluster import make_placement
from repro.errors import PredictedOverloadError
from repro.net import OverloadedError, RetryPolicy
from repro.online import OnlineConfig
from repro.service import ServiceConfig
from repro.storage import StorageSystem
from repro.workloads.queries import RangeQuery

N = 5


def deployment(seed=0):
    rng = np.random.default_rng(seed)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], N, delays_ms=[1.0, 4.0], rng=rng
    )
    return system, placement


class TestLocal:
    def test_submit_accepts_coords_and_query_objects(self):
        with api.Scheduler().local(*deployment()) as sched:
            rec = sched.submit([(0, 0), (1, 1)])
            assert rec.num_buckets == 2
            rec = sched.submit(RangeQuery(0, 0, 2, 2, N))
            assert rec.num_buckets == 4
            assert sched.stats().queries == 2

    def test_mark_failed_and_repaired(self):
        with api.Scheduler().local(*deployment()) as sched:
            sched.mark_failed([0])
            rec = sched.submit([(0, 0), (2, 2)])
            assert rec.degraded or 0 not in rec.assignment.values()
            sched.mark_repaired([0])

    def test_online_mode_deadline_sheds_locally(self):
        config = ServiceConfig(mode="online", online=OnlineConfig())
        with api.Scheduler(config).local(*deployment()) as sched:
            big = [(i, j) for i in range(3) for j in range(3)]
            rec = sched.submit(big, arrival_ms=0.0)
            assert rec.response_time_ms > 0
            with pytest.raises(PredictedOverloadError) as err:
                sched.submit(big, arrival_ms=0.0, deadline=0.01)
            assert err.value.retry_after_ms > 0

    def test_builder_is_reusable(self):
        builder = api.Scheduler(ServiceConfig(cache_size=8))
        s1 = builder.local(*deployment(0))
        s2 = builder.local(*deployment(1))
        try:
            assert s1.service is not s2.service
            assert s1.service.config.cache_size == 8
        finally:
            s1.close()
            s2.close()


class TestServeAndConnect:
    def test_serve_returns_connected_handle(self):
        with api.Scheduler().serve(*deployment(), port=0) as sched:
            assert sched.port > 0
            rec = sched.submit([(0, 0), (1, 1)])
            assert rec.num_buckets == 2
            stats = sched.stats()
            assert stats["queries"] == 1

    def test_connect_to_served_deployment(self):
        served = api.Scheduler().serve(*deployment(), port=0)
        try:
            with api.Scheduler.connect(served.host, served.port) as remote:
                rec = remote.submit([(2, 2)])
                assert rec.num_buckets == 1
        finally:
            served.close()

    def test_online_deadline_sheds_over_the_wire(self):
        config = ServiceConfig(
            mode="online", online=OnlineConfig(clock="wall")
        )
        big = [(i, j) for i in range(3) for j in range(3)]
        with api.Scheduler(config).serve(*deployment(), port=0) as sched:
            with api.Scheduler.connect(
                sched.host, sched.port, retry=RetryPolicy(attempts=1)
            ) as remote:
                with pytest.raises(OverloadedError) as err:
                    remote.submit(big, deadline=0.01)
                assert err.value.retry_after_ms > 0


class TestDeprecationShims:
    def test_unknown_top_level_attribute_still_raises(self):
        # the service entry points live in their layers (or behind
        # repro.api), not at the top level
        for name in (
            "does_not_exist",
            "SchedulerService",
            "ShardedSchedulerService",
            "ServiceConfig",
            "SchedulerClient",
        ):
            with pytest.raises(AttributeError):
                getattr(repro, name)

    def test_api_reexports_solve(self):
        from repro.core.api import solve as core_solve

        assert api.solve is core_solve
