"""ServiceConfig, and the removed pre-config keyword arguments."""

from __future__ import annotations

import pytest

from repro.decluster import make_placement
from repro.obs import MetricsRegistry
from repro.online import OnlineScheduler
from repro.service import SchedulerService, ServiceConfig
from repro.storage import StorageSystem


def deployment(N=5):
    placement = make_placement("orthogonal", N, num_sites=2, seed=0)
    system = StorageSystem.homogeneous(2 * N, "cheetah", num_sites=2)
    return system, placement


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestConfigValue:
    def test_defaults(self):
        cfg = ServiceConfig()
        assert cfg.solver == "pr-binary"
        assert cfg.batch_window_ms == 0.0
        assert cfg.cache_size > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_window_ms"):
            ServiceConfig(batch_window_ms=-1.0)
        with pytest.raises(ValueError, match="cache_size"):
            ServiceConfig(cache_size=-1)

    def test_with_changes(self):
        cfg = ServiceConfig(solver="ff-binary")
        other = cfg.with_changes(cache_size=0)
        assert other.solver == "ff-binary"
        assert other.cache_size == 0
        assert cfg.cache_size != 0  # frozen original untouched

    def test_service_reads_config(self):
        system, placement = deployment()
        reg = MetricsRegistry()
        cfg = ServiceConfig(
            solver="ff-binary", time_fn=FakeClock(), registry=reg
        )
        svc = SchedulerService(system, placement, config=cfg)
        assert svc.solver == "ff-binary"
        assert svc.registry is reg
        rec = svc.submit([(0, 0)])
        assert rec.response_time_ms > 0


class TestLegacyShim:
    """The pre-config keywords are gone: ``config=`` is the only spelling."""

    def test_legacy_kwargs_raise_type_error(self):
        system, placement = deployment()
        for kwargs in (
            {"solver": "ff-binary"},
            {"time_fn": FakeClock()},
            {"registry": MetricsRegistry()},
            {"engine": "dinic"},  # formerly forwarded as **solver_kwargs
        ):
            with pytest.raises(TypeError):
                SchedulerService(system, placement, **kwargs)
        with pytest.raises(TypeError):
            OnlineScheduler(system, placement, time_fn=FakeClock())

    def test_config_plus_legacy_is_error(self):
        system, placement = deployment()
        with pytest.raises(TypeError):
            SchedulerService(
                system, placement, ServiceConfig(), solver="ff-binary"
            )

    def test_modern_path_does_not_warn(self):
        import warnings

        system, placement = deployment()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SchedulerService(
                system, placement, config=ServiceConfig(time_fn=FakeClock())
            )
