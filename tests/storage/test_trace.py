"""Tests for the synthetic trace generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decluster import make_placement
from repro.errors import WorkloadError
from repro.service import SchedulerService, ServiceConfig
from repro.storage import StorageSystem, poisson_trace, session_trace


@pytest.fixture
def rng():
    return np.random.default_rng(13)


class TestPoissonTrace:
    def test_arrivals_monotone(self, rng):
        events = poisson_trace(6, 20, 10.0, rng)
        assert len(events) == 20
        times = [e.arrival_ms for e in events]
        assert times == sorted(times)
        assert times[0] > 0

    def test_queries_valid(self, rng):
        for ev in poisson_trace(5, 10, 5.0, rng, qtype="arbitrary", load=2):
            assert 1 <= ev.num_buckets <= 25
            assert len(set(ev.buckets)) == ev.num_buckets

    def test_interarrival_scales(self, rng):
        fast = poisson_trace(5, 200, 1.0, np.random.default_rng(1))
        slow = poisson_trace(5, 200, 100.0, np.random.default_rng(1))
        assert slow[-1].arrival_ms > 10 * fast[-1].arrival_ms

    def test_validation(self, rng):
        with pytest.raises(WorkloadError):
            poisson_trace(5, -1, 1.0, rng)
        with pytest.raises(WorkloadError):
            poisson_trace(5, 3, 0.0, rng)

    def test_empty_trace(self, rng):
        assert poisson_trace(5, 0, 1.0, rng) == []


class TestSessionTrace:
    def test_structure(self, rng):
        events = session_trace(8, 3, 5, rng)
        assert len(events) == 15
        times = [e.arrival_ms for e in events]
        assert times == sorted(times)

    def test_viewport_sizes(self, rng):
        events = session_trace(8, 2, 10, rng, viewport=(2, 3))
        sizes = {e.num_buckets for e in events}
        assert 6 in sizes  # 2x3 viewport pans
        assert any(s > 6 for s in sizes)  # zoom-outs

    def test_viewport_validation(self, rng):
        with pytest.raises(WorkloadError):
            session_trace(4, 1, 2, rng, viewport=(5, 1))
        with pytest.raises(WorkloadError):
            session_trace(4, 1, 2, rng, viewport=(0, 1))

    def test_spatial_locality(self, rng):
        """Consecutive pan queries within a session overlap heavily."""
        events = session_trace(10, 1, 8, rng, think_time_ms=1.0)
        overlaps = []
        for a, b in zip(events, events[1:]):
            if a.num_buckets == b.num_buckets == 6:  # both plain pans
                overlaps.append(len(set(a.buckets) & set(b.buckets)))
        assert overlaps and np.mean(overlaps) >= 2


class TestTraceThroughReplay:
    def test_replayable(self, rng):
        events = poisson_trace(4, 8, 5.0, rng)
        placement = make_placement("orthogonal", 4, num_sites=1, seed=0)
        config = ServiceConfig(
            solver="greedy-finish-time", cache_size=0, solve_backend="thread"
        )
        svc = SchedulerService(
            StorageSystem.homogeneous(4, "cheetah"), placement, config
        )
        records = [svc.submit(ev.buckets, arrival_ms=ev.arrival_ms) for ev in events]
        assert [r.arrival_ms for r in records] == [ev.arrival_ms for ev in events]
        assert svc.stats().queries == 8
        assert svc.stats().mean_response_ms > 0
