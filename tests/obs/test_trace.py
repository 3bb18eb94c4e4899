"""Tracing semantics: opt-in, zero effect when off, solve-hook metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RetrievalProblem, solve
from repro.obs import (
    MetricsRegistry,
    ProbeTrace,
    active_trace,
    capture_probes,
    enable_metrics,
    metrics_enabled,
    metrics_registry,
    observe_solve,
    reset_metrics,
)
from repro.storage import StorageSystem


def small_problem(seed=0, n_buckets=8):
    rng = np.random.default_rng(seed)
    sys_ = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], 3, delays_ms=[1.0, 3.0], rng=rng
    )
    sys_.set_loads(rng.integers(0, 5, size=sys_.num_disks).astype(float))
    reps = tuple(
        tuple(sorted(rng.choice(sys_.num_disks, size=2, replace=False).tolist()))
        for _ in range(n_buckets)
    )
    return RetrievalProblem(sys_, reps)


class TestTracingDisabled:
    def test_trace_absent_by_default(self):
        sched = solve(small_problem())
        assert "trace" not in sched.stats.extra

    @pytest.mark.parametrize(
        "solver", ["pr-binary", "ff-binary", "blackbox-binary", "pr-incremental"]
    )
    def test_counters_identical_with_and_without_tracing(self, solver):
        p = small_problem(3)
        plain = solve(p, solver=solver)
        traced = solve(p, solver=solver, trace=True)
        for attr in ("probes", "increments", "pushes", "relabels",
                     "augmentations"):
            assert getattr(plain.stats, attr) == getattr(traced.stats, attr)
        assert plain.response_time_ms == traced.response_time_ms
        assert "trace" not in plain.stats.extra
        assert "trace" in traced.stats.extra

    def test_no_active_trace_outside_context(self):
        assert active_trace() is None
        with capture_probes(ProbeTrace(solver="x")) as tr:
            assert active_trace() is tr
        assert active_trace() is None


class TestTracingEnabled:
    def test_trace_attached_and_typed(self):
        sched = solve(small_problem(), trace=True)
        tr = sched.stats.extra["trace"]
        assert isinstance(tr, ProbeTrace)
        assert tr.solver == "pr-binary"
        assert len(tr.probes()) == sched.stats.probes

    def test_result_event_always_last(self):
        sched = solve(small_problem(1), trace=True)
        tr = sched.stats.extra["trace"]
        assert tr.final.phase == "result"
        assert tr.final.t == pytest.approx(sched.response_time_ms)
        assert [e.phase for e in tr].count("result") == 1

    def test_trace_on_probeless_solver_has_only_result(self):
        sched = solve(small_problem(2), solver="greedy-finish-time", trace=True)
        tr = sched.stats.extra["trace"]
        assert [e.phase for e in tr] == ["result"]

    def test_seq_is_dense(self):
        tr = solve(small_problem(4), trace=True).stats.extra["trace"]
        assert [e.seq for e in tr] == list(range(len(tr)))


class TestSolveMetricsHook:
    def test_global_metrics_off_by_default(self):
        reg = reset_metrics()
        assert not metrics_enabled()
        solve(small_problem())
        assert len(reg) == 0

    def test_enable_metrics_records_per_solver(self):
        reg = reset_metrics()
        enable_metrics()
        try:
            solve(small_problem(), solver="pr-binary")
            solve(small_problem(1), solver="ff-incremental")
            assert metrics_registry() is reg
            c = reg.get("repro_solve_total", {"solver": "pr-binary"})
            assert c is not None and c.value == 1
            h = reg.get("repro_solve_wall_ms", {"solver": "ff-incremental"})
            assert h.count == 1 and h.total > 0
        finally:
            enable_metrics(False)
            reset_metrics()

    def test_explicit_registry_wins_without_global_enable(self):
        global_reg = reset_metrics()
        mine = MetricsRegistry()
        sched = solve(small_problem(), registry=mine)
        assert len(global_reg) == 0
        assert mine.get("repro_solve_total", {"solver": "pr-binary"}).value == 1
        probes = mine.get("repro_probes_total", {"solver": "pr-binary"})
        assert probes.value == sched.stats.probes
        certified = mine.get("repro_certified_total", {"solver": "pr-binary"})
        assert certified.value == sched.stats.certified
        cut = mine.get("repro_cut_certified_total", {"solver": "pr-binary"})
        assert cut.value == sched.stats.cut_certified

    def test_observe_solve_is_reusable_standalone(self):
        reg = MetricsRegistry()
        sched = solve(small_problem())
        observe_solve(sched, reg)
        observe_solve(sched, reg)
        assert reg.get("repro_solve_total", {"solver": "pr-binary"}).value == 2
        h = reg.get("repro_solve_response_ms", {"solver": "pr-binary"})
        assert h.count == 2
        assert h.summary().max == pytest.approx(sched.response_time_ms)
