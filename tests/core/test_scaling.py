"""Direct tests for the binary-capacity-scaling skeleton.

The solver-level tests establish optimality end to end; these pin the
skeleton's internals: bracket maintenance, StoreFlows/RestoreFlows
discipline, the defensive anchor probe, and prober misuse errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RetrievalProblem, brute_force_response_time, scaling
from repro.core.incremental_pr import SequentialProber
from repro.core.scaling import binary_scaling_solve, incremental_solve
from repro.storage import StorageSystem


def random_problem(seed=0, n_buckets=8):
    rng = np.random.default_rng(seed)
    sys_ = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], 3,
        delays_ms=rng.integers(0, 4, size=2).tolist(), rng=rng,
    )
    sys_.set_loads(rng.integers(0, 4, size=6).astype(float))
    reps = tuple(
        tuple(sorted(rng.choice(6, size=2, replace=False).tolist()))
        for _ in range(n_buckets)
    )
    return RetrievalProblem(sys_, reps)


class TestBinaryScaling:
    def test_returns_optimum(self):
        for seed in range(5):
            p = random_problem(seed)
            sched = binary_scaling_solve(p, SequentialProber(), "test")
            assert sched.response_time_ms == pytest.approx(
                brute_force_response_time(p)
            )

    def test_probe_count_logarithmic(self):
        """Probes ~ anchor + log2(range/min_speed) + final increments."""
        p = random_problem(1, n_buckets=12)
        sched = binary_scaling_solve(p, SequentialProber(), "test")
        span = p.theoretical_max_deadline() - p.theoretical_min_deadline()
        import math

        log_bound = math.ceil(math.log2(max(span / p.min_speed(), 2))) + 1
        # anchor + binary probes + (increments + 1) final-phase probes
        assert sched.stats.probes <= 1 + log_bound + sched.stats.increments + 1

    def test_anchor_fallback_when_tmin_feasible(self, monkeypatch):
        """If the closed-form lower bound is accidentally feasible, the
        bracket re-anchors at [0, tmin] and the result stays optimal."""
        p = random_problem(2)
        opt = brute_force_response_time(p)
        real = scaling.closed_form_bracket
        monkeypatch.setattr(
            scaling,
            "closed_form_bracket",
            # feasible "lower" bound
            lambda terms, q: (opt + 50.0, *real(terms, q)[1:]),
        )
        sched = binary_scaling_solve(p, SequentialProber(), "test")
        assert sched.response_time_ms == pytest.approx(opt)

    def test_huge_upper_bound_only_costs_probes(self, monkeypatch):
        p = random_problem(3)
        opt = brute_force_response_time(p)
        real = scaling.closed_form_bracket

        def huge_tmax(terms, q):
            tmin, tmax, min_speed = real(terms, q)
            return tmin, tmax * 64, min_speed

        monkeypatch.setattr(scaling, "closed_form_bracket", huge_tmax)
        sched = binary_scaling_solve(p, SequentialProber(), "test")
        assert sched.response_time_ms == pytest.approx(opt)

    def test_solver_name_propagates(self):
        p = random_problem(4)
        sched = binary_scaling_solve(p, SequentialProber(), "custom-name")
        assert sched.solver == "custom-name"


class TestIncrementalSolve:
    def test_standalone_from_zero_caps(self):
        p = random_problem(5)
        sched = incremental_solve(p, SequentialProber(), "alg5")
        assert sched.response_time_ms == pytest.approx(
            brute_force_response_time(p)
        )
        # without binary scaling every capacity level is visited: at least
        # as many increments as Algorithm 6 needs, usually far more
        sched6 = binary_scaling_solve(p, SequentialProber(), "alg6")
        assert sched.stats.increments >= sched6.stats.increments

    def test_single_bucket_single_disk(self):
        sys_ = StorageSystem.homogeneous(1, "cheetah")
        p = RetrievalProblem(sys_, ((0,),))
        sched = incremental_solve(p, SequentialProber(), "alg5")
        assert sched.response_time_ms == pytest.approx(6.1)
        assert sched.stats.increments == 1


class TestProberContract:
    def test_probe_before_attach_fails(self):
        prober = SequentialProber()
        with pytest.raises(AssertionError, match="attach"):
            prober.probe()

    def test_blackbox_probe_before_attach_fails(self):
        from repro.core.blackbox import BlackBoxProber

        with pytest.raises(AssertionError, match="attach"):
            BlackBoxProber().probe()

    def test_parallel_probe_before_attach_fails(self):
        from repro.core.parallel import ParallelProber

        with pytest.raises(AssertionError, match="attach"):
            ParallelProber().probe()

    def test_conserving_flags(self):
        from repro.core.blackbox import BlackBoxProber
        from repro.core.parallel import ParallelProber

        assert SequentialProber.conserves_flow is True
        assert ParallelProber.conserves_flow is True
        assert BlackBoxProber.conserves_flow is False
