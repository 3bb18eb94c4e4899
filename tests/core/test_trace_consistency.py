"""Probe-trace consistency against the scaling skeleton's invariants.

For every binary-scaling solver the trace must tell the same story as
the solve itself: candidate ``t`` sequences move the way bisection and
min-cost incrementation move, the terminal record is the returned
response time, and the per-probe operation deltas sum to the
``SolverStats`` totals the solver reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RetrievalProblem, solve
from repro.storage import StorageSystem

BINARY_SOLVERS = ["ff-binary", "pr-binary", "blackbox-binary", "parallel-binary"]
PROBING_SOLVERS = BINARY_SOLVERS + ["pr-incremental"]


def random_problem(rng, n_per_site=3, n_buckets=9):
    sys_ = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"],
        n_per_site,
        delays_ms=rng.integers(0, 6, size=2).tolist(),
        rng=rng,
    )
    sys_.set_loads(rng.integers(0, 5, size=sys_.num_disks).astype(float))
    reps = tuple(
        tuple(sorted(rng.choice(sys_.num_disks, size=2, replace=False).tolist()))
        for _ in range(n_buckets)
    )
    return RetrievalProblem(sys_, reps)


def traced(problem, solver):
    sched = solve(problem, solver=solver, trace=True)
    return sched, sched.stats.extra["trace"]


class TestPhaseStructure:
    @pytest.mark.parametrize("solver", BINARY_SOLVERS)
    def test_phases_in_scaling_order(self, solver):
        # certified midpoints interleave with the binary probes; a
        # cut-certified point stands in for an anchor, binary or
        # increment probe, so it may sit in any of those phases
        order = {
            "anchor": 0, "binary": 1, "certified": 1, "increment": 2,
            "result": 3,
        }
        for seed in range(3):
            _, tr = traced(random_problem(np.random.default_rng(seed)), solver)
            ranks = [order[e.phase] for e in tr if e.phase != "cut_certified"]
            assert ranks == sorted(ranks)
            # the first point is the anchor, probed or cut-certified
            assert tr.events[0].phase in ("anchor", "cut_certified")
            assert len(tr.probes("anchor")) <= 1
            assert len(tr.probes("increment")) >= 1
            assert tr.final.phase == "result"

    @pytest.mark.parametrize("solver", BINARY_SOLVERS)
    def test_anchor_probe_at_closed_form_tmin(self, solver):
        # the anchor point: a probe, or a cut-certified point when every
        # capacity at tmin is 0
        for seed in range(3):
            p = random_problem(np.random.default_rng(seed))
            _, tr = traced(p, solver)
            anchor = tr.events[0]
            assert anchor.t == pytest.approx(p.theoretical_min_deadline())
            assert not anchor.feasible

    def test_pure_incremental_has_only_increment_probes(self):
        _, tr = traced(
            random_problem(np.random.default_rng(2)), "pr-incremental"
        )
        assert {e.phase for e in tr.probes()} == {"increment"}


class TestCandidateMonotonicity:
    """The bisection bracket only narrows; min-cost only climbs."""

    @pytest.mark.parametrize("solver", BINARY_SOLVERS)
    @pytest.mark.parametrize("seed", range(6))
    def test_binary_phase_candidates_monotone(self, solver, seed):
        _, tr = traced(random_problem(np.random.default_rng(seed)), solver)
        infeasible = [e.t for e in tr.probes("binary") if not e.feasible]
        feasible = [e.t for e in tr.probes("binary") if e.feasible]
        # infeasible midpoints raise the lower bracket end: ascending;
        # feasible midpoints lower the upper end: descending
        assert infeasible == sorted(infeasible)
        assert feasible == sorted(feasible, reverse=True)

    @pytest.mark.parametrize("solver", PROBING_SOLVERS)
    @pytest.mark.parametrize("seed", range(6))
    def test_increment_phase_candidates_nondecreasing(self, solver, seed):
        _, tr = traced(random_problem(np.random.default_rng(seed)), solver)
        ts = [e.t for e in tr.probes("increment")]
        assert ts == sorted(ts)

    @pytest.mark.parametrize("solver", BINARY_SOLVERS)
    def test_only_final_increment_probe_is_feasible(self, solver):
        _, tr = traced(random_problem(np.random.default_rng(3)), solver)
        flags = [e.feasible for e in tr.probes("increment")]
        assert flags[-1] is True
        assert all(not f for f in flags[:-1])


class TestFinalEntry:
    @pytest.mark.parametrize("solver", PROBING_SOLVERS)
    @pytest.mark.parametrize("seed", range(6))
    def test_final_entry_equals_schedule_response_time(self, solver, seed):
        sched, tr = traced(random_problem(np.random.default_rng(seed)), solver)
        assert tr.final.t == pytest.approx(sched.response_time_ms)
        assert tr.final.flow == pytest.approx(sched.problem.num_buckets)

    @pytest.mark.parametrize("solver", PROBING_SOLVERS)
    def test_last_probe_reaches_full_flow(self, solver):
        sched, tr = traced(random_problem(np.random.default_rng(4)), solver)
        assert tr.probes()[-1].flow == pytest.approx(
            sched.problem.num_buckets
        )


class TestOperationAccounting:
    @pytest.mark.parametrize("solver", PROBING_SOLVERS)
    @pytest.mark.parametrize("seed", range(6))
    def test_summed_probe_deltas_equal_solver_stats(self, solver, seed):
        sched, tr = traced(random_problem(np.random.default_rng(seed)), solver)
        totals = tr.totals()
        assert totals["probes"] == sched.stats.probes
        assert totals["pushes"] == sched.stats.pushes
        assert totals["relabels"] == sched.stats.relabels
        assert totals["augmentations"] == sched.stats.augmentations

    @pytest.mark.parametrize("solver", PROBING_SOLVERS)
    def test_probe_wall_times_positive_and_bounded(self, solver):
        sched, tr = traced(random_problem(np.random.default_rng(5)), solver)
        walls = [e.wall_s for e in tr.probes()]
        assert all(w >= 0.0 for w in walls)
        assert sum(walls) <= sched.stats.wall_time_s
