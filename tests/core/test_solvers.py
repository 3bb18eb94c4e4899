"""Solver correctness: cross-agreement and brute-force optimality.

This is the repository's version of the paper's §VI.F validation: "we
compared the total optimal response time values ... for each algorithm we
tested and found out that the results are matching as expected."
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SOLVERS,
    RetrievalProblem,
    brute_force_response_time,
    get_solver,
    solve,
)
from repro.errors import InfeasibleScheduleError
from repro.maxflow import ENGINES
from repro.storage import StorageSystem

GENERALIZED = [
    "ff-incremental",
    "ff-binary",
    "pr-incremental",
    "pr-binary",
    "blackbox-binary",
    "parallel-binary",
]
BASIC_ONLY = ["ff-basic"]


def random_generalized(rng, n_per_site=3, n_buckets=7):
    sys_ = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"],
        n_per_site,
        delays_ms=rng.integers(0, 6, size=2).tolist(),
        rng=rng,
    )
    total = sys_.num_disks
    sys_.set_loads(rng.integers(0, 5, size=total).astype(float))
    reps = tuple(
        tuple(sorted(rng.choice(total, size=2, replace=False).tolist()))
        for _ in range(n_buckets)
    )
    return RetrievalProblem(sys_, reps)


def random_basic(rng, n_disks=4, n_buckets=7):
    sys_ = StorageSystem.homogeneous(n_disks, "cheetah")
    reps = tuple(
        tuple(sorted(rng.choice(n_disks, size=2, replace=False).tolist()))
        for _ in range(n_buckets)
    )
    return RetrievalProblem(sys_, reps)


class TestOptimality:
    @pytest.mark.parametrize("solver", GENERALIZED)
    def test_generalized_matches_brute_force(self, solver):
        rng = np.random.default_rng(11)
        for _ in range(8):
            p = random_generalized(rng)
            oracle = brute_force_response_time(p)
            sched = solve(p, solver=solver)
            assert sched.response_time_ms == pytest.approx(oracle)
            assert sched.recompute_response_time() == pytest.approx(oracle)

    @pytest.mark.parametrize("solver", GENERALIZED + BASIC_ONLY)
    def test_basic_matches_brute_force(self, solver):
        rng = np.random.default_rng(13)
        for _ in range(8):
            p = random_basic(rng)
            oracle = brute_force_response_time(p)
            sched = solve(p, solver=solver)
            assert sched.response_time_ms == pytest.approx(oracle)

    def test_all_solvers_agree_pairwise(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = random_generalized(rng, n_buckets=9)
            values = {
                name: solve(p, solver=name).response_time_ms
                for name in GENERALIZED
            }
            assert len({round(v, 6) for v in values.values()}) == 1, values


class TestEdgeCases:
    @pytest.mark.parametrize("solver", GENERALIZED + BASIC_ONLY)
    def test_single_bucket_single_disk(self, solver):
        p = RetrievalProblem(StorageSystem.homogeneous(1, "cheetah"), ((0,),))
        sched = solve(p, solver=solver)
        assert sched.response_time_ms == pytest.approx(6.1)
        assert sched.assignment == {0: 0}

    @pytest.mark.parametrize("solver", GENERALIZED)
    def test_all_buckets_on_one_disk(self, solver):
        """The paper's worst case: no spreading possible."""
        p = RetrievalProblem(StorageSystem.homogeneous(3, "cheetah"), ((0,),) * 5)
        sched = solve(p, solver=solver)
        assert sched.response_time_ms == pytest.approx(5 * 6.1)

    @pytest.mark.parametrize("solver", GENERALIZED)
    def test_replication_beats_single_copy(self, solver):
        """Two copies let 4 buckets spread over 4 disks in one access."""
        p = RetrievalProblem(
            StorageSystem.homogeneous(4, "cheetah"),
            ((0, 1), (0, 2), (0, 3), (0, 1)),
        )
        sched = solve(p, solver=solver)
        assert sched.response_time_ms == pytest.approx(6.1)

    @pytest.mark.parametrize("solver", GENERALIZED)
    def test_fast_disk_takes_more(self, solver):
        """An SSD should absorb most buckets when it wins on finish time."""
        from repro.storage import Disk, Site
        from repro.storage.disk import DISK_CATALOG

        sys_ = StorageSystem(
            [
                Site(0, 0.0, [Disk(0, DISK_CATALOG["x25e"])]),
                Site(1, 0.0, [Disk(1, DISK_CATALOG["barracuda"])]),
            ]
        )
        p = RetrievalProblem(sys_, ((0, 1),) * 6)
        sched = solve(p, solver=solver)
        # all six on the x25e (1.2 ms) beats any barracuda involvement
        assert sched.counts_per_disk() == [6, 0]
        assert sched.response_time_ms == pytest.approx(6 * 0.2)

    @pytest.mark.parametrize("solver", GENERALIZED)
    def test_initial_load_shifts_choice(self, solver):
        sys_ = StorageSystem.homogeneous(2, "cheetah")
        sys_.set_loads([100.0, 0.0])
        p = RetrievalProblem(sys_, ((0, 1), (0, 1)))
        sched = solve(p, solver=solver)
        assert sched.counts_per_disk() == [0, 2]

    @pytest.mark.parametrize("solver", GENERALIZED)
    def test_network_delay_shifts_choice(self, solver):
        sys_ = StorageSystem.homogeneous(2, "cheetah", num_sites=2, delay_ms=[100, 0])
        p = RetrievalProblem(sys_, ((0, 1), (0, 1)))
        sched = solve(p, solver=solver)
        assert sched.counts_per_disk() == [0, 2]

    def test_ff_basic_rejects_generalized(self):
        sys_ = StorageSystem.homogeneous(2, "cheetah")
        sys_.set_loads([1.0, 0.0])
        with pytest.raises(InfeasibleScheduleError, match="basic"):
            solve(RetrievalProblem(sys_, ((0, 1),)), solver="ff-basic")


class TestStatsAndApi:
    def test_wall_time_recorded(self):
        p = random_basic(np.random.default_rng(0))
        sched = solve(p)
        assert sched.stats.wall_time_s > 0

    def test_default_solver_is_pr_binary(self):
        p = random_basic(np.random.default_rng(0))
        assert solve(p).solver == "pr-binary"

    def test_unknown_solver_rejected(self):
        with pytest.raises(KeyError, match="unknown solver"):
            get_solver("simplex")

    def test_unknown_blackbox_engine_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown engine 'simplex'"):
            get_solver("blackbox-binary", engine="simplex")

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_blackbox_engine_finds_the_integrated_optimum(self, engine):
        rng = np.random.default_rng(0)
        for p in (random_basic(rng), random_generalized(rng)):
            ref = solve(p, solver="pr-binary").response_time_ms
            got = solve(p, solver="blackbox-binary", engine=engine)
            assert got.response_time_ms == ref

    def test_registry_complete(self):
        assert set(SOLVERS) == {
            "ff-basic",
            "ff-incremental",
            "ff-binary",
            "pr-incremental",
            "pr-binary",
            "pr-csr",
            "blackbox-binary",
            "parallel-binary",
            "brute-force",
            "greedy-finish-time",
            "round-robin",
        }

    def test_solver_kwargs_forwarded(self):
        p = random_basic(np.random.default_rng(0))
        sched = solve(p, solver="parallel-binary", num_threads=3)
        assert sched.stats.extra["num_threads"] == 3

    def test_integrated_reports_probe_and_increment_counts(self):
        rng = np.random.default_rng(2)
        p = random_generalized(rng)
        sched = solve(p, solver="pr-binary")
        assert sched.stats.probes >= 1
        assert sched.stats.pushes >= 1

    def test_blackbox_does_more_push_work_than_integrated(self):
        """Flow conservation must show up as fewer total pushes."""
        rng = np.random.default_rng(3)
        total_bb = total_int = 0
        for _ in range(6):
            p = random_generalized(rng, n_per_site=4, n_buckets=12)
            total_bb += solve(p, solver="blackbox-binary").stats.pushes
            total_int += solve(p, solver="pr-binary").stats.pushes
        assert total_bb > total_int

    def test_brute_force_solver_in_registry(self):
        p = random_basic(np.random.default_rng(4), n_buckets=5)
        sched = solve(p, solver="brute-force")
        assert sched.response_time_ms == pytest.approx(
            brute_force_response_time(p)
        )

    def test_brute_force_caps_problem_size(self):
        p = RetrievalProblem(
            StorageSystem.homogeneous(4, "cheetah"), ((0, 1),) * 20
        )
        with pytest.raises(InfeasibleScheduleError, match="capped"):
            brute_force_response_time(p)
        with pytest.raises(InfeasibleScheduleError, match="capped"):
            solve(p, solver="brute-force")
