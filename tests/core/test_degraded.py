"""Tests for degraded-mode retrieval."""

from __future__ import annotations

import pytest

from repro.core import (
    RetrievalProblem,
    degrade_problem,
    failure_impact,
    solve,
    solve_degraded,
)
from repro.core.degraded import failed_site_disks
from repro.errors import InfeasibleScheduleError
from repro.storage import StorageSystem


class TestDegraded:
    def problem(self):
        sys_ = StorageSystem.homogeneous(6, "cheetah", num_sites=2, delay_ms=[0, 2])
        reps = ((0, 3), (1, 4), (2, 5), (0, 4))
        return RetrievalProblem(sys_, reps)

    def test_degrade_removes_failed(self):
        p = degrade_problem(self.problem(), [0])
        assert p.replicas[0] == (3,)
        assert p.replicas[3] == (4,)
        assert p.replicas[1] == (1, 4)

    def test_all_replicas_lost_reported(self):
        with pytest.raises(InfeasibleScheduleError, match="lost all replicas"):
            degrade_problem(self.problem(), [0, 3])

    def test_unknown_disk_rejected(self):
        with pytest.raises(InfeasibleScheduleError, match="unknown disk"):
            degrade_problem(self.problem(), [99])

    def test_solve_degraded_avoids_failures(self):
        sched = solve_degraded(self.problem(), [0, 1])
        assert sched.counts_per_disk()[0] == 0
        assert sched.counts_per_disk()[1] == 0

    def test_degraded_never_faster(self):
        p = self.problem()
        healthy = solve(p).response_time_ms
        degraded = solve_degraded(p, [0]).response_time_ms
        assert degraded >= healthy - 1e-9

    def test_failure_impact(self):
        impact = failure_impact(self.problem(), [0, 1, 2])
        assert impact.failed_disks == (0, 1, 2)
        assert impact.slowdown >= 1.0
        assert impact.degraded_ms >= impact.healthy_ms - 1e-9

    def test_failed_site_disks(self):
        sys_ = StorageSystem.homogeneous(6, "cheetah", num_sites=2)
        assert failed_site_disks(sys_, 0) == [0, 1, 2]
        assert failed_site_disks(sys_, 1) == [3, 4, 5]
        with pytest.raises(InfeasibleScheduleError):
            failed_site_disks(sys_, 7)

    def test_whole_site_outage_survivable_with_two_sites(self):
        """Two-site replication: losing one site leaves the other copy."""
        from repro.decluster import make_placement

        placement = make_placement("orthogonal", 4, num_sites=2, seed=0)
        sys_ = StorageSystem.homogeneous(8, "cheetah", num_sites=2)
        coords = [(i, j) for i in range(2) for j in range(3)]
        p = RetrievalProblem.from_query(sys_, placement, coords)
        sched = solve_degraded(p, failed_site_disks(sys_, 0))
        assert all(d >= 4 for d in sched.assignment.values())
