"""Tests for golden-ratio declustering."""

from __future__ import annotations

import pytest

from repro.decluster import (
    additive_error,
    golden_ratio_allocation,
    golden_shift_sequence,
    threshold_allocation,
)
from repro.errors import DeclusteringError


class TestShiftSequence:
    def test_values_in_range(self):
        for N in (3, 7, 16):
            seq = golden_shift_sequence(N, N)
            assert len(seq) == N
            assert all(0 <= s < N for s in seq)

    def test_starts_at_zero(self):
        assert golden_shift_sequence(1, 9)[0] == 0

    def test_low_discrepancy_spacing(self):
        """Consecutive shifts differ by ~N/phi mod N — never 0 for N>2."""
        N = 32
        seq = golden_shift_sequence(N, N)
        diffs = {(b - a) % N for a, b in zip(seq, seq[1:])}
        # golden rotation gives at most 2 distinct consecutive gaps
        assert len(diffs) <= 2
        assert 0 not in diffs

    def test_validation(self):
        with pytest.raises(DeclusteringError):
            golden_shift_sequence(-1, 5)
        with pytest.raises(DeclusteringError):
            golden_shift_sequence(3, 0)


class TestAllocation:
    @pytest.mark.parametrize("N", [1, 2, 5, 7, 8, 13])
    def test_perfectly_balanced(self, N):
        alloc = golden_ratio_allocation(N)
        assert alloc.disk_counts().tolist() == [N] * N

    @pytest.mark.parametrize("N", [3, 7, 10])
    def test_rows_are_cyclic_permutations(self, N):
        alloc = golden_ratio_allocation(N)
        for i in range(N):
            row = alloc.grid[i]
            assert sorted(row.tolist()) == list(range(N))
            # cyclic: consecutive entries differ by exactly 1 mod N
            assert all(
                (row[(j + 1) % N] - row[j]) % N == 1 for j in range(N)
            )

    def test_competitive_additive_error(self):
        """Golden-ratio declustering is a serious scheme: its additive
        error stays within +2 of the best lattice at small N."""
        for N in (5, 7, 8, 11):
            golden = additive_error(golden_ratio_allocation(N))
            best = additive_error(threshold_allocation(N))
            assert golden <= best + 2

    def test_usable_as_first_copy(self):
        """Composes with the retrieval stack like any allocation."""
        from repro.core import RetrievalProblem, solve
        from repro.decluster import Allocation, ReplicatedAllocation
        from repro.storage import StorageSystem

        N = 6
        first = golden_ratio_allocation(N)
        second = Allocation((first.grid + N // 2) % N, N).relabeled(N, 2 * N)
        rep = ReplicatedAllocation([first.relabeled(0, 2 * N), second])
        sys_ = StorageSystem.homogeneous(2 * N, "cheetah", num_sites=2)
        coords = [(i, j) for i in range(2) for j in range(3)]
        reps = tuple(rep.replicas_of(i, j) for (i, j) in coords)
        sched = solve(RetrievalProblem(sys_, reps))
        assert sched.response_time_ms > 0

    def test_validation(self):
        with pytest.raises(DeclusteringError):
            golden_ratio_allocation(0)
