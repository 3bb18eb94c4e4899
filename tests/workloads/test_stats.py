"""Tests for closed-form workload statistics vs generators and the paper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.stats import (
    empirical_mean_size,
    expected_band_midpoint,
    expected_bucket_count,
)


class TestClosedForms:
    def test_load1_range_quarter_grid(self):
        """Paper: N²/4 + O(1/N)."""
        for N in (4, 8, 16):
            expect = expected_bucket_count(1, "range", N)
            assert expect == pytest.approx(((N + 1) / 2) ** 2)
            assert abs(expect - N * N / 4) <= N / 2 + 1  # O(N) gap at most

    def test_load1_arbitrary_half_grid(self):
        """Paper: N²/2 + O(1/N)."""
        for N in (4, 8):
            expect = expected_bucket_count(1, "arbitrary", N)
            assert expect == pytest.approx(N * N / 2, rel=1e-3)

    def test_load2_half_grid(self):
        """Paper: exactly N²/2 (up to the +1/2 band offset)."""
        for N in (4, 9, 16):
            expect = expected_band_midpoint(2, N)
            assert expect == pytest.approx(N * N / 2 + 0.5)

    def test_band_loads_arbitrary_is_midpoint(self):
        """The arbitrary generator draws the size uniformly in the band."""
        for load in (2, 3):
            for N in (4, 8):
                assert expected_bucket_count(load, "arbitrary", N) == (
                    expected_band_midpoint(load, N)
                )

    def test_band_loads_range_models_rejection_sampler(self):
        """The range generator's in-band mean sits above the midpoint;
        values from a 40,000-sample run at N=8 are 33.58 and 13.03."""
        assert expected_bucket_count(2, "range", 8) == pytest.approx(
            33.618, abs=1e-3
        )
        assert expected_bucket_count(3, "range", 8) == pytest.approx(
            12.936, abs=1e-3
        )
        for load in (2, 3):
            for N in (4, 8, 16):
                assert expected_bucket_count(load, "range", N) > (
                    expected_band_midpoint(load, N)
                )

    def test_load3_small(self):
        """Paper: ≈ 3N/2 — the halving tail keeps queries tiny."""
        for N in (8, 16, 32):
            expect = expected_bucket_count(3, "arbitrary", N)
            assert expect < 2.1 * N  # well below load 2's N²/2
            assert expect > N / 2

    def test_band_midpoint_only_for_band_loads(self):
        with pytest.raises(WorkloadError):
            expected_band_midpoint(1, 5)

    def test_unknown_qtype(self):
        with pytest.raises(WorkloadError):
            expected_bucket_count(2, "circular", 5)

    def test_unknown_load(self):
        with pytest.raises(WorkloadError):
            expected_bucket_count(4, "range", 5)


class TestGeneratorsMatchClosedForms:
    @pytest.mark.parametrize("load,qtype,seed", [
        (1, "range", 11), (1, "arbitrary", 12),
        (2, "range", 21), (2, "arbitrary", 22),
        (3, "range", 31), (3, "arbitrary", 32),
    ], ids=["1-range", "1-arbitrary", "2-range", "2-arbitrary",
            "3-range", "3-arbitrary"])
    def test_empirical_within_tolerance(self, load, qtype, seed):
        N = 8
        rng = np.random.default_rng(seed)
        expect = expected_bucket_count(load, qtype, N)
        got = empirical_mean_size(load, qtype, N, 400, rng)
        assert got == pytest.approx(expect, rel=0.15)
