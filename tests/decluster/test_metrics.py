"""Tests for additive error and query-load metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decluster import (
    Allocation,
    additive_error,
    load_of_query,
    max_disk_load,
    periodic_allocation,
)
from repro.errors import DeclusteringError


class TestLoadOfQuery:
    def test_counts_within_window(self):
        a = Allocation([[0, 1], [2, 3]], 4)
        assert load_of_query(a, 0, 0, 2, 2).tolist() == [1, 1, 1, 1]
        assert load_of_query(a, 0, 0, 1, 2).tolist() == [1, 1, 0, 0]

    def test_wraparound_window(self):
        a = Allocation([[0, 1], [2, 3]], 4)
        # 2x1 query starting at row 1 wraps to row 0
        assert load_of_query(a, 1, 0, 2, 1).tolist() == [1, 0, 1, 0]

    def test_oversized_window_rejected(self):
        a = Allocation([[0, 1], [2, 3]], 4)
        with pytest.raises(DeclusteringError, match="exceeds"):
            load_of_query(a, 0, 0, 3, 1)

    def test_max_disk_load(self):
        a = Allocation([[0, 0], [1, 2]], 3)
        assert max_disk_load(a, 0, 0, 1, 2) == 2
        assert max_disk_load(a, 1, 0, 1, 2) == 1


class TestAdditiveError:
    def test_perfect_single_cell(self):
        a = Allocation([[0]], 1)
        assert additive_error(a) == 0

    def test_known_bad_allocation(self):
        # all buckets on one of two disks: 2x2 query has load 4, ideal 2
        a = Allocation(np.zeros((2, 2), dtype=int), 2)
        assert additive_error(a) == 2

    def test_lattice_has_small_error(self):
        a = periodic_allocation(5, 1, 2)
        assert additive_error(a) <= 1

    def test_exact_matches_bruteforce(self):
        """Vectorized window sums agree with direct enumeration."""
        rng = np.random.default_rng(3)
        grid = rng.integers(0, 4, size=(5, 5))
        a = Allocation(grid, 4)
        N = 4
        worst = 0
        for r in range(1, 6):
            for c in range(1, 6):
                ideal = -(-(r * c) // N)
                for i in range(5):
                    for j in range(5):
                        worst = max(worst, max_disk_load(a, i, j, r, c) - ideal)
        assert additive_error(a) == worst

    def test_sampled_needs_rng(self):
        a = periodic_allocation(5, 1, 2)
        with pytest.raises(DeclusteringError, match="rng"):
            additive_error(a, sample=3)

    def test_sampled_bounded_by_exact(self):
        a = periodic_allocation(7, 1, 3)
        exact = additive_error(a)
        sampled = additive_error(a, sample=10, rng=np.random.default_rng(0))
        assert sampled <= exact


def _bruteforce_errors(a: Allocation) -> dict[tuple[int, int], int]:
    """Per-shape additive error by enumerating every window position."""
    errors = {}
    for r in range(1, a.n_rows + 1):
        for c in range(1, a.n_cols + 1):
            ideal = -(-(r * c) // a.num_disks)
            errors[r, c] = max(
                max_disk_load(a, i, j, r, c)
                for i in range(a.n_rows)
                for j in range(a.n_cols)
            ) - ideal
    return errors


def _random_grids():
    """``(id, allocation)`` pairs: square, non-square, one disk, one cell,
    more disks than cells, and disks that own no bucket."""
    rng = np.random.default_rng(17)
    cases = [
        ("one-disk-1x1", Allocation([[0]], 1)),
        ("one-disk-3x5", Allocation(np.zeros((3, 5), dtype=int), 1)),
        ("one-row", Allocation([[0, 1, 2, 0, 1, 1]], 3)),
        ("one-col", Allocation([[0], [1], [1], [2]], 3)),
        ("more-disks-than-cells", Allocation([[3, 9], [0, 3]], 12)),
        ("lattice-7", periodic_allocation(7, 1, 3)),
    ]
    for k in range(18):
        n_r, n_c = (int(x) for x in rng.integers(1, 8, size=2))
        disks = int(rng.integers(1, n_r * n_c + 4))
        grid = rng.integers(0, disks, size=(n_r, n_c))
        cases.append((f"random-{k}-{n_r}x{n_c}-d{disks}", Allocation(grid, disks)))
    return cases


GRIDS = _random_grids()


class TestAdditiveErrorDifferential:
    """``additive_error`` against brute-force ``max_disk_load`` enumeration."""

    @pytest.mark.parametrize("a", [g for _, g in GRIDS], ids=[k for k, _ in GRIDS])
    def test_exact(self, a):
        assert additive_error(a) == max(_bruteforce_errors(a).values())

    @pytest.mark.parametrize("a", [g for _, g in GRIDS], ids=[k for k, _ in GRIDS])
    @pytest.mark.parametrize("sample", [1, 5, 60])
    def test_sampled_same_seed(self, a, sample):
        """The sampled error is the worst brute-force error over exactly the
        shapes a same-seeded ``rng.choice`` draws from the row-major shape
        list, and the generator is left in the same state."""
        errors = _bruteforce_errors(a)
        shapes = list(errors)  # row-major (r, c) order
        ref_rng = np.random.default_rng(sample)
        idx = ref_rng.choice(
            len(shapes), size=min(sample, len(shapes)), replace=False
        )
        rng = np.random.default_rng(sample)
        got = additive_error(a, sample=sample, rng=rng)
        assert got == max(0, *(errors[shapes[k]] for k in idx))
        assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)
