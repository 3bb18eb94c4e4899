"""Tests for additive error and query-load metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decluster import (
    Allocation,
    additive_error,
    load_of_query,
    max_disk_load,
    orthogonal_pair,
    periodic_allocation,
)
from repro.decluster import metrics
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


def _lattice(N: int, a: int, b: int, offset: int, n_r: int = 0, n_c: int = 0):
    """``(offset + a*i + b*j) mod N`` on an ``n_r × n_c`` grid (``N × N``
    by default)."""
    i = np.arange(n_r or N).reshape(-1, 1)
    j = np.arange(n_c or N).reshape(1, -1)
    return Allocation((offset + a * i + b * j) % N, N)


def _tiled_maxloads(a: Allocation) -> np.ndarray:
    """Busiest-disk count per ``(r, c)`` shape from the tiled window scan,
    indexed like :func:`metrics._lattice_maxloads` (row and column 0
    unused)."""
    ps = metrics._window_prefix_sums(a)
    out = np.zeros((a.n_rows + 1, a.n_cols + 1), dtype=np.int64)
    for r in range(1, a.n_rows + 1):
        for c in range(1, a.n_cols + 1):
            out[r, c] = metrics._window_maxload(ps, r, c)
    return out


def _tiled_additive_error(a: Allocation, **kwargs) -> int:
    """:func:`additive_error` with the lattice path switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_lattice_maxloads", lambda alloc: None)
        return additive_error(a, **kwargs)


class TestLatticePathDifferential:
    """The closed-form lattice path against the tiled window scan."""

    @pytest.mark.parametrize("N", range(1, 17))
    def test_every_lattice(self, N):
        """Every ``(a, b)`` mod ``N`` — unit, non-unit and zero
        coefficients — under a nonzero offset: every shape's busiest-disk
        count is the tiled scan's."""
        offset = (N + 1) // 2
        for a in range(N):
            for b in range(N):
                alloc = _lattice(N, a, b, offset)
                got = metrics._lattice_maxloads(alloc)
                assert got is not None, (a, b)
                assert (got[1:, 1:] == _tiled_maxloads(alloc)[1:, 1:]).all(), (
                    a,
                    b,
                )

    @pytest.mark.parametrize(
        ("N", "a", "b", "n_r", "n_c"),
        [(3, 1, 2, 3, 6), (4, 2, 1, 8, 4), (5, 2, 3, 10, 15), (6, 1, 3, 12, 6)],
    )
    def test_rectangular_lattice(self, N, a, b, n_r, n_c):
        """Sides that are different multiples of ``N``."""
        alloc = _lattice(N, a, b, N - 1, n_r, n_c)
        got = metrics._lattice_maxloads(alloc)
        assert got is not None
        assert (got[1:, 1:] == _tiled_maxloads(alloc)[1:, 1:]).all()
        assert additive_error(alloc) == _tiled_additive_error(alloc)

    @pytest.mark.parametrize("N", [24, 32])
    def test_sampled_same_draws(self, N):
        """At search scale the sampled error and the generator state after
        the call match the tiled path's, so the searches draw the same
        shapes either way."""
        for seed, (a, b) in enumerate([(1, 5), (1, 7), (3, 11), (2, 6), (0, 1)]):
            alloc = _lattice(N, a, b, seed + 1)
            assert metrics._lattice_maxloads(alloc) is not None
            fast_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            for _ in range(3):
                assert additive_error(
                    alloc, sample=60, rng=fast_rng
                ) == _tiled_additive_error(alloc, sample=60, rng=ref_rng)
                assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def _non_lattices():
    rng = np.random.default_rng(29)
    changed = _lattice(8, 1, 3, 2)
    changed.grid[5, 6] = (changed.grid[5, 6] + 1) % 8
    return [
        ("one-cell-changed", changed),
        ("random-6x6", Allocation(rng.integers(0, 6, size=(6, 6)), 6)),
        ("sides-not-multiples-5x6", _lattice(5, 1, 2, 1, 5, 6)),
        ("sides-not-multiples-6x6", _lattice(5, 1, 2, 1, 6, 6)),
        ("sides-not-multiples-7x4", _lattice(4, 1, 1, 3, 7, 4)),
        ("sides-not-multiples-3x3", _lattice(4, 1, 1, 0, 3, 3)),
    ]


NON_LATTICES = _non_lattices()


class TestNonLatticeTakesTiledPath:
    @pytest.mark.parametrize(
        "a", [g for _, g in NON_LATTICES], ids=[k for k, _ in NON_LATTICES]
    )
    def test_tiled_and_exact(self, a):
        assert metrics._lattice_maxloads(a) is None
        assert additive_error(a) == max(0, *_bruteforce_errors(a).values())


class TestPlacementSearchesSkipTiledScan:
    """The §VI-A searches score only lattices, so none of them may fall
    back to the O(N⁴) tiled scan.  A structural check rather than a timing
    one: a regression fails here whatever the machine's speed."""

    @pytest.fixture
    def no_tiling(self, monkeypatch):
        from repro.decluster.orthogonal import _best_shift
        from repro.decluster.periodic import best_periodic_coefficients

        def refuse(alloc):
            raise AssertionError("placement search took the tiled window scan")

        monkeypatch.setattr(metrics, "_window_prefix_sums", refuse)
        # cached results would skip the searches under test
        best_periodic_coefficients.cache_clear()
        _best_shift.cache_clear()

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_build_deployment(self, no_tiling, seed):
        from repro.bench.service_bench import _build_deployment

        _build_deployment(32, seed)

    def test_orthogonal_pair_paper_scale(self, no_tiling):
        orthogonal_pair(100)
