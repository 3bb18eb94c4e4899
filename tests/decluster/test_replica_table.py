"""``ReplicatedAllocation.replicas_of`` reads a lazily built lookup table.

The table must agree with the copies' own ``disk_of`` for every scheme,
including wraparound and negative indices.  Building a placement must
not build it, so constructing one costs what it did before the table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.decluster import (
    ALLOCATION_SCHEMES,
    Allocation,
    ReplicatedAllocation,
    make_placement,
    orthogonal_pair,
    rda_pair,
    rda_per_site,
)


def reference(alloc: ReplicatedAllocation, i: int, j: int) -> tuple[int, ...]:
    return tuple(c.disk_of(i, j) for c in alloc.copies)


def placements():
    """``(id, allocation)`` for every scheme and site layout."""
    for scheme in ALLOCATION_SCHEMES:
        for N in (2, 4, 7):
            # one site: two copies share a pool; two sites: one copy per
            # site; three sites: deterministic schemes add shifted copies
            for sites in (1, 2, 3):
                placement = make_placement(scheme, N, num_sites=sites, seed=N)
                yield f"{scheme}-N{N}-sites{sites}", placement.allocation
    yield "orthogonal-pair", ReplicatedAllocation(list(orthogonal_pair(5)))
    yield "rda-pair", rda_pair(6, np.random.default_rng(1))
    yield "rda-per-site", rda_per_site(4, 3, np.random.default_rng(2))
    # a non-square grid wraps rows and columns by different moduli
    yield "3x5", ReplicatedAllocation([
        Allocation(np.arange(15).reshape(3, 5) % 4, 4),
        Allocation((np.arange(15).reshape(3, 5) * 3 + 1) % 4, 4),
    ])


CASES = list(placements())


@pytest.mark.parametrize("alloc", [a for _, a in CASES], ids=[k for k, _ in CASES])
def test_table_matches_disk_of(alloc):
    rows, cols = alloc.n_rows, alloc.n_cols
    indices = [
        (i, j)
        for i in range(-2 * rows - 1, 2 * rows + 2)
        for j in range(-2 * cols - 1, 2 * cols + 2)
    ]
    for i, j in indices:
        got = alloc.replicas_of(i, j)
        assert got == reference(alloc, i, j), (i, j)
        assert all(type(d) is int for d in got)


def test_placement_construction_does_not_build_the_table():
    for scheme in ALLOCATION_SCHEMES:
        alloc = make_placement(scheme, 8, num_sites=2, seed=0).allocation
        assert alloc._table is None
        alloc.replicas_of(3, 4)
        assert alloc._table is not None


def test_iter_buckets_uses_the_same_answers():
    alloc = make_placement("rda", 5, num_sites=2, seed=4).allocation
    for (i, j), reps in alloc.iter_buckets():
        assert reps == reference(alloc, i, j)
