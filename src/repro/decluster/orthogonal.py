"""Orthogonal two-copy allocations ([23], [39]; paper §VI-A).

Two allocations ``f`` (copy 1) and ``g`` (copy 2) of an ``N × N`` grid are
*orthogonal* when, viewing each bucket's replica pair ``(f(i,j), g(i,j))``,
every one of the ``N²`` possible pairs appears **exactly once** — the grid
has exactly ``N²`` buckets, so it is possible to have each pair exactly
once, and orthogonality maximizes the retrieval flexibility replication
buys.

Construction
------------
With a lattice first copy ``f(i,j) = (i + a2*j) mod N``, the second copy

``g(i,j) = (j + s * f(i,j)) mod N``

is orthogonal to ``f`` for *every* ``s``: within the ``N`` buckets of an
``f``-class ``d``, ``g = (j + s*d) mod N`` sweeps all residues as ``j``
does.  Expanding, ``g`` is itself the lattice ``(s*i + (1 + s*a2)*j)
mod N``; we pick the ``s`` whose ``g`` has the lowest (possibly sampled)
additive error, so both copies decluster well.  (For even ``N`` no pair of
*coprime-coefficient* lattices can be orthogonal — the determinant is
forced even — which is why the construction optimizes ``s`` rather than
demanding ``g`` be a unit lattice.)
"""

from __future__ import annotations

import functools

import numpy as np

from repro.decluster.grid import Allocation
from repro.decluster.metrics import additive_error
from repro.decluster.periodic import _search_sample, best_periodic_coefficients
from repro.errors import DeclusteringError

__all__ = ["orthogonal_pair", "is_orthogonal_pair"]


def is_orthogonal_pair(first: Allocation, second: Allocation) -> bool:
    """True iff every ``(disk1, disk2)`` pair appears exactly once."""
    if first.grid.shape != second.grid.shape:
        raise DeclusteringError("copies must share grid shape")
    N = first.num_disks
    if second.num_disks != N or first.grid.size != N * N:
        return False
    pair_ids = first.grid.astype(np.int64) * N + second.grid
    return len(np.unique(pair_ids)) == N * N


@functools.lru_cache(maxsize=None)
def _best_shift(N: int, a2: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    sample = _search_sample(N)
    i = np.arange(N).reshape(-1, 1)
    j = np.arange(N).reshape(1, -1)
    f = (i + a2 * j) % N
    best_s, best_err = 1, None
    for s in range(1, N):
        g = Allocation((j + s * f) % N, N)
        err = additive_error(g, sample=sample, rng=rng)
        if best_err is None or err < best_err:
            best_err, best_s = err, s
    return best_s


def orthogonal_pair(N: int, *, seed: int = 0) -> tuple[Allocation, Allocation]:
    """Build an orthogonal two-copy allocation of an ``N × N`` grid.

    Copy 1 is the threshold-style first copy (best lattice); copy 2 is the
    orthogonal companion with the best shift multiplier.
    """
    if N < 1:
        raise DeclusteringError(f"N must be >= 1, got {N}")
    if N == 1:
        one = Allocation(np.zeros((1, 1), dtype=np.int64), 1)
        return one, one
    a1, a2 = best_periodic_coefficients(N, seed)
    assert a1 == 1  # best_periodic_coefficients normalizes a1
    i = np.arange(N).reshape(-1, 1)
    j = np.arange(N).reshape(1, -1)
    f_grid = (i + a2 * j) % N
    s = _best_shift(N, a2, seed)
    g_grid = (j + s * f_grid) % N
    first = Allocation(f_grid, N)
    second = Allocation(g_grid, N)
    return first, second
