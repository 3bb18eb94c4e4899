"""Periodic (lattice) disk allocations and dependent copies.

A 2-D allocation is *periodic* if ``f(i, j) = (a1*i + a2*j) mod N`` with
``gcd(a_k, N) = 1`` and ``a_k != 0`` ([11], [46]; paper §VI-A).  The
paper's **Dependent** scheme uses the lowest-additive-error periodic
allocation for the first copy and the shifted ``f + m mod N`` for the
second.

Coefficient selection: [11] tabulates the best ``(a1, a2)`` per ``N``;
that table is not in the paper, so :func:`best_periodic_coefficients`
recomputes it by exact additive-error search for small ``N`` and by
sampled search above ``_EXACT_LIMIT`` (substitution documented in
DESIGN.md §2).  Results are cached per process.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.decluster.grid import Allocation
from repro.decluster.metrics import additive_error
from repro.errors import DeclusteringError

__all__ = [
    "valid_coefficients",
    "periodic_allocation",
    "best_periodic_coefficients",
    "dependent_pair",
]

#: beyond this the searches score a seeded sample of shapes, not all of
#: them.  Scoring a lattice costs O(N^3) either way (one origin prefix sum,
#: :mod:`repro.decluster.metrics`), so sampling no longer saves time: it
#: stays because it selects the pinned placements
#: (``tests/decluster/test_golden_placements.py``), and an exact search
#: would move every placement above N=13.
_EXACT_LIMIT = 13
#: number of (r, c) shapes sampled in the non-exact regime
_SAMPLE_SHAPES = 60


def _search_sample(N: int) -> int | None:
    """The ``sample`` argument every placement search passes to
    :func:`additive_error` for an ``N``-disk grid."""
    return None if N <= _EXACT_LIMIT else _SAMPLE_SHAPES


def valid_coefficients(N: int) -> list[int]:
    """All ``a`` with ``gcd(a, N) == 1`` and ``a != 0`` (mod N)."""
    if N < 1:
        raise DeclusteringError(f"N must be >= 1, got {N}")
    if N == 1:
        return [0]  # degenerate single-disk grid: only the zero map exists
    return [a for a in range(1, N) if math.gcd(a, N) == 1]


def periodic_allocation(N: int, a1: int, a2: int) -> Allocation:
    """Build ``f(i, j) = (a1*i + a2*j) mod N`` on an ``N × N`` grid."""
    if N >= 2:
        for a in (a1, a2):
            if a % N == 0 or math.gcd(a % N, N) != 1:
                raise DeclusteringError(
                    f"coefficient {a} invalid for N={N}: need gcd(a, N) = 1, a != 0"
                )
    i = np.arange(N).reshape(-1, 1)
    j = np.arange(N).reshape(1, -1)
    return Allocation((a1 * i + a2 * j) % N, N)


@functools.lru_cache(maxsize=None)
def best_periodic_coefficients(N: int, seed: int = 0) -> tuple[int, int]:
    """The ``(a1, a2)`` minimizing (possibly sampled) additive error.

    Ties break toward the lexicographically smallest pair, making the
    choice deterministic.  ``a1 = 1`` is fixed without loss of generality:
    relabeling disks by the inverse of ``a1`` (a bijection, since
    ``gcd(a1, N) = 1``) maps ``(a1, a2)`` to ``(1, a2 * a1^-1)`` with
    identical per-query load multisets.
    """
    if N == 1:
        return (0, 0)
    coeffs = valid_coefficients(N)
    rng = np.random.default_rng(seed)
    sample = _search_sample(N)
    best_pair: tuple[int, int] | None = None
    best_err = None
    for a2 in coeffs:
        alloc = periodic_allocation(N, 1, a2)
        err = additive_error(alloc, sample=sample, rng=rng)
        if best_err is None or err < best_err:
            best_err = err
            best_pair = (1, a2)
    assert best_pair is not None
    return best_pair


def dependent_pair(
    N: int, m: int | None = None, *, seed: int = 0
) -> tuple[Allocation, Allocation]:
    """The paper's Dependent Periodic Allocation: ``(f, f + m mod N)``.

    ``m`` defaults to ``N // 2 + (N % 2)`` (maximally distant shift),
    constrained to ``1 <= m <= N - 1`` as in §VI-A.
    """
    if N < 2:
        raise DeclusteringError("dependent allocation needs N >= 2")
    if m is None:
        m = N // 2 + (N % 2)
    if not 1 <= m <= N - 1:
        raise DeclusteringError(f"shift m={m} outside [1, {N - 1}]")
    a1, a2 = best_periodic_coefficients(N, seed)
    first = periodic_allocation(N, a1, a2)
    return first, first.shifted(m)
