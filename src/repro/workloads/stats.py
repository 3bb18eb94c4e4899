"""Closed-form workload statistics (paper §VI-B/C), checked empirically.

The paper states expected bucket counts for each (load, query type):

* load 1, range:      ``N²/4 + O(1/N)``   (uniform corner & shape)
* load 1, arbitrary:  ``N²/2 + O(1/N)``   (uniform non-empty subset)
* load 2 (both):      ``N²/2``            (uniform k, uniform in band)
* load 3 (both):      ``≈ 3N/2``          (halving tail over k)

and the count of distinct range queries, ``(N(N+1)/2)²``.  This module
derives those values exactly from the distributions as implemented, so
tests can compare generator output against closed forms instead of magic
constants — and so workload-sizing decisions (how many queries per point
cost how much) can be made analytically.

For loads 2 and 3 the paper's value is the band midpoint
(:func:`expected_band_midpoint`), which the arbitrary generator realises
exactly: it draws the size uniformly in the band.  A range query cannot
take every size, so :func:`~repro.workloads.queries.sample_range_query_of_size`
rejection-samples ``(r, c)`` uniformly until ``r*c`` lands in the band,
with a deterministic fallback; its in-band mean is not the midpoint, and
:func:`expected_bucket_count` models that sampler exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.loads import QUERY_LOADS
from repro.workloads.queries import sample_range_query_of_size

__all__ = [
    "expected_bucket_count",
    "expected_band_midpoint",
    "empirical_mean_size",
]


def expected_band_midpoint(load: int, N: int) -> float:
    """E[|Q|] for a band-sampling load: Σ_k p_k · ((k-1)N+1 + kN)/2."""
    if load not in (2, 3):
        raise WorkloadError("band midpoints exist for loads 2 and 3 only")
    probs = QUERY_LOADS[load].k_probabilities(N)
    ks = np.arange(1, N + 1)
    mids = ((ks - 1) * N + 1 + ks * N) / 2.0
    return float((probs * mids).sum())


def _range_band_mean(lo: int, hi: int, N: int) -> float:
    """E[r*c] of :func:`sample_range_query_of_size` for the band ``[lo, hi]``.

    Each try draws ``(r, c)`` uniformly from ``1..N`` squared and is
    accepted with probability ``p = |A| / N²``, ``A`` being the shapes
    whose area lies in the band; an accepted area is uniform over ``A``.
    After ``max_tries`` misses, probability ``(1 - p)^max_tries``, the
    sampler falls back to ``r = min(N, hi)``, ``c = ceil(lo / r)``.
    """
    max_tries = sample_range_query_of_size.__kwdefaults__["max_tries"]
    sides = np.arange(1, N + 1)
    areas = np.outer(sides, sides)
    accepted = areas[(lo <= areas) & (areas <= hi)]
    r = min(N, hi)
    fallback = r * -(-lo // r)
    if accepted.size == 0:
        return float(fallback)
    miss_all = (1.0 - accepted.size / (N * N)) ** max_tries
    return (1.0 - miss_all) * float(accepted.mean()) + miss_all * fallback


def expected_bucket_count(load: int, qtype: str, N: int) -> float:
    """Exact E[|Q|] under the implemented distributions.

    * load 1 / range: E[r]·E[c] with r, c uniform on 1..N → ((N+1)/2)².
    * load 1 / arbitrary: N²/2 conditioned on non-empty →
      (N²/2) / (1 − 2^(−N²)) (the correction is negligible beyond N=2).
    * loads 2 and 3 / arbitrary: the exact band-midpoint sum (matches
      the paper's N²/2 for load 2; ≈3N/2 for load 3 up to the tail
      renormalization).
    * loads 2 and 3 / range: Σ_k p_k · E[r*c | band k] under the range
      generator's rejection sampling (:func:`_range_band_mean`), slightly
      above the midpoint sum (N=8: 33.62 vs 32.5 for load 2, 12.94 vs
      12.25 for load 3).
    """
    if qtype not in ("range", "arbitrary"):
        raise WorkloadError(f"unknown query type {qtype!r}")
    if load == 1:
        if qtype == "range":
            return ((N + 1) / 2.0) ** 2
        full = N * N / 2.0
        return full / (1.0 - 0.5 ** (N * N))
    if load not in (2, 3):
        raise WorkloadError(f"unknown load {load}; choose 1, 2 or 3")
    if qtype == "arbitrary":
        return expected_band_midpoint(load, N)
    probs = QUERY_LOADS[load].k_probabilities(N)
    return float(
        sum(
            p * _range_band_mean((k - 1) * N + 1, k * N, N)
            for k, p in enumerate(probs, start=1)
        )
    )


def empirical_mean_size(
    load: int, qtype: str, N: int, n_samples: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo mean of |Q| from the actual generators."""
    from repro.workloads.loads import sample_query

    total = 0
    for _ in range(n_samples):
        total += sample_query(load, qtype, N, rng).num_buckets
    return total / n_samples
