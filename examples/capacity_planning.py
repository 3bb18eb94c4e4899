#!/usr/bin/env python3
"""Capacity planning: which Table III drive should the mirror site run?

Table III reduces each drive to one number, the average block access
time ``C_j``, and the scheduler needs nothing else.  That makes "what if
we buy X?" a question the optimal scheduler answers before any hardware
exists.  This example sizes a mirror site behind an 8 ms WAN, with a
Cheetah array as the primary, under the paper's workload model.

Run:  python examples/capacity_planning.py
"""

from __future__ import annotations

import numpy as np

from repro.core import RetrievalProblem, solve
from repro.decluster import make_placement
from repro.storage import Disk, Site, StorageSystem
from repro.storage.disk import DISK_CATALOG
from repro.workloads.loads import sample_query

CANDIDATES = ("barracuda", "raptor", "cheetah", "vertex", "x25e")


def mean_response(system, placement, queries) -> float:
    total = 0.0
    for q in queries:
        p = RetrievalProblem.from_query(system, placement, q.buckets())
        total += solve(p).response_time_ms
    return total / len(queries)


def main() -> None:
    N = 8
    rng = np.random.default_rng(5)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    queries = [sample_query(2, "range", N, rng) for _ in range(15)]

    print("candidate drives for the mirror site (primary: cheetah array):\n")
    print(f"{'model':14} {'block time':>11}")
    for name in CANDIDATES:
        spec = DISK_CATALOG[name]
        print(f"{spec.model:14} {spec.block_time_ms:9.2f} ms")

    print(f"\nmean optimal response, {len(queries)} load-2 range queries, "
          f"mirror 8 ms away:")
    results = {}
    for name in CANDIDATES:
        primary = [Disk(j, DISK_CATALOG["cheetah"]) for j in range(N)]
        mirror = [Disk(N + j, DISK_CATALOG[name]) for j in range(N)]
        system = StorageSystem(
            [Site(0, 0.0, primary), Site(1, 8.0, mirror)]
        )
        results[name] = mean_response(system, placement, queries)
        print(f"  {DISK_CATALOG[name].model:14} -> {results[name]:7.2f} ms")

    best = min(results, key=results.__getitem__)
    print(f"\nbest mirror hardware at 8 ms WAN: {DISK_CATALOG[best].model}")


if __name__ == "__main__":
    main()
