#!/usr/bin/env python3
"""Operating the scheduler: explanations and certificates.

A storage operator's two questions about any schedule, answered from
the max-flow structure itself (no heuristic narratives):

1. *Why is this query slow?*    → the min-cut **binding disk set**
2. *Is the scheduler right?*    → the optimality **certificate**

Run:  python examples/explainability.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    RetrievalProblem,
    certify_optimal,
    explain_schedule,
    solve,
)
from repro.storage import Disk, Site, StorageSystem
from repro.storage.disk import DISK_CATALOG


def main() -> None:
    # a mixed rack: two SSDs, one busy Raptor, one aging Barracuda
    system = StorageSystem(
        [
            Site(0, 0.0, [
                Disk(0, DISK_CATALOG["x25e"]),
                Disk(1, DISK_CATALOG["vertex"]),
                Disk(2, DISK_CATALOG["raptor"], initial_load_ms=6.0),
                Disk(3, DISK_CATALOG["barracuda"]),
            ])
        ]
    )
    rng = np.random.default_rng(9)
    replicas = tuple(
        tuple(sorted(rng.choice(4, size=2, replace=False).tolist()))
        for _ in range(8)
    )
    problem = RetrievalProblem(system, replicas)

    print("-- 1. why is this query slow? --")
    schedule = solve(problem)
    explanation = explain_schedule(problem, schedule)
    print(explanation.render(problem))

    print("\n-- 2. is the scheduler right? --")
    cert = certify_optimal(problem, schedule)
    print(f"certified optimal: {bool(cert)} — {cert.reason}")


if __name__ == "__main__":
    main()
