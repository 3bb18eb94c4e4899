#!/usr/bin/env python3
"""Multi-site GIS workload: a stream of spatial range queries against
replicated tiles, with disk loads evolving between queries.

The paper's motivating applications — spatial databases, visualization,
GIS — issue bursts of range queries over a tiled map.  This example
replays such a burst against a two-site deployment (a fast array in the
primary datacenter, a remote mirror behind a WAN delay) and shows how the
optimal scheduler routes around both the network delay and the initial
loads left by earlier queries (the ``X_j`` of Table I).

Run:  python examples/multisite_gis.py
"""

from __future__ import annotations

import numpy as np

from repro.decluster import make_placement
from repro.service import SchedulerService, ServiceConfig
from repro.storage import StorageSystem
from repro.workloads import RangeQuery


def zoom_session(N: int, rng: np.random.Generator, n_queries: int = 12):
    """A map-browsing session: pan steps with occasional zoom-outs."""
    i, j = int(rng.integers(0, N)), int(rng.integers(0, N))
    for step in range(n_queries):
        if step % 4 == 3:
            r = c = min(N, 2 + int(rng.integers(0, N // 2 + 1)))  # zoom out
        else:
            r, c = 2, 3  # viewport-sized pan
        i = (i + int(rng.integers(-1, 2))) % N
        j = (j + int(rng.integers(0, 2))) % N
        yield RangeQuery(i, j, min(r, N), min(c, N), N)


def main() -> None:
    N = 8
    rng = np.random.default_rng(7)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)

    # primary: HDD array on the local network; mirror: SSD array 10 ms away
    # (delays per the dedicated-network SLA model of §II-A)
    system = StorageSystem.from_groups(
        ["hdd", "ssd"], N, delays_ms=[1.0, 10.0], rng=rng
    )

    # the service keeps each disk's busy horizon across submits; pinned
    # arrival times replay the session on its own clock
    service = SchedulerService(
        system, placement, ServiceConfig(cache_size=0, solve_backend="thread")
    )
    records = []

    print(f"{'t(ms)':>7}  {'|Q|':>4}  {'resp(ms)':>9}  "
          f"{'site1 buckets':>13}  {'site2 buckets':>13}")
    clock = 0.0
    for query in zoom_session(N, rng):
        record = service.submit(query, arrival_ms=clock)
        records.append(record)
        counts = [0, 0]
        for disk in record.assignment.values():
            counts[0 if disk < N else 1] += 1
        print(f"{clock:7.1f}  {record.num_buckets:4d}  "
              f"{record.response_time_ms:9.2f}  {counts[0]:13d}  {counts[1]:13d}")
        # next query arrives before the previous fully drains: loads build up
        clock += record.response_time_ms * 0.6

    stats = service.stats()
    print()
    print(f"mean response: {stats.mean_response_ms:.2f} ms, "
          f"max: {stats.max_response_ms:.2f} ms over {stats.queries} queries")

    # takeaway: the SSD mirror 10 ms away takes a bucket only when its
    # D + X + k*C beats the local HDDs' — count how often
    spill = sum(
        1 for r in records if any(d >= N for d in r.assignment.values())
    )
    print(f"queries spilling to the remote mirror: {spill}/{len(records)}")


if __name__ == "__main__":
    main()
