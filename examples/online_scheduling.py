#!/usr/bin/env python3
"""Online scheduling: queries that arrive *and finish*.

Every other example solves against a static busy horizon.  This one
runs the continuous-time mode behind the ``repro.api`` facade: an event
clock advances over arrivals and completions; a repeated query starts
from its signature's warm cached flow instead of rebuilding; a disk
failure re-plans in-flight work incrementally; and admission sheds on a
proven response-time lower bound, telling the caller when to retry.

Four stops:

1. overlapping arrivals on the virtual clock — later queries see the
   earlier ones' backlog, drains release it;
2. the offline differential: a completed query's record re-solved as a
   static batch problem matches bit for bit;
3. a disk failure mid-flight — the remaining buckets re-plan onto the
   survivors via the incremental engine;
4. predictive admission: a deadline the backlog cannot meet is refused
   up front with a retry hint.

Run:  python examples/online_scheduling.py
"""

from __future__ import annotations

import numpy as np

from repro import api
from repro.core import RetrievalProblem, solve
from repro.decluster import make_placement
from repro.errors import PredictedOverloadError
from repro.online import OnlineConfig
from repro.service import ServiceConfig
from repro.storage import StorageSystem


def main() -> None:
    N = 5
    rng = np.random.default_rng(42)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], N, delays_ms=[1.0, 4.0], rng=rng
    )

    config = ServiceConfig(
        mode="online",
        cache_size=32,
        online=OnlineConfig(clock="virtual", retry_after_slack_ms=2.0),
    )
    sched = api.Scheduler(config).local(system, placement)
    online = sched.service  # the OnlineScheduler underneath the handle

    # ------------------------------------------------------------------
    # 1. Overlapping arrivals: the second query sees the first's backlog
    # ------------------------------------------------------------------
    q0 = [(i, j) for i in range(3) for j in range(3)]  # 9 buckets
    q1 = [(i, j) for i in range(2) for j in range(2)]  # 4 buckets
    r0 = sched.submit(q0, arrival_ms=0.0)
    r1 = sched.submit(q1, arrival_ms=2.0)  # overlaps with q0's transfers
    print("two overlapping arrivals on the virtual clock:")
    print(f"  t=0.0: {r0.num_buckets} buckets -> response "
          f"{r0.response_time_ms:.2f} ms (predicted floor "
          f"{r0.predicted_ms:.2f} ms)")
    print(f"  t=2.0: {r1.num_buckets} buckets -> response "
          f"{r1.response_time_ms:.2f} ms (sees q0's backlog)")
    final = online.drain()
    st = online.online_stats()
    print(f"  drained at t={final:.2f} ms: {st.completed} completed, "
          f"{st.drains} per-disk drains\n")

    # ------------------------------------------------------------------
    # 2. The differential: online records == offline batch optima
    # ------------------------------------------------------------------
    system.set_loads(r1.loads_before)
    static = RetrievalProblem.from_query(system, placement, q1)
    offline = solve(static, solver="pr-binary")
    assert offline.response_time_ms == r1.response_time_ms
    assert tuple(offline.counts_per_disk()) == r1.counts_per_disk
    print("offline differential: re-solving q1's static snapshot gives "
          f"{offline.response_time_ms:.2f} ms — bit-for-bit equal\n")

    # ------------------------------------------------------------------
    # 3. Failure mid-flight: survivors absorb the re-planned buckets
    # ------------------------------------------------------------------
    r2 = sched.submit(q0, arrival_ms=final + 10.0)
    victim = max(r2.assignment.values())
    before = online.online_stats().replans
    sched.mark_failed([victim])
    after = online.online_stats().replans
    print(f"disk {victim} failed mid-flight: {after - before} in-flight "
          f"re-plan(s) moved its pending buckets to the survivors")
    online.drain()
    sched.mark_repaired([victim])
    print(f"  repaired; {online.online_stats().completed} queries have "
          "completed in total\n")

    # ------------------------------------------------------------------
    # 4. Predictive admission: an impossible deadline is refused early
    # ------------------------------------------------------------------
    t = online.now_ms
    sched.submit(q0, arrival_ms=t + 1.0)  # build up a backlog first
    try:
        sched.submit(q0, arrival_ms=t + 1.0, deadline=0.5)
    except PredictedOverloadError as exc:
        print("predictive admission refused a 0.5 ms deadline:")
        print(f"  predicted >= {exc.predicted_ms:.2f} ms, retry in "
              f"{exc.retry_after_ms:.2f} ms")
    sched.close()


if __name__ == "__main__":
    main()
