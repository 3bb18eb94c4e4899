"""Property-based tests for the storage model and simulator.

Invariants:

* the event-driven simulator always agrees with the analytic
  ``max_j (D_j + X_j + k_j C_j)`` model, for arbitrary assignments;
* ``capacity_at`` and ``finish_time`` are exact inverses at integral
  bucket counts, and ``capacity_at`` is monotone in the deadline;
* a stream replayed through ``SchedulerService`` never time-travels:
  loads are non-negative, responses are no smaller than the best
  single-bucket finish time and equal the simulator's on the loads each
  decision saw.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decluster import make_placement
from repro.service import SchedulerService, ServiceConfig
from repro.storage import Disk, Site, StorageSystem, simulate_schedule
from repro.storage.disk import DISK_CATALOG

SPEC_NAMES = sorted(DISK_CATALOG)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    specs = draw(st.lists(st.sampled_from(SPEC_NAMES), min_size=n, max_size=n))
    split = draw(st.integers(0, n))
    d1 = draw(st.integers(0, 8))
    d2 = draw(st.integers(0, 8))
    disks = [Disk(j, DISK_CATALOG[specs[j]]) for j in range(n)]
    if split in (0, n):
        sites = [Site(0, float(d1), disks)]
    else:
        sites = [Site(0, float(d1), disks[:split]), Site(1, float(d2), disks[split:])]
    sys_ = StorageSystem(sites)
    loads = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    sys_.set_loads([float(x) for x in loads])
    return sys_


@settings(max_examples=40, deadline=None)
@given(systems(), st.lists(st.integers(0, 5), min_size=0, max_size=20))
def test_simulator_matches_analytic_model(system, picks):
    assignment = {
        f"b{i}": d % system.num_disks for i, d in enumerate(picks)
    }
    res = simulate_schedule(system, assignment)
    if not assignment:
        assert res.response_time_ms == 0.0
        return
    analytic = max(
        system.finish_time(d, k) for d, k in res.buckets_by_disk.items()
    )
    assert abs(res.response_time_ms - analytic) < 1e-9
    # per-disk event counts match the assignment
    for d, k in res.buckets_by_disk.items():
        assert k == sum(1 for v in assignment.values() if v == d)


@settings(max_examples=40, deadline=None)
@given(systems(), st.integers(1, 30))
def test_capacity_finish_inverse(system, k):
    for d in range(system.num_disks):
        t = system.finish_time(d, k)
        assert system.capacity_at(d, t) == k
        assert system.capacity_at(d, t - 1e-6) == k - 1


@settings(max_examples=40, deadline=None)
@given(systems(), st.floats(0, 500), st.floats(0, 100))
def test_capacity_monotone_in_deadline(system, t, dt):
    for d in range(system.num_disks):
        assert system.capacity_at(d, t + dt) >= system.capacity_at(d, t)


@st.composite
def replay_streams(draw):
    """A one- or two-site deployment and a timed stream of grid queries."""
    N = draw(st.integers(1, 4))
    num_sites = draw(st.integers(1, 2))
    specs = draw(
        st.lists(
            st.sampled_from(SPEC_NAMES),
            min_size=N * num_sites,
            max_size=N * num_sites,
        )
    )
    disks = [Disk(j, DISK_CATALOG[spec]) for j, spec in enumerate(specs)]
    sites = [
        Site(k, float(draw(st.integers(0, 8))), disks[k * N:(k + 1) * N])
        for k in range(num_sites)
    ]
    placement = make_placement("orthogonal", N, num_sites=num_sites, seed=0)
    cells = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))
    stream = draw(
        st.lists(
            st.tuples(st.floats(0, 50), st.sets(cells, min_size=1, max_size=6)),
            min_size=1,
            max_size=6,
        )
    )
    return StorageSystem(sites), placement, stream


@settings(max_examples=25, deadline=None)
@given(replay_streams())
def test_replay_invariants(case):
    system, placement, stream = case
    config = ServiceConfig(
        solver="greedy-finish-time", cache_size=0, solve_backend="thread"
    )
    svc = SchedulerService(system, placement, config)
    clock = 0.0
    for gap, buckets in stream:
        clock += gap
        rec = svc.submit(sorted(buckets), arrival_ms=clock)
        assert all(x >= 0 for x in system.loads())
        # a response can never beat the cheapest single-bucket finish
        floor = min(
            system.finish_time(d, 1) for d in range(system.num_disks)
        )
        assert rec.response_time_ms >= floor - 1e-9
        # nor differ from the simulator on the loads the decision saw
        sim = simulate_schedule(system, rec.assignment)
        assert abs(rec.response_time_ms - sim.response_time_ms) < 1e-9
    assert svc.stats().queries == len(stream)
