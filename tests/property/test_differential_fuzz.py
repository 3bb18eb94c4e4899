"""Differential fuzzing of the integer flow kernel.

200 seeded random *generalized* retrieval instances (heterogeneous
disks, integer loads and delays, random replica sets), each probed at a
randomized deadline.  Every max-flow engine — the nine registry engines
plus :func:`min_cost_max_flow` — solves the same retrieval network and
must return the **exact same int** flow value: ``==``, no tolerance.
Under the integer kernel there is nothing to be approximately equal
about; any off-by-anything is a real bug in an engine.

Half the probes land *exactly on a finish time* — ``t`` such that
``t - D_j - X_j`` is an exact multiple of ``C_j`` for some disk — the
boundary where the float era needed a ``1e-9`` fudge in
``capacity_at``.  A dedicated test pins the exact-inverse property:
a deadline precisely at ``finish_time(j, k)`` admits exactly ``k``
buckets, and one ulp below it admits exactly ``k - 1``.

A scheduler-level pass re-checks the §VI.F oracle with exact equality:
on brute-force-checkable instances the optimal response time returned by
the flow solvers is bit-for-bit the brute-force optimum, because both
draw candidates from the same finite set of ``finish_time`` floats.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import RetrievalProblem, brute_force_response_time, solve
from repro.core.network import RetrievalNetwork
from repro.fleet import SolveFleet
from repro.maxflow import ENGINES, get_engine
from repro.maxflow.mincost import min_cost_max_flow
from repro.storage import StorageSystem

N_INSTANCES = 200

#: engines that must agree, instantiated fresh per solve
ENGINE_NAMES = sorted(ENGINES)


def test_fuzz_matrix_covers_the_csr_kernel():
    # the matrix iterates the registry, so a deregistered engine would
    # silently shrink coverage — pin the ones the paper's claims ride on
    for required in ("push-relabel", "csr-push-relabel", "dinic"):
        assert required in ENGINE_NAMES


def random_generalized(rng: np.random.Generator) -> RetrievalProblem:
    """An Experiment-5-shaped instance: two sites, mixed disk groups."""
    n_per_site = int(rng.integers(2, 5))
    n_buckets = int(rng.integers(2, 13))
    replicas = int(rng.integers(1, 4))
    sys_ = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"],
        n_per_site,
        delays_ms=rng.integers(0, 8, size=2).tolist(),
        rng=rng,
    )
    total = sys_.num_disks
    sys_.set_loads(rng.integers(0, 6, size=total).astype(float))
    k = min(replicas, total)
    reps = tuple(
        tuple(sorted(rng.choice(total, size=k, replace=False).tolist()))
        for _ in range(n_buckets)
    )
    return RetrievalProblem(sys_, reps)


def probe_deadline(rng: np.random.Generator, problem: RetrievalProblem) -> float:
    """A deadline to probe at — half the time an *exact* finish time.

    The exact case picks a random disk ``j`` and bucket count ``k`` and
    returns ``finish_time(j, k)`` verbatim, so ``t - D_j - X_j`` is an
    exact multiple of ``C_j`` in float arithmetic — the boundary the old
    float kernel fudged with ``1e-9``.
    """
    sys_ = problem.system
    if rng.random() < 0.5:
        j = int(rng.integers(0, sys_.num_disks))
        k = int(rng.integers(1, problem.num_buckets + 1))
        return sys_.finish_time(j, k)
    return float(rng.uniform(0.0, 40.0))


def solve_with(name: str, problem: RetrievalProblem, deadline: float) -> int:
    """Build a fresh retrieval network at ``deadline`` and run one engine."""
    net = RetrievalNetwork(problem)
    net.set_deadline_capacities(deadline)
    result = get_engine(name).solve(net.graph, net.source, net.sink)
    assert type(result.value) is int, (
        f"{name} returned {result.value!r} ({type(result.value).__name__}); "
        f"MaxFlowResult.value must be an exact int"
    )
    assert result.value == net.flow_value()
    return result.value


def solve_with_mincost(problem: RetrievalProblem, deadline: float) -> int:
    net = RetrievalNetwork(problem)
    net.set_deadline_capacities(deadline)
    costs = [0.0] * net.graph.num_arc_slots
    result = min_cost_max_flow(net.graph, net.source, net.sink, costs)
    assert type(result.value) is int
    return result.value


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_every_engine_agrees_exactly(seed):
    rng = np.random.default_rng(0xF10A + seed)
    problem = random_generalized(rng)
    deadline = probe_deadline(rng, problem)

    values = {name: solve_with(name, problem, deadline) for name in ENGINE_NAMES}
    values["mincost"] = solve_with_mincost(problem, deadline)

    distinct = set(values.values())
    assert len(distinct) == 1, (
        f"engines disagree on seed {seed} at deadline {deadline!r}: {values}"
    )


@pytest.mark.parametrize("seed", range(60))
def test_capacity_at_is_exact_inverse_of_finish_time(seed):
    """A deadline landing exactly on ``finish_time(j, k)`` admits exactly
    ``k`` buckets; one ulp below, exactly ``k - 1``.

    This is the single float→int boundary of the stack — the float era
    rounded through an epsilon here, which miscounted whenever the
    division drifted across the fudge band.
    """
    rng = np.random.default_rng(0xCA9 + seed)
    problem = random_generalized(rng)
    sys_ = problem.system
    j = int(rng.integers(0, sys_.num_disks))
    k = int(rng.integers(1, 12))
    t = sys_.finish_time(j, k)
    assert sys_.capacity_at(j, t) == k
    assert sys_.capacity_at(j, math.nextafter(t, -math.inf)) == k - 1


@pytest.mark.parametrize("seed", range(40))
def test_solvers_match_brute_force_bit_for_bit(seed):
    """Exact ``==`` against the exhaustive oracle — no pytest.approx.

    Both the flow solvers and brute force draw response-time candidates
    from the same finite set of ``finish_time(j, k)`` floats, so their
    optima are the same *float*, not merely close.
    """
    rng = np.random.default_rng(0xB12 + seed)
    sys_ = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"],
        int(rng.integers(2, 4)),
        delays_ms=rng.integers(0, 8, size=2).tolist(),
        rng=rng,
    )
    sys_.set_loads(rng.integers(0, 6, size=sys_.num_disks).astype(float))
    n_buckets = int(rng.integers(2, 9))
    c = min(int(rng.integers(1, 4)), sys_.num_disks)
    reps = tuple(
        tuple(sorted(rng.choice(sys_.num_disks, size=c, replace=False).tolist()))
        for _ in range(n_buckets)
    )
    problem = RetrievalProblem(sys_, reps)

    oracle = brute_force_response_time(problem)
    for name in ["ff-binary", "pr-binary", "pr-incremental", "blackbox-binary"]:
        got = solve(problem, solver=name).response_time_ms
        assert got == oracle, (
            f"{name} returned {got!r}, brute force {oracle!r} (seed {seed}); "
            f"difference {got - oracle!r}"
        )


# ----------------------------------------------------------------------
# cross-process differential: a fleet worker must be a bit-for-bit
# stand-in for an in-process solve
# ----------------------------------------------------------------------

#: the deterministic SolverStats counters (wall_time_s is excluded —
#: it is the one field allowed to differ across the boundary)
STATS_COUNTERS = (
    "probes", "certified", "cut_certified", "increments", "pushes",
    "relabels", "augmentations",
)

N_FLEET_INSTANCES = 16


@pytest.fixture(scope="module")
def fleet():
    """A two-lane process fleet with caching *off*.

    ``cache_size=0`` makes every worker solve a pure function of its
    payload, so the comparison below is exact ``==`` with no warm-start
    state to excuse a divergence.
    """
    with SolveFleet(2, cache_size=0) as f:
        yield f


@pytest.mark.parametrize("seed", range(N_FLEET_INSTANCES))
def test_process_pool_solve_is_bit_for_bit(seed, fleet):
    """In-process vs process-pool solve: ``==`` everywhere that matters.

    The codec ships floats via JSON ``repr`` (bit-for-bit) and ints
    exactly, so the worker performs the *same* finish-time arithmetic on
    the *same* values — the makespan, the full assignment (hence the
    per-disk flows), and every deterministic ``SolverStats`` counter
    must come back identical, not merely close.
    """
    rng = np.random.default_rng(0xF1EE7 + seed)
    problem = random_generalized(rng)

    local = solve(problem, solver="pr-binary")
    remote, cache_hit = fleet.solve(problem)

    assert cache_hit is False  # cache_size=0: never warm
    assert remote.response_time_ms == local.response_time_ms
    assert remote.assignment == local.assignment
    # per-disk flows (bucket counts per disk) follow from the assignment,
    # but assert them separately so a future assignment-encoding bug
    # cannot hide behind dict equality semantics
    local_flows: dict[int, int] = {}
    remote_flows: dict[int, int] = {}
    for d in local.assignment.values():
        local_flows[d] = local_flows.get(d, 0) + 1
    for d in remote.assignment.values():
        remote_flows[d] = remote_flows.get(d, 0) + 1
    assert remote_flows == local_flows
    for name in STATS_COUNTERS:
        assert getattr(remote.stats, name) == getattr(local.stats, name), (
            f"SolverStats.{name} diverged across the process boundary "
            f"on seed {seed}"
        )


def test_process_pool_solver_label_and_types(fleet):
    """The decoded schedule is typed like a local one (ints stay ints)."""
    rng = np.random.default_rng(0xF1EE7)
    problem = random_generalized(rng)
    remote, _ = fleet.solve(problem)
    assert remote.solver == "pr-binary"
    assert all(
        type(i) is int and type(d) is int
        for i, d in remote.assignment.items()
    )
    assert type(remote.stats.pushes) is int
    assert type(remote.response_time_ms) is float
