"""Closed-form steps of the scaling skeleton equal what they replace.

``binary_scaling_solve`` answers three things from one
``rescale_terms`` snapshot instead of from the storage system or the
rescaled network:

* a bisection midpoint below a stored cut's ``until`` is cut-certified
  without ``set_deadline_capacities`` (:meth:`StoredCut.holds_at`);
* the bracket ``(tmin, tmax, min_speed)`` comes from one pass over the
  terms (:func:`closed_form_bracket`);
* the greedy certificate, the min-cost increments and the response
  time read ``D_j + X_j`` and ``C_j`` from the terms.

Each is checked ``==`` against the code path it replaces, on the
differential fuzz instances, at deadlines that land exactly on
``finish_time(j, k)`` and one ulp either side, and on a system whose
``t - D_j - X_j`` is still <= 0 at ``t = finish_time(j, 1)``.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import RetrievalProblem
from repro.core.greedy import greedy_finish_time
from repro.core.increment import MinCostIncrementer
from repro.core.network import RetrievalNetwork
from repro.core.scaling import StoredCut, closed_form_bracket
from repro.errors import InfeasibleScheduleError
from repro.storage import StorageSystem
from repro.storage.disk import Disk, DiskSpec
from repro.storage.site import Site

from tests.property.test_differential_fuzz import random_generalized

SEEDS = range(120)


def problem(seed: int) -> RetrievalProblem:
    return random_generalized(np.random.default_rng(0xC105ED + seed))


def boundary_deadlines(p: RetrievalProblem, rng: np.random.Generator) -> list[float]:
    """Finish times ``finish_time(j, k)``, one ulp either side, and
    random deadlines across the bracket."""
    sys_ = p.system
    out = []
    for j in range(p.num_disks):
        for k in range(1, p.num_buckets + 2):
            f = sys_.finish_time(j, k)
            out += [f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf)]
    lo, hi = p.theoretical_min_deadline(), p.theoretical_max_deadline()
    out += rng.uniform(lo - 5.0, hi + 5.0, size=40).tolist()
    return out


def degenerate_problem(
    load: float = 1e-17, block: float = 1e-17
) -> RetrievalProblem:
    """Disk 0's budget ``t - D_0 - X_0`` is negative at ``finish_time(0, 1)``.

    ``X_0`` and ``C_0`` are below half an ulp of ``D_0 = 1``, so
    ``D_0 + X_0 + k * C_0`` rounds to 1.0 for the first few ``k`` while
    ``(1.0 - D_0) - X_0`` is negative: at ``t = 1.0`` several buckets
    have finished although the float division guesses none.
    """
    tiny = DiskSpec("tiny", "test", "tiny", "SSD", None, block)
    plain = DiskSpec("plain", "test", "plain", "HDD", 7200, 2.5)
    disks = [Disk(0, tiny, initial_load_ms=load), Disk(1, plain)]
    sys_ = StorageSystem([Site(0, 1.0, disks)])
    return RetrievalProblem(sys_, ((0, 1), (0, 1), (1,)))


def record(
    net: RetrievalNetwork, t0: float, rng: np.random.Generator
) -> StoredCut:
    """A cut recorded at the capacities of ``t0``, with a random subset
    of the sink arcs saturated."""
    terms = net.problem.system.rescale_terms()
    net.set_deadline_capacities(t0, terms)
    g = net.graph
    for a in net.sink_arcs:
        full = rng.random() < 0.6 or g.cap[a] == 0
        g.flow[a] = g.cap[a] if full else g.cap[a] - 1
    return StoredCut.saturated(net, 0, terms)


def rescaled_holds(cut: StoredCut, net: RetrievalNetwork, t: float) -> bool:
    """What the skeleton did before: rescale to ``t``, then ``holds``."""
    net.set_deadline_capacities(t, net.problem.system.rescale_terms())
    return cut.holds(net.graph.cap)


@pytest.mark.parametrize("seed", SEEDS)
def test_capacities_at_is_capacity_at(seed):
    p = problem(seed)
    rng = np.random.default_rng(seed)
    sys_ = p.system
    for t in boundary_deadlines(p, rng):
        assert sys_.capacities_at(t) == [
            sys_.capacity_at(j, t) for j in range(p.num_disks)
        ]


@pytest.mark.parametrize("load", [1e-17, 3e-17])
def test_capacities_at_degenerate_budget_is_the_exact_inverse(load):
    # at 3e-17 the division guesses -3 buckets, below finish_time's domain
    p = degenerate_problem(load)
    sys_ = p.system
    assert sys_.finish_time(0, 1) == 1.0
    assert (1.0 - 1.0) - load < 0
    for t in (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)):
        caps = sys_.capacities_at(t)
        assert caps == [sys_.capacity_at(j, t) for j in (0, 1)]
        k = caps[0]
        assert k == 0 or sys_.finish_time(0, k) <= t
        assert sys_.finish_time(0, k + 1) > t
    assert sys_.capacities_at(math.nextafter(1.0, 0.0))[0] == 0
    assert sys_.capacities_at(1.0)[0] >= 1


@contextmanager
def time_limit(seconds: int):
    """Fail (instead of hanging the run) when the body outlives ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("load", [0.0, 1e-17])
def test_sub_ulp_block_time_is_the_exact_inverse(load):
    # a 1e-300 ms block on a 1 ms site: about 1e284 buckets finish by one
    # ulp past 1.0, so a fixup that steps one bucket at a time never ends
    p = degenerate_problem(load, block=1e-300)
    sys_ = p.system
    with time_limit(5):
        for t in (1.0, math.nextafter(1.0, 2.0), 2.0):
            caps = sys_.capacities_at(t)
            assert caps == [sys_.capacity_at(j, t) for j in (0, 1)]
            k = caps[0]
            assert k > 10**280
            assert sys_.finish_time(0, k) <= t < sys_.finish_time(0, k + 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_form_cut_test_equals_rescale_then_holds(seed):
    p = problem(seed)
    rng = np.random.default_rng(1000 + seed)
    net = RetrievalNetwork(p)
    deadlines = sorted(boundary_deadlines(p, rng))
    for t0 in rng.choice(deadlines, size=8):
        cut = record(net, float(t0), rng)
        for t in deadlines:
            if t < t0:
                continue  # the skeleton only asks above the recorded deadline
            assert cut.holds_at(t) == rescaled_holds(cut, net, t), (t0, t)


def test_closed_form_is_exact_in_the_degenerate_budget_case():
    p = degenerate_problem()
    terms = p.system.rescale_terms()
    net = RetrievalNetwork(p)
    net.set_deadline_capacities(0.5, terms)
    # disk 0 alone saturated at capacity 0
    g = net.graph
    g.flow[net.sink_arcs[1]] = -1  # any value below the capacity
    cut = StoredCut.saturated(net, 0, terms)
    g.flow[net.sink_arcs[1]] = 0
    assert cut.arcs == [net.sink_arcs[0]] and cut.caps == [0]
    assert cut.until == 1.0 == p.system.finish_time(0, 1)
    # disk 0 gains its first bucket at until, with a negative budget
    assert not cut.holds_at(1.0)
    assert not rescaled_holds(cut, net, 1.0)
    assert cut.holds_at(math.nextafter(1.0, 0.0))
    assert rescaled_holds(cut, net, math.nextafter(1.0, 0.0))


@pytest.mark.parametrize("seed", SEEDS)
def test_one_pass_bracket_equals_problem_methods(seed):
    p = problem(seed)
    got = closed_form_bracket(p.system.rescale_terms(), p.num_buckets)
    assert got == (
        p.theoretical_min_deadline(),
        p.theoretical_max_deadline(),
        p.min_speed(),
    )


def reference_greedy(p: RetrievalProblem, indices=None):
    """The greedy as it read the storage system before ``terms``."""
    sys_ = p.system
    disks = sys_.disks
    base = [
        sys_.site_of(j).delay_ms + d.initial_load_ms
        for j, d in enumerate(disks)
    ]
    cost = [d.block_time_ms for d in disks]
    nxt = [b + c for b, c in zip(base, cost)]
    counts = [0] * len(disks)
    choice = [0] * p.num_buckets
    order = range(p.num_buckets) if indices is None else indices
    for i in order:
        reps = p.replicas[i]
        best = reps[0]
        best_t = nxt[best]
        for d in reps:
            t = nxt[d]
            if t < best_t or (t == best_t and d < best):
                best, best_t = d, t
        choice[i] = best
        k = counts[best] = counts[best] + 1
        nxt[best] = base[best] + (k + 1) * cost[best]
    makespan = max(
        base[j] + k * cost[j] for j, k in enumerate(counts) if k > 0
    )
    return choice, counts, makespan


@pytest.mark.parametrize("seed", SEEDS)
def test_terms_greedy_equals_old_greedy(seed):
    p = problem(seed)
    terms = p.system.rescale_terms()
    backwards = list(range(p.num_buckets))[::-1]
    assert greedy_finish_time(p, terms=terms) == reference_greedy(p)
    assert greedy_finish_time(p) == reference_greedy(p)
    assert greedy_finish_time(p, backwards, terms=terms) == reference_greedy(
        p, backwards
    )


@pytest.mark.parametrize("seed", range(40))
def test_terms_increments_and_response_time_equal_finish_time(seed):
    p = problem(seed)
    sys_ = p.system
    terms = sys_.rescale_terms()
    with_terms, without = RetrievalNetwork(p), RetrievalNetwork(p)
    a, b = MinCostIncrementer(with_terms, terms), MinCostIncrementer(without)
    for _ in range(p.num_buckets + 1):
        try:
            cost = a.increment()
        except InfeasibleScheduleError:
            with pytest.raises(InfeasibleScheduleError):
                b.increment()
            break
        assert cost == b.increment()
        assert with_terms.sink_caps() == without.sink_caps()
    # a response time from the flow: route each bucket to its first replica
    g = with_terms.graph
    counts = [0] * p.num_disks
    for i, reps in enumerate(p.replicas):
        counts[min(reps)] += 1
    for j, a_ in enumerate(with_terms.sink_arcs):
        g.flow[a_] = counts[j]
    expected = max(
        sys_.finish_time(j, k) for j, k in enumerate(counts) if k > 0
    )
    assert with_terms.response_time(terms) == expected
    assert with_terms.response_time() == expected
