"""Certified midpoints: Algorithm 6's skeleton skips provably feasible probes.

``binary_scaling_solve`` answers every bisection midpoint at or above the
greedy makespan as feasible without running max-flow.  The certificate
depends only on the problem, so every prober on the skeleton elides the
same midpoints, and eliding them changes no schedule.  Checked here on
the differential fuzz generator:

* ``certified`` and ``probes + certified`` agree across the five
  skeleton solvers;
* the skeleton's bound is the ``greedy-finish-time`` response time;
* switching the certificate off (an infinite bound) reproduces the same
  schedule with ``probes + certified`` max-flow runs, also for a
  re-anchored bracket;
* an armed sanitizer catches an unsound (too low) bound.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import invariants
from repro.core import RetrievalProblem, scaling, solve
from repro.core.network import RetrievalNetwork
from repro.invariants import InvariantViolation, ProbeMonitor

from tests.property.test_differential_fuzz import random_generalized

SKELETON_SOLVERS = [
    "pr-binary", "pr-csr", "blackbox-binary", "ff-binary", "parallel-binary",
]

#: solvers whose assignment is deterministic (parallel-binary's threads
#: may route ties differently between runs; its makespan is exact)
DETERMINISTIC = [s for s in SKELETON_SOLVERS if s != "parallel-binary"]

SEEDS = range(40)


def problem(seed: int) -> RetrievalProblem:
    return random_generalized(np.random.default_rng(0xCE27 + seed))


def certificate_off(monkeypatch) -> None:
    """Make the skeleton probe every midpoint (the pre-certificate run)."""
    real = scaling.greedy_finish_time

    def no_bound(p, *args, **kwargs):
        choice, counts, _ = real(p, *args, **kwargs)
        return choice, counts, math.inf

    monkeypatch.setattr(scaling, "greedy_finish_time", no_bound)


@pytest.mark.parametrize("seed", SEEDS)
def test_certificate_is_prober_independent(seed):
    p = problem(seed)
    stats = {s: solve(p, solver=s).stats for s in SKELETON_SOLVERS}
    certified = {s: st.certified for s, st in stats.items()}
    visited = {
        s: st.probes + st.certified + st.cut_certified
        for s, st in stats.items()
    }
    assert certified["pr-binary"] > 0  # the loose tmax leaves some
    assert len(set(certified.values())) == 1, certified
    assert len(set(visited.values())) == 1, visited


@pytest.mark.parametrize("seed", SEEDS)
def test_bound_is_the_greedy_response_time(seed, monkeypatch):
    p = problem(seed)
    bounds = []
    real = scaling.greedy_finish_time

    def spy(q, *args, **kwargs):
        out = real(q, *args, **kwargs)
        bounds.append(out[2])
        return out

    monkeypatch.setattr(scaling, "greedy_finish_time", spy)
    sched = solve(p, solver="pr-binary", trace=True)
    (bound,) = bounds
    assert bound == solve(p, solver="greedy-finish-time").response_time_ms
    trace = sched.stats.extra["trace"]
    # the trace lists the whole search path: certified midpoints at or
    # above the bound, max-flow midpoints strictly below it
    assert len(trace.certified()) == sched.stats.certified
    assert trace.totals()["certified"] == sched.stats.certified
    assert all(e.t >= bound for e in trace.certified())
    assert all(e.t < bound for e in trace.probes("binary"))
    for e in trace.certified():
        assert e.feasible and e.flow == p.num_buckets
        assert (e.pushes, e.relabels, e.augmentations, e.wall_s) == (
            0, 0, 0, 0.0
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_eliding_changes_no_schedule(seed, monkeypatch):
    p = problem(seed)
    on = {s: solve(p, solver=s) for s in SKELETON_SOLVERS}
    certificate_off(monkeypatch)
    off = {s: solve(p, solver=s) for s in SKELETON_SOLVERS}
    for s in SKELETON_SOLVERS:
        assert on[s].response_time_ms == off[s].response_time_ms, s
        assert off[s].stats.certified == 0
        assert off[s].stats.probes == (
            on[s].stats.probes + on[s].stats.certified
        ), s
        assert off[s].stats.increments == on[s].stats.increments, s
    for s in DETERMINISTIC:
        assert on[s].assignment == off[s].assignment, s


@pytest.mark.parametrize("seed", range(8))
def test_reanchored_bracket_still_elides_exactly(seed, monkeypatch):
    p = problem(seed)
    opt = solve(p, solver="pr-binary").response_time_ms
    # a feasible closed-form "lower" bound: the anchor probe succeeds and
    # the bracket re-anchors at [0, tmin]
    real = scaling.closed_form_bracket
    monkeypatch.setattr(
        scaling, "closed_form_bracket",
        lambda terms, q: (opt + 50.0, *real(terms, q)[1:]),
    )
    on = {s: solve(p, solver=s, trace=True) for s in SKELETON_SOLVERS}
    (anchor,) = on["pr-binary"].stats.extra["trace"].probes("anchor")
    assert anchor.feasible
    assert len({sc.stats.certified for sc in on.values()}) == 1
    assert on["pr-binary"].stats.certified > 0
    certificate_off(monkeypatch)
    for s in SKELETON_SOLVERS:
        off = solve(p, solver=s)
        assert on[s].response_time_ms == off.response_time_ms == opt, s
        assert off.stats.probes == (
            on[s].stats.probes + on[s].stats.certified
        ), s
        if s in DETERMINISTIC:
            assert on[s].assignment == off.assignment, s


class TestArmedCertificateCheck:
    @pytest.fixture
    def armed(self, monkeypatch):
        monkeypatch.setattr(invariants, "ENABLED", True)

    def test_sound_certificate_passes_armed(self, armed):
        for seed in range(10):
            p = problem(seed)
            for s in SKELETON_SOLVERS:
                solve(p, solver=s)

    @pytest.mark.parametrize("solver", SKELETON_SOLVERS)
    def test_too_low_bound_is_caught(self, armed, monkeypatch, solver):
        real = scaling.greedy_finish_time

        def too_low(p, *args, **kwargs):
            choice, counts, _ = real(p, *args, **kwargs)
            return choice, counts, 0.0  # certifies every midpoint

        monkeypatch.setattr(scaling, "greedy_finish_time", too_low)
        with pytest.raises(InvariantViolation, match="certified"):
            solve(problem(1), solver=solver)

    def test_certified_below_infeasible_breaks_monotonicity(self):
        p = problem(2)
        mon = ProbeMonitor(RetrievalNetwork(p))
        mon.after_probe(20.0, False, "binary")
        with pytest.raises(InvariantViolation, match="monotonicity"):
            mon.after_certified(10.0, [0] * p.num_disks)
        assert mon.observations[-1] == (10.0, True, "certified")
