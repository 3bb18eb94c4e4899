"""Cut-certified points: the skeleton skips provably infeasible probes.

After every infeasible probe ``binary_scaling_solve`` and
``incremental_solve`` record the stored flow's value ``F`` and the
capacities of the sink arcs it saturates (:class:`StoredCut`).  At an
anchor, binary or increment point where every recorded arc keeps its
capacity the stored flow is still maximum, so the point is answered
infeasible with value ``F`` and no max-flow run.  A re-run would return
the stored flow unchanged, so eliding it changes no schedule.  Checked
here on the differential fuzz generator:

* switching the certificate off reproduces every response time and
  assignment with ``probes + cut_certified`` max-flow runs, for the
  four deterministic skeleton solvers and ``pr-incremental``;
* the ``initial_heights="zero"`` ablation keeps its makespans (its
  re-run from zero heights may reroute, so its assignments may differ);
* the trace lists every cut-certified point;
* the closed-form ``tmin`` is provably infeasible:
  ``sum(capacities_at(tmin)) < |Q|``;
* an armed sanitizer accepts sound certificates and catches a recorded
  cut with one saturated arc dropped.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import invariants
from repro.core import scaling, solve
from repro.core.binary_pr import PushRelabelBinarySolver
from repro.core.network import RetrievalNetwork
from repro.invariants import InvariantViolation, ProbeMonitor

from tests.property.test_differential_fuzz import random_generalized

#: every deterministic solver that probes through the skeleton
SOLVERS = [
    "pr-binary", "pr-csr", "blackbox-binary", "ff-binary", "pr-incremental",
]

SEEDS = range(60)


def problem(seed: int):
    return random_generalized(np.random.default_rng(0xC07 + seed))


def cut_off(monkeypatch) -> None:
    """Make the skeleton probe every point (the pre-certificate run).

    ``holds`` is the test on the rescaled capacities, ``holds_at`` the
    closed form the bisection asks first; both must say no.
    """
    monkeypatch.setattr(scaling.StoredCut, "holds", lambda self, cap: False)
    monkeypatch.setattr(scaling.StoredCut, "holds_at", lambda self, t: False)


@pytest.mark.parametrize("seed", SEEDS)
def test_eliding_changes_no_schedule(seed, monkeypatch):
    p = problem(seed)
    on = {s: solve(p, solver=s) for s in SOLVERS}
    cut_off(monkeypatch)
    off = {s: solve(p, solver=s) for s in SOLVERS}
    for s in SOLVERS:
        a, b = on[s].stats, off[s].stats
        assert on[s].response_time_ms == off[s].response_time_ms, s
        assert on[s].assignment == off[s].assignment, s
        assert b.cut_certified == 0
        assert b.probes == a.probes + a.cut_certified, s
        assert (b.certified, b.increments) == (a.certified, a.increments), s
        assert a.pushes <= b.pushes and a.relabels <= b.relabels, s
        assert a.augmentations == b.augmentations, s


def test_certificate_fires():
    stats = [solve(problem(seed), solver="pr-binary").stats for seed in SEEDS]
    assert sum(st.cut_certified for st in stats) > len(stats)


@pytest.mark.parametrize("seed", range(20))
def test_zero_height_ablation_keeps_makespans(seed, monkeypatch):
    p = problem(seed)
    solver = PushRelabelBinarySolver(initial_heights="zero")
    on = solver.solve(p)
    cut_off(monkeypatch)
    off = solver.solve(p)
    assert on.response_time_ms == off.response_time_ms
    assert off.stats.probes == on.stats.probes + on.stats.cut_certified


def test_pure_incremental_starts_cut_certified():
    # a fresh network has every sink capacity at 0: the zero flow is
    # maximum there, so the t = 0 entry point needs no probe
    p = problem(0)
    tr = solve(p, solver="pr-incremental", trace=True).stats.extra["trace"]
    first = tr.events[0]
    assert (first.phase, first.t, first.flow) == ("cut_certified", 0.0, 0)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("seed", range(10))
def test_trace_lists_every_cut_certified_point(solver, seed):
    p = problem(seed)
    sched = solve(p, solver=solver, trace=True)
    tr = sched.stats.extra["trace"]
    events = tr.cut_certified()
    assert len(events) == sched.stats.cut_certified
    assert tr.totals()["cut_certified"] == sched.stats.cut_certified
    for e in events:
        assert not e.feasible and e.flow < p.num_buckets
        assert (e.pushes, e.relabels, e.augmentations, e.wall_s) == (
            0, 0, 0, 0.0
        )
    points = len(tr.events) - 1  # all but the result record
    st = sched.stats
    assert points == st.probes + st.certified + st.cut_certified


@pytest.mark.parametrize("seed", range(200))
def test_closed_form_tmin_is_infeasible(seed):
    """``sum(capacities_at(tmin)) < |Q|`` on every differential instance.

    With ``p = ceil(|Q|/N)``, ``tmin = min_j finish(j, p) - min_speed``,
    so every disk finishes ``p`` buckets after ``tmin`` and
    ``capacities_at`` (the exact inverse of ``finish_time``) gives it at
    most ``p - 1``: at most ``N (p - 1) < |Q|`` in all.  The proof needs
    ``tmin < min_j finish(j, p)`` in floats, which fails only when
    ``min_speed`` is below half an ulp of that finish time.
    """
    p = random_generalized(np.random.default_rng(0xF10A + seed))
    sys_ = p.system
    per_disk = math.ceil(p.num_buckets / p.num_disks)
    best = min(sys_.finish_time(j, per_disk) for j in range(p.num_disks))
    tmin = p.theoretical_min_deadline()
    assert tmin < best  # the float caveat does not apply here
    caps = sys_.capacities_at(tmin)
    assert max(caps) <= per_disk - 1
    assert sum(caps) < p.num_buckets


class TestArmedCutCheck:
    @pytest.fixture
    def armed(self, monkeypatch):
        monkeypatch.setattr(invariants, "ENABLED", True)

    def test_sound_cuts_pass_armed(self, armed):
        for seed in range(10):
            p = problem(seed)
            for s in SOLVERS + ["parallel-binary"]:
                solve(p, solver=s)

    @pytest.mark.parametrize("solver", ["pr-binary", "pr-incremental"])
    def test_dropped_saturated_arc_is_caught(self, armed, monkeypatch, solver):
        real = scaling.StoredCut.saturated.__func__

        def drop_one(cls, network, flow, terms):
            cut = real(cls, network, flow, terms)
            arcs, caps = cut.arcs[1:], cut.caps[1:]
            # the closed form of the smaller record, so the bisection's
            # cut-certified points see the drop too
            disks = [network.sink_arcs.index(a) for a in arcs]
            until = min(
                [
                    terms[j][2] + (k + 1) * terms[j][3]
                    for j, k in zip(disks, caps)
                ],
                default=math.inf,
            )
            return cls(arcs, caps, cut.flow, until)

        monkeypatch.setattr(
            scaling.StoredCut, "saturated", classmethod(drop_one)
        )
        with pytest.raises(InvariantViolation, match="cut-certified"):
            for seed in SEEDS:
                solve(problem(seed), solver=solver)

    @pytest.mark.parametrize("solver", ["pr-binary", "ff-binary"])
    def test_binary_points_are_checked_at_their_own_capacities(
        self, armed, monkeypatch, solver
    ):
        """A binary-phase point answered by ``holds_at`` skips the
        rescale, except with the monitor armed: the monitor must see the
        capacities of the point's own deadline."""
        seen = []
        real = ProbeMonitor.after_cut_certified

        def spy(self, t, phase, arcs, caps, flow):
            if phase == "binary":
                net = self.network
                at_t = net.problem.system.capacities_at(t)
                seen.append(net.sink_caps() == at_t)
            return real(self, t, phase, arcs, caps, flow)

        monkeypatch.setattr(ProbeMonitor, "after_cut_certified", spy)
        for seed in range(10):
            solve(problem(seed), solver=solver)
        assert seen and all(seen)

    def test_changed_recorded_capacity_is_caught(self):
        p = problem(2)
        net = RetrievalNetwork(p)
        mon = ProbeMonitor(net)
        a = net.sink_arcs[0]
        with pytest.raises(InvariantViolation, match="recorded sink arc"):
            mon.after_cut_certified(5.0, "binary", [a], [1], 0)

    def test_cut_certified_above_feasible_breaks_monotonicity(self):
        p = problem(2)
        net = RetrievalNetwork(p)
        mon = ProbeMonitor(net)
        mon.after_probe(10.0, True, "binary")
        arcs = net.sink_arcs
        with pytest.raises(InvariantViolation, match="monotonicity"):
            mon.after_cut_certified(20.0, "binary", arcs, [0] * len(arcs), 0)
        assert mon.observations[-1] == (20.0, False, "cut_certified")
