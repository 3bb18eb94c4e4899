"""Runtime invariant sanitizer (REPRO_CHECK_INVARIANTS).

Armed: every solver passes on real instances, and deliberately corrupted
state trips the checks.  Disarmed (the default): the hooks do no work —
even corrupt state sails through, proving the hot path is untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import invariants
from repro.core import RetrievalProblem, solve
from repro.errors import FlowValidationError
from repro.graph import FlowNetwork
from repro.invariants import InvariantViolation, ProbeMonitor, enabled_from_env
from repro.storage import StorageSystem


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setattr(invariants, "ENABLED", True)


def small_problem(seed=0, n_buckets=8):
    rng = np.random.default_rng(seed)
    sys_ = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], 3,
        delays_ms=rng.integers(0, 8, size=2).tolist(), rng=rng,
    )
    sys_.set_loads(rng.integers(0, 6, size=sys_.num_disks).astype(float))
    reps = tuple(
        tuple(sorted(rng.choice(sys_.num_disks, size=2, replace=False)))
        for _ in range(n_buckets)
    )
    return RetrievalProblem(sys_, reps)


class TestEnvSwitch:
    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", "False"])
    def test_falsey_values_disable(self, value):
        assert enabled_from_env({"REPRO_CHECK_INVARIANTS": value}) is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_values_enable(self, value):
        assert enabled_from_env({"REPRO_CHECK_INVARIANTS": value}) is True

    def test_unset_disables(self):
        assert enabled_from_env({}) is False

    def test_violation_is_a_flow_validation_error(self):
        assert issubclass(InvariantViolation, FlowValidationError)


class TestArmedSolvers:
    @pytest.mark.parametrize(
        "solver",
        ["ff-incremental", "pr-binary", "pr-incremental",
         "blackbox-binary", "parallel-binary"],
    )
    def test_generalized_solvers_pass(self, armed, solver):
        for seed in range(3):
            schedule = solve(small_problem(seed), solver=solver)
            assert schedule.response_time_ms > 0

    def test_basic_solver_passes(self, armed):
        sys_ = StorageSystem.homogeneous(6)
        reps = tuple((i % 6, (i + 1) % 6) for i in range(9))
        schedule = solve(RetrievalProblem(sys_, reps), solver="ff-basic")
        assert schedule.response_time_ms > 0


class TestFlowHooks:
    def corrupted_restore(self):
        g = FlowNetwork(3)
        a = g.add_arc(0, 1, 2.0)
        g.add_arc(1, 2, 2.0)
        saved = g.save_flow()
        saved[a] = 1.0  # twin left at 0.0: antisymmetry broken
        return g, saved

    def test_restore_flow_catches_broken_antisymmetry(self, armed):
        g, saved = self.corrupted_restore()
        with pytest.raises(InvariantViolation, match="antisymmetry"):
            g.restore_flow(saved)

    def test_restore_flow_accepts_valid_snapshot(self, armed):
        g = FlowNetwork(3)
        a = g.add_arc(0, 1, 2.0)
        g.push(a, 1.0)
        saved = g.save_flow()
        g.reset_flow()
        g.restore_flow(saved)
        assert g.flow[a] == 1.0

    def test_disabled_hook_does_no_work(self, monkeypatch):
        # the corrupt snapshot that trips the armed check passes silently
        # when disarmed — the disabled path runs zero assertions
        monkeypatch.setattr(invariants, "ENABLED", False)
        g, saved = self.corrupted_restore()
        g.restore_flow(saved)
        assert g.flow[0] == 1.0

    def test_clamp_hook_validates_network(self, armed):
        from repro.core.network import RetrievalNetwork

        net = RetrievalNetwork(small_problem())
        net.set_uniform_sink_caps(2)
        net.clamp_flow_to_sink_caps()  # zero flow: trivially valid

        # corrupt one sink arc past its capacity *and* break conservation;
        # the clamp only repairs what it can see as excess at the sink
        g = net.graph
        a = net.sink_arcs[0]
        g.flow[a] = 5.0  # twin untouched: conservation broken
        with pytest.raises(InvariantViolation):
            net.clamp_flow_to_sink_caps()


class TestProbeMonitor:
    def network(self):
        from repro.core.network import RetrievalNetwork

        return RetrievalNetwork(small_problem())

    def test_monotone_sequence_passes(self):
        mon = ProbeMonitor(self.network())
        mon.after_probe(10.0, False, "binary")
        mon.after_probe(20.0, True, "binary")
        mon.after_probe(15.0, False, "binary")
        assert len(mon.observations) == 3

    def test_feasible_below_infeasible_raises(self):
        mon = ProbeMonitor(self.network())
        mon.after_probe(20.0, False, "anchor")
        with pytest.raises(InvariantViolation, match="monotonicity"):
            mon.after_probe(10.0, True, "binary")

    def test_increment_phase_not_deadline_indexed(self):
        # increment-phase candidates are min-cost finish times, not the
        # binary-search parameter — they must not feed the monotone check
        mon = ProbeMonitor(self.network())
        mon.after_probe(20.0, False, "binary")
        mon.after_probe(10.0, True, "increment")
        assert mon.observations[-1] == (10.0, True, "increment")

    def test_probe_hook_wired_into_scaling(self, armed):
        # an armed binary-scaling solve constructs a monitor and records
        # every probe through it (anchor + binary + increment phases)
        from repro.core import scaling

        captured = []
        original = scaling.invariants.ProbeMonitor

        class Spy(original):
            def __init__(self, network):
                super().__init__(network)
                captured.append(self)

        scaling.invariants.ProbeMonitor = Spy
        try:
            solve(small_problem(), solver="pr-binary")
        finally:
            scaling.invariants.ProbeMonitor = original
        assert captured, "armed solve did not build a ProbeMonitor"
        phases = {p for mon in captured for (_, _, p) in mon.observations}
        assert "binary" in phases or "anchor" in phases
        assert "increment" in phases


class TestCarriedExcess:
    """Warm push–relabel probes reuse the excess their last run (or a
    StoreFlows snapshot) left; armed, every such reuse is re-derived."""

    @pytest.fixture(params=["list", "csr"])
    def prober(self, request):
        from repro.core.binary_csr import CsrProber
        from repro.core.incremental_pr import SequentialProber

        return SequentialProber() if request.param == "list" else CsrProber()

    @staticmethod
    def attached(prober):
        from repro.core.network import RetrievalNetwork

        net = RetrievalNetwork(small_problem())
        prober.attach(net)
        net.set_deadline_capacities(net.problem.theoretical_max_deadline())
        return net

    @staticmethod
    def spy(monkeypatch):
        calls = []
        real = invariants.check_carried_excess

        def check(graph, source, excess, context):
            calls.append(context)
            real(graph, source, excess, context)

        monkeypatch.setattr(invariants, "check_carried_excess", check)
        return calls

    def test_flow_write_behind_prober_is_caught(self, armed, prober):
        net = self.attached(prober)
        assert prober.probe() == net.problem.num_buckets
        # unroute one bucket's replica arc without telling the prober:
        # antisymmetric, but the bucket and disk net inflows both move
        g = net.graph
        a = next(a for arcs in net.replica_arcs for a in arcs if g.flow[a])
        g.flow[a] -= 1
        g.flow[a ^ 1] += 1
        with pytest.raises(InvariantViolation, match="carried excess"):
            prober.probe()

    def test_restore_without_exact_snapshot_recomputes(
        self, armed, prober, monkeypatch
    ):
        net = self.attached(prober)
        saved = prober.save()  # no run yet: excess not known exact
        assert saved[1] is None
        Q = net.problem.num_buckets
        assert prober.probe() == Q
        prober.restore(saved)  # back to the zero flow
        calls = self.spy(monkeypatch)
        # reusing the run's excess would count its Q delivered units
        # twice; the recompute sees the restored (empty) sink
        assert prober.probe() == Q
        assert calls == []

    def test_reset_flow_drops_carried_excess(self, armed, prober, monkeypatch):
        net = self.attached(prober)
        Q = net.problem.num_buckets
        assert prober.probe() == Q
        prober.reset_flow()
        assert prober.save()[1] is None
        calls = self.spy(monkeypatch)
        assert prober.probe() == Q
        assert calls == []

    @pytest.mark.parametrize("solver", ["pr-binary", "pr-csr"])
    def test_every_warm_probe_is_checked(self, armed, monkeypatch, solver):
        calls = self.spy(monkeypatch)
        schedule = solve(small_problem(), solver=solver)
        # only the solve's first probe recomputes (the anchor at the
        # closed-form tmin is infeasible here, so no reset follows it)
        assert len(calls) == schedule.stats.probes - 1


class TestExactHeights:
    """Armed, every list-engine global relabel is re-derived from two
    full residual BFS passes and a separate histogram pass."""

    @staticmethod
    def relabeled_state():
        from repro.core.network import RetrievalNetwork
        from repro.maxflow import PushRelabelState

        net = RetrievalNetwork(small_problem())
        net.set_deadline_capacities(net.problem.theoretical_min_deadline())
        state = PushRelabelState(net.graph, net.source, net.sink)
        state.initialize()
        state.run()
        state._global_relabel()
        return state

    @staticmethod
    def check(state):
        invariants.check_exact_heights(
            state.g, state.s, state.t, state.height, state.height_count,
            state.current, "test",
        )

    def test_exact_state_passes(self):
        self.check(self.relabeled_state())

    def test_wrong_height_is_caught(self):
        state = self.relabeled_state()
        state.height[2] += 1  # the first bucket vertex
        with pytest.raises(InvariantViolation, match="vertex 2 has height"):
            self.check(state)

    def test_stale_histogram_is_caught(self):
        state = self.relabeled_state()
        state.height_count[0] += 1
        with pytest.raises(InvariantViolation, match="histogram"):
            self.check(state)

    def test_unreset_current_arc_is_caught(self):
        state = self.relabeled_state()
        state.current[2] = 1
        with pytest.raises(InvariantViolation, match="current-arc"):
            self.check(state)

    @staticmethod
    def broken_bfs_state():
        """A state whose BFS topology lost the sink's twin arcs."""
        from repro.core.network import RetrievalNetwork
        from repro.maxflow import PushRelabelState

        net = RetrievalNetwork(small_problem())
        net.set_deadline_capacities(net.problem.theoretical_max_deadline())
        state = PushRelabelState(net.graph, net.source, net.sink)
        net.graph.twin_arc_lists()[net.sink].clear()
        return state

    def test_hook_catches_a_wrong_global_relabel(self, armed):
        state = self.broken_bfs_state()
        with pytest.raises(InvariantViolation, match="_global_relabel"):
            state.initialize()

    def test_disarmed_hook_does_no_work(self, monkeypatch):
        monkeypatch.setattr(invariants, "ENABLED", False)
        self.broken_bfs_state().initialize()  # wrong heights, no check
