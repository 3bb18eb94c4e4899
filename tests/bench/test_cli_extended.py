"""Tests for the replay and analyze CLI subcommands."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main

#: ``repro replay`` stdout for four invocations, recorded on the
#: stand-alone replay loop the command ran before it ran on
#: ``SchedulerService``
REPLAY_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "replay_golden.json").read_text()
)


class TestReplayCommand:
    @pytest.mark.parametrize("case", sorted(REPLAY_GOLDEN))
    def test_golden_output(self, case, capsys):
        golden = REPLAY_GOLDEN[case]
        assert main(["replay", *golden["args"]]) == 0
        assert capsys.readouterr().out == golden["stdout"]

    def test_poisson_replay(self, capsys):
        assert main(["replay", "--n", "4", "--queries", "5",
                     "--experiment", "1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "poisson" in out
        assert "pr-binary" in out and "greedy-finish-time" in out
        assert "mean response" in out

    def test_session_replay(self, capsys):
        assert main(["replay", "--n", "5", "--trace", "session",
                     "--queries", "8", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "session" in out

    def test_custom_solvers(self, capsys):
        assert main(["replay", "--n", "4", "--queries", "4",
                     "--solver", "pr-incremental",
                     "--baseline", "round-robin", "--experiment", "1"]) == 0
        out = capsys.readouterr().out
        assert "pr-incremental" in out and "round-robin" in out


class TestAnalyzeCommand:
    def test_response(self, capsys):
        assert main(["analyze", "response", "--n", "4", "--queries", "3",
                     "--experiment", "1", "--load", "3"]) == 0
        out = capsys.readouterr().out
        assert "mean (ms)" in out

    def test_schemes(self, capsys):
        assert main(["analyze", "schemes", "--n", "4", "--queries", "3",
                     "--experiment", "1", "--load", "3"]) == 0
        out = capsys.readouterr().out
        for scheme in ("rda", "dependent", "orthogonal"):
            assert scheme in out

    def test_replication(self, capsys):
        assert main(["analyze", "replication", "--n", "4", "--queries", "3",
                     "--experiment", "1", "--load", "3"]) == 0
        out = capsys.readouterr().out
        assert "single-copy" in out and "replicated" in out

    def test_decision(self, capsys):
        assert main(["analyze", "decision", "--n", "4", "--queries", "3",
                     "--experiment", "1", "--load", "3"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out and "%" in out

    def test_work(self, capsys):
        assert main(["analyze", "work", "--n", "4", "--queries", "3",
                     "--experiment", "1", "--load", "3"]) == 0
        out = capsys.readouterr().out
        assert "pushes" in out and "blackbox-binary" in out
        assert "certified" in out

    def test_unknown_study_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "everything"])


class TestBenchDiffCommand:
    def _save(self, tmp_path, name, values):
        from repro.bench.figures import FigureResult, Panel
        from repro.bench.persistence import save_figure

        fig = FigureResult(
            "Figure X", "t",
            panels=[Panel("(a)", "N", [1, 2], {"s": values}, unit="ms")],
        )
        return str(save_figure(fig, tmp_path / name))

    def test_no_regression_exit_zero(self, tmp_path, capsys):
        a = self._save(tmp_path, "a.json", [1.0, 2.0])
        b = self._save(tmp_path, "b.json", [1.01, 2.02])
        assert main(["bench-diff", a, b]) == 0
        assert "within 25%" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        a = self._save(tmp_path, "a.json", [1.0, 2.0])
        b = self._save(tmp_path, "b.json", [1.0, 4.0])
        assert main(["bench-diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "2.00x" in out

    def test_custom_tolerance(self, tmp_path):
        a = self._save(tmp_path, "a.json", [1.0])
        b = self._save(tmp_path, "b.json", [1.4])
        assert main(["bench-diff", a, b, "--tolerance", "0.5"]) == 0
        assert main(["bench-diff", a, b, "--tolerance", "0.1"]) == 1


class TestSolveExplainFlag:
    def test_explain_prints_binding_set(self, capsys):
        from repro.cli import main

        assert main(["solve", "--experiment", "5", "--n", "5", "--load", "3",
                     "--explain", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "binding disks" in out
        assert "per-disk plan" in out


class TestProfileCommand:
    def test_profile_prints_hotspots(self, capsys):
        from repro.cli import main

        assert main(["profile", "--n", "4", "--queries", "2",
                     "--experiment", "1", "--load", "3", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile: pr-binary" in out
        assert "cumulative" in out
        assert "binary_scaling_solve" in out

    def test_profile_custom_solver_and_sort(self, capsys):
        from repro.cli import main

        assert main(["profile", "--solver", "ff-incremental", "--n", "4",
                     "--queries", "2", "--experiment", "1", "--load", "3",
                     "--sort", "tottime"]) == 0
        out = capsys.readouterr().out
        assert "ff-incremental" in out
