"""Micro-scale tests for the ablation figure drivers."""

from __future__ import annotations

from repro.bench.ablations import (
    ablation_conservation,
    ablation_engines,
    greedy_gap,
)
from repro.bench.figures import FIGURES
from repro.bench.harness import BenchScale

MICRO = BenchScale(ns=(3, 4), queries_per_point=2, full=False)


class TestAblationEngines:
    def test_series_per_engine(self):
        fig = ablation_engines(scale=MICRO, seed=1)
        panel = fig.panels[0]
        assert sorted(panel.series) == [
            "csr-push-relabel", "dinic", "edmonds-karp", "ford-fulkerson",
            "push-relabel",
        ]
        assert all(len(v) == 2 for v in panel.series.values())
        assert all(x > 0 for v in panel.series.values() for x in v)

    def test_registered_in_figures(self):
        result = FIGURES["ablation-engines"](scale=MICRO, seed=1)
        assert result.figure_id == "Ablation: engines"


class TestAblationConservation:
    def test_two_panels(self):
        fig = ablation_conservation(scale=MICRO, seed=2)
        assert len(fig.panels) == 2
        time_panel, push_panel = fig.panels
        assert "pr-binary" in time_panel.series
        assert "ff-incremental" in time_panel.series
        assert push_panel.unit == "pushes"

    def test_conservation_visible_in_pushes(self):
        fig = ablation_conservation(scale=MICRO, seed=2)
        pushes = fig.panels[1].series
        for bb, integ in zip(pushes["blackbox-binary"], pushes["pr-binary"]):
            assert bb >= integ  # conservation can only reduce pushes


class TestGreedyGap:
    def test_quality_panel_ratios_at_least_one(self):
        fig = greedy_gap(scale=MICRO, seed=3)
        quality = fig.panels[1].series
        for name, values in quality.items():
            assert all(v >= 1.0 - 1e-9 for v in values), name

    def test_speed_panel_greedy_faster(self):
        fig = greedy_gap(scale=MICRO, seed=3)
        speed = fig.panels[0].series
        for g, o in zip(speed["greedy-finish-time"], speed["optimal (pr-binary)"]):
            assert g < o

    def test_json_roundtrip(self, tmp_path):
        from repro.bench.persistence import load_figure, save_figure

        fig = greedy_gap(scale=MICRO, seed=3)
        restored = load_figure(save_figure(fig, tmp_path / "gg.json"))
        assert restored.panels[0].series.keys() == fig.panels[0].series.keys()
