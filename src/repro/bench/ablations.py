"""Ablation drivers (CLI-facing companions of the ablation benchmarks).

Each returns a :class:`~repro.bench.figures.FigureResult` so the CLI
(``repro figure ablation-engines`` etc.), JSON persistence and the
regression differ all work on ablations exactly as on paper figures.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.figures import FigureResult, Panel
from repro.bench.harness import BenchScale, current_scale
from repro.core.api import get_solver
from repro.decluster.multisite import make_placement
from repro.workloads.experiments import build_problem, build_system

__all__ = ["ablation_engines", "ablation_conservation", "greedy_gap"]

_ENGINES = ["ford-fulkerson", "edmonds-karp", "dinic", "push-relabel",
            "csr-push-relabel"]


def _problems(N, n_queries, seed, *, load=1, qtype="arbitrary"):
    rng = np.random.default_rng(seed)
    placement = make_placement("orthogonal", N, num_sites=2, rng=rng, seed=seed)
    system = build_system(5, N, rng)
    return [
        build_problem(5, "orthogonal", N, qtype, load, rng,
                      placement=placement, system=system)
        for _ in range(n_queries)
    ]


def _time_solver(problems, name, **kw) -> float:
    solver = get_solver(name, **kw)
    start = time.perf_counter()
    for p in problems:
        solver.solve(p)
    return 1000.0 * (time.perf_counter() - start) / len(problems)


def ablation_engines(scale: BenchScale | None = None, seed: int = 0) -> FigureResult:
    """Max-flow engine choice inside the black-box scheduler (§II-B)."""
    scale = scale or current_scale()
    fig = FigureResult("Ablation: engines",
                       "engine choice inside the black-box scheduler",
                       scale=scale)
    series: dict[str, list[float]] = {e: [] for e in _ENGINES}
    for N in scale.ns:
        problems = _problems(N, scale.queries_per_point, seed + N)
        for engine in _ENGINES:
            series[engine].append(
                _time_solver(problems, "blackbox-binary", engine=engine)
            )
    fig.panels.append(Panel(
        "black-box scheduler runtime by engine", "N", list(scale.ns), series,
    ))
    return fig


def ablation_conservation(
    scale: BenchScale | None = None, seed: int = 0
) -> FigureResult:
    """Flow conservation and binary scaling, in time and in operations."""
    scale = scale or current_scale()
    fig = FigureResult("Ablation: conservation",
                       "integrated vs black box vs no binary scaling",
                       scale=scale)
    solvers = ["pr-binary", "blackbox-binary", "pr-incremental", "ff-binary",
               "ff-incremental"]
    time_series: dict[str, list[float]] = {s: [] for s in solvers}
    push_series: dict[str, list[float]] = {
        s: [] for s in ("pr-binary", "blackbox-binary", "pr-incremental")
    }
    for N in scale.ns:
        problems = _problems(N, scale.queries_per_point, seed + N)
        for name in solvers:
            solver = get_solver(name)
            start = time.perf_counter()
            pushes = 0
            for p in problems:
                pushes += solver.solve(p).stats.pushes
            time_series[name].append(
                1000.0 * (time.perf_counter() - start) / len(problems)
            )
            if name in push_series:
                push_series[name].append(pushes / len(problems))
    fig.panels.append(Panel(
        "(a) runtime per query", "N", list(scale.ns), time_series,
    ))
    fig.panels.append(Panel(
        "(b) pushes per query (noise-free conservation evidence)",
        "N", list(scale.ns), push_series, unit="pushes",
    ))
    return fig


def greedy_gap(scale: BenchScale | None = None, seed: int = 0) -> FigureResult:
    """What optimality buys: greedy baselines vs the max-flow optimum."""
    scale = scale or current_scale()
    fig = FigureResult("Ablation: greedy gap",
                       "greedy heuristics vs the optimal scheduler",
                       scale=scale)
    xs = list(scale.ns)
    speed = {"optimal (pr-binary)": [], "greedy-finish-time": [],
             "round-robin": []}
    quality = {"greedy mean resp ratio": [], "greedy worst resp ratio": [],
               "round-robin mean resp ratio": []}
    for N in scale.ns:
        problems = _problems(N, scale.queries_per_point, seed + N)
        speed["optimal (pr-binary)"].append(_time_solver(problems, "pr-binary"))
        speed["greedy-finish-time"].append(
            _time_solver(problems, "greedy-finish-time"))
        speed["round-robin"].append(_time_solver(problems, "round-robin"))
        opt = get_solver("pr-binary")
        greedy = get_solver("greedy-finish-time")
        rr = get_solver("round-robin")
        g_ratios, r_ratios = [], []
        for p in problems:
            o = opt.solve(p).response_time_ms
            g_ratios.append(greedy.solve(p).response_time_ms / o)
            r_ratios.append(rr.solve(p).response_time_ms / o)
        quality["greedy mean resp ratio"].append(float(np.mean(g_ratios)))
        quality["greedy worst resp ratio"].append(float(np.max(g_ratios)))
        quality["round-robin mean resp ratio"].append(float(np.mean(r_ratios)))
    fig.panels.append(Panel("(a) scheduler runtime", "N", xs, speed))
    fig.panels.append(Panel(
        "(b) response-time quality vs optimal", "N", xs, quality, unit="x",
    ))
    return fig
