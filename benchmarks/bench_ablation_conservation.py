"""Ablation — the design choices DESIGN.md calls out.

1. **Flow conservation** (the paper's thesis): integrated vs black-box
   probes, measured in *push operations* as well as wall time.
2. **Binary scaling** (Algorithm 6 vs Algorithm 5): with and without the
   O(log |Q|) capacity jump before incrementation.
3. **Initial heights** (exact BFS distances vs the pseudocode's zeros)
   and the **gap heuristic**, inside the integrated solver.
"""

from __future__ import annotations

from _common import BENCH_NS, make_batch
from repro.core.api import get_solver

N = BENCH_NS[-1]


def _run_batch(benchmark, solver_name, **kwargs):
    problems = make_batch(5, "orthogonal", "arbitrary", 1, N, seed=14)
    solver = get_solver(solver_name, **kwargs)

    def run():
        total = 0.0
        for p in problems:
            total += solver.solve(p).response_time_ms
        return total

    benchmark(run)
    # operation-count ablation, robust to machine noise
    pushes = probes = 0
    for p in problems:
        sched = solver.solve(p)
        pushes += sched.stats.pushes
        probes += sched.stats.probes
    benchmark.extra_info["total_pushes"] = pushes
    benchmark.extra_info["total_probes"] = probes


class TestConservation:
    def test_integrated(self, benchmark):
        benchmark.group = f"ablation conservation N={N}"
        _run_batch(benchmark, "pr-binary")

    def test_black_box(self, benchmark):
        benchmark.group = f"ablation conservation N={N}"
        _run_batch(benchmark, "blackbox-binary")


class TestBinaryScaling:
    def test_with_scaling_alg6(self, benchmark):
        benchmark.group = f"ablation binary-scaling N={N}"
        _run_batch(benchmark, "pr-binary")

    def test_without_scaling_alg5(self, benchmark):
        benchmark.group = f"ablation binary-scaling N={N}"
        _run_batch(benchmark, "pr-incremental")


class TestHeuristics:
    def test_exact_heights(self, benchmark):
        benchmark.group = f"ablation pr-heuristics N={N}"
        _run_batch(benchmark, "pr-binary", initial_heights="exact")

    def test_zero_heights(self, benchmark):
        benchmark.group = f"ablation pr-heuristics N={N}"
        _run_batch(benchmark, "pr-binary", initial_heights="zero")

    def test_no_gap_heuristic(self, benchmark):
        benchmark.group = f"ablation pr-heuristics N={N}"
        _run_batch(benchmark, "pr-binary", gap_heuristic=False)

    def test_no_global_relabel(self, benchmark):
        benchmark.group = f"ablation pr-heuristics N={N}"
        _run_batch(benchmark, "pr-binary", global_relabel_interval=0)
