"""Benchmarks for the extension surface: degraded mode, min-work
tie-breaking, optimality certification.

None of these are paper figures; they time the features a downstream
adopter would run in production paths, and record their headline
outcomes (failure slowdown, work savings) as ``extra_info``.
"""

from __future__ import annotations

from _common import BENCH_NS, make_batch
from repro.core import (
    certify_optimal,
    failure_impact,
    solve,
    solve_min_work,
)

N = min(BENCH_NS[-1], 12)


def one_problem(seed=41):
    return make_batch(5, "orthogonal", "arbitrary", 3, N,
                      n_queries=1, seed=seed)[0]


def test_degraded_resolve(benchmark):
    benchmark.group = "extensions"
    problem = one_problem()
    sched = solve(problem)
    failed = [sched.bottleneck_disk()]

    def run():
        return failure_impact(problem, failed).degraded_ms

    benchmark(run)
    impact = failure_impact(problem, failed)
    benchmark.extra_info["bottleneck_failure_slowdown_x"] = round(
        impact.slowdown, 3
    )


def test_min_work_tiebreak(benchmark):
    benchmark.group = "extensions"
    problem = one_problem()

    def run():
        return solve_min_work(problem).optimal_work_ms

    benchmark(run)
    result = solve_min_work(problem)
    benchmark.extra_info["work_savings_fraction"] = round(
        result.savings_fraction, 4
    )


def test_certification(benchmark):
    benchmark.group = "extensions"
    problem = one_problem()
    sched = solve(problem)

    def run():
        return bool(certify_optimal(problem, sched))

    assert benchmark(run) is True
