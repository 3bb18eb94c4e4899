"""Benchmarks for the extension surface: batch scheduling, degraded
mode, min-work tie-breaking, optimality certification.

None of these are paper figures; they time the features a downstream
adopter would run in production paths, and record their headline
outcomes (isolation penalty, failure slowdown, work savings) as
``extra_info``.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import BENCH_NS, make_batch
from repro.core import (
    certify_optimal,
    failure_impact,
    isolation_penalty,
    solve,
    solve_batch,
    solve_min_work,
)

N = min(BENCH_NS[-1], 12)


def burst(n_queries=4, seed=41):
    problems = make_batch(5, "orthogonal", "arbitrary", 3, N,
                          n_queries=n_queries, seed=seed)
    return problems


def test_batch_scheduling(benchmark):
    benchmark.group = "extensions"
    problems = burst()

    def run():
        return solve_batch(problems).makespan_ms

    benchmark(run)
    joint, isolated = isolation_penalty(problems)
    benchmark.extra_info["isolation_penalty_x"] = round(isolated / joint, 3)


def test_degraded_resolve(benchmark):
    benchmark.group = "extensions"
    problem = burst(n_queries=1)[0]
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
    problem = burst(n_queries=1)[0]

    def run():
        return solve_min_work(problem).optimal_work_ms

    benchmark(run)
    result = solve_min_work(problem)
    benchmark.extra_info["work_savings_fraction"] = round(
        result.savings_fraction, 4
    )


def test_certification(benchmark):
    benchmark.group = "extensions"
    problem = burst(n_queries=1)[0]
    sched = solve(problem)

    def run():
        return bool(certify_optimal(problem, sched))

    assert benchmark(run) is True
