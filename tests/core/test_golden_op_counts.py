"""Golden operation counts for the binary-scaling skeleton's solvers.

The differential suite compares ``pr-binary`` and ``pr-csr`` with each
other, so a mistake both engines share (say, in how a warm probe seeds
its excess) passes it.  This test pins each solve's
``(response_time_ms, assignment, probes, certified, cut_certified,
increments, pushes, relabels)`` for the two Algorithm 6 push–relabel solvers, the black-box
baseline and ``ff-binary`` on a fixed, seeded set of generalized
instances (Table IV experiment 5: heterogeneous disks, random delays and
initial loads) to recorded values.  Any change to the schedules or to the operation counts — and so
to the paper's counts and figures — fails here.

Regenerate the data file only for a deliberate change in behaviour::

    PYTHONPATH=src python tests/core/test_golden_op_counts.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import solve
from repro.decluster.multisite import make_placement
from repro.workloads.experiments import build_problem, build_system

DATA = Path(__file__).with_name("data") / "golden_op_counts.json"

SOLVERS = ("pr-binary", "pr-csr", "blackbox-binary", "ff-binary")

#: (N, query type, load, instance seeds) — 24 instances in all
CELLS = [
    (16, "range", 2, range(6)),
    (16, "arbitrary", 2, range(6)),
    (32, "range", 1, range(6)),
    (32, "arbitrary", 1, range(6)),
]


def instances():
    """Yield ``(key, problem)`` for every pinned instance."""
    for N, qtype, load, seeds in CELLS:
        for seed in seeds:
            rng = np.random.default_rng(1000 * N + seed)
            placement = make_placement("orthogonal", N, rng=rng)
            system = build_system(5, N, rng)
            problem = build_problem(
                5, "orthogonal", N, qtype, load, rng,
                placement=placement, system=system,
            )
            yield f"N{N}-{qtype}-load{load}-seed{seed}", problem


def observe(problem, solver: str) -> dict:
    sched = solve(problem, solver=solver)
    st = sched.stats
    return {
        "response_time_ms": sched.response_time_ms,
        "assignment": [sched.assignment[i] for i in range(problem.num_buckets)],
        "probes": st.probes,
        "certified": st.certified,
        "cut_certified": st.cut_certified,
        "increments": st.increments,
        "pushes": st.pushes,
        "relabels": st.relabels,
    }


def record() -> dict:
    """Observe every pinned solve, keyed ``"<instance> <solver>"``."""
    return {
        f"{key} {solver}": observe(problem, solver)
        for key, problem in instances()
        for solver in SOLVERS
    }


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else {}
CASES = list(instances())


def test_instance_set_is_pinned():
    assert len(CASES) >= 20
    assert sorted(GOLDEN) == sorted(
        f"{key} {solver}" for key, _ in CASES for solver in SOLVERS
    )


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize(
    "key,problem", CASES, ids=[key for key, _ in CASES]
)
def test_matches_recorded(key, problem, solver):
    assert observe(problem, solver) == GOLDEN[f"{key} {solver}"]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    rows = [
        f"{json.dumps(name)}: {json.dumps(obs, sort_keys=True)}"
        for name, obs in record().items()
    ]
    DATA.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {DATA}")
