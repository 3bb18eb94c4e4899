"""Mid-run global relabels: the list and CSR engines stay op-for-op equal.

The default exact-height path never relabels globally inside ``run()``.
``initial_heights="zero"`` with an explicit ``global_relabel_interval``
does, and a relabel assigns the state fresh height, current-arc and
histogram lists.  ``run()`` must continue on those, exactly as the CSR
kernel continues on its rewritten buffers; a discharge loop left on the
stale lists still reaches a maximum flow but by different pushes and
relabels.  Interval 1 relabels after every relabel, so every seeded
query exercises the path many times.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import solve
from repro.workloads.experiments import build_problem

ZERO_HEIGHTS = {"initial_heights": "zero", "global_relabel_interval": 1}


def query(seed: int):
    rng = np.random.default_rng(seed)
    qtype = ("range", "arbitrary")[seed % 2]
    return build_problem(5, "orthogonal", 8, qtype, 1 + seed % 3, rng)


def observe(problem, solver: str) -> dict:
    sched = solve(problem, solver=solver, **ZERO_HEIGHTS)
    st = sched.stats
    return {
        "response_time_ms": sched.response_time_ms,
        "assignment": [sched.assignment[i] for i in range(problem.num_buckets)],
        "probes": st.probes,
        "increments": st.increments,
        "pushes": st.pushes,
        "relabels": st.relabels,
    }


@pytest.mark.parametrize("seed", range(20))
def test_list_and_csr_engines_agree(seed):
    problem = query(seed)
    binary = observe(problem, "pr-binary")
    assert binary == observe(problem, "pr-csr")
    assert binary["response_time_ms"] == solve(problem).response_time_ms
