"""Operation-count profiles per solver.

Wall-clock comparisons inherit machine noise; operation counts do not.
This study aggregates each solver's probes, certified midpoints,
cut-certified points, capacity increments, pushes, relabels and augmentations over a shared
query batch — the noise-free form of the paper's flow-conservation
argument (the black box must redo from zero the pushes the integrated
algorithm conserves).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.response import _sample_problems
from repro.core.api import get_solver

__all__ = ["WorkProfile", "work_profile_study"]


@dataclass(frozen=True)
class WorkProfile:
    """Aggregated operation counts of one solver over one batch."""

    solver: str
    n_queries: int
    probes: int
    increments: int
    pushes: int
    relabels: int
    augmentations: int
    certified: int = 0
    cut_certified: int = 0

    @property
    def pushes_per_query(self) -> float:
        return self.pushes / self.n_queries if self.n_queries else 0.0

    def conservation_ratio(self, other: "WorkProfile") -> float:
        """``other.pushes / self.pushes`` — how much push work the other
        solver spends for the same optima (inf if self did none)."""
        if self.pushes == 0:
            return float("inf") if other.pushes else 1.0
        return other.pushes / self.pushes


def work_profile_study(
    experiment: int,
    scheme: str,
    N: int,
    qtype: str,
    load: int,
    solvers: list[str] | None = None,
    *,
    n_queries: int = 20,
    seed: int = 0,
) -> dict[str, WorkProfile]:
    """Operation-count profiles per solver on one shared query batch.

    Cross-checks that all non-heuristic solvers agree on the optimum
    before reporting any counts.
    """
    if solvers is None:
        solvers = ["pr-binary", "blackbox-binary", "pr-incremental",
                   "ff-incremental"]
    problems = _sample_problems(
        experiment, scheme, N, qtype, load, n_queries, seed
    )
    out: dict[str, WorkProfile] = {}
    reference: list[float] | None = None
    for name in solvers:
        solver = get_solver(name)
        probes = certified = cut_certified = increments = 0
        pushes = relabels = augments = 0
        optima: list[float] = []
        for p in problems:
            sched = solver.solve(p)
            probes += sched.stats.probes
            certified += sched.stats.certified
            cut_certified += sched.stats.cut_certified
            increments += sched.stats.increments
            pushes += sched.stats.pushes
            relabels += sched.stats.relabels
            augments += sched.stats.augmentations
            optima.append(sched.response_time_ms)
        if name not in ("greedy-finish-time", "round-robin"):
            if reference is None:
                reference = optima
            else:
                assert all(
                    abs(a - b) < 1e-6 for a, b in zip(reference, optima)
                ), f"solver {name} disagreed on optima"
        out[name] = WorkProfile(
            solver=name,
            n_queries=len(problems),
            probes=probes,
            increments=increments,
            pushes=pushes,
            relabels=relabels,
            augmentations=augments,
            certified=certified,
            cut_certified=cut_certified,
        )
    return out
