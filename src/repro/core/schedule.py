"""Solver outputs: the retrieval schedule and its statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Mapping

from repro.core.problem import RetrievalProblem
from repro.errors import InfeasibleScheduleError

if TYPE_CHECKING:
    from repro.maxflow.base import MaxFlowResult

__all__ = ["SolverStats", "RetrievalSchedule"]


@dataclass
class SolverStats:
    """Work accounting for one solve.

    Attributes
    ----------
    probes:
        Max-flow runs (binary-scaling iterations count one each).
    certified:
        Binary-scaling midpoints answered feasible from the greedy
        upper-bound certificate instead of a max-flow run (see
        :mod:`repro.core.scaling`).
    cut_certified:
        Anchor, binary-scaling and increment points answered infeasible
        from the stored flow's saturated cut instead of a max-flow run
        (see :mod:`repro.core.scaling`); ``probes + certified +
        cut_certified`` is the number of points the search visited.
    increments:
        ``IncrementMinCost`` / uniform-increment steps performed.
    pushes, relabels, augmentations:
        Summed engine operation counts.
    wall_time_s:
        Wall-clock time of the solve (set by the public API).
    """

    probes: int = 0
    certified: int = 0
    cut_certified: int = 0
    increments: int = 0
    pushes: int = 0
    relabels: int = 0
    augmentations: int = 0
    wall_time_s: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def absorb(self, result: "MaxFlowResult") -> None:
        """Accumulate a :class:`~repro.maxflow.MaxFlowResult`'s counters."""
        self.pushes += result.pushes
        self.relabels += result.relabels
        self.augmentations += result.augmentations


@dataclass(frozen=True)
class RetrievalSchedule:
    """An optimal (or candidate) retrieval plan for one problem.

    Attributes
    ----------
    problem:
        The problem this schedule solves.
    assignment:
        bucket index → disk id.
    response_time_ms:
        ``max_j (D_j + X_j + k_j C_j)`` under this assignment.
    stats:
        Solver work accounting.
    solver:
        Registry name of the producing solver.
    """

    problem: RetrievalProblem
    assignment: Mapping[int, int]
    response_time_ms: float
    stats: SolverStats
    solver: str = "?"

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Every bucket assigned, and only to one of its replicas."""
        assignment = self.assignment
        replicas = self.problem.replicas
        Q = len(replicas)
        missing = [i for i in range(Q) if i not in assignment]
        if missing:
            raise InfeasibleScheduleError(
                f"{len(missing)} bucket(s) unassigned, e.g. {missing[:5]}"
            )
        for i, d in assignment.items():
            if not 0 <= i < Q:
                raise InfeasibleScheduleError(f"unknown bucket index {i}")
            if d not in replicas[i]:
                raise InfeasibleScheduleError(
                    f"bucket {i} assigned to disk {d}, but its replicas are "
                    f"{replicas[i]}"
                )

    # ------------------------------------------------------------------
    def counts_per_disk(self) -> list[int]:
        counts = [0] * self.problem.num_disks
        for d in self.assignment.values():
            counts[d] += 1
        return counts

    def recompute_response_time(self) -> float:
        """Response time from first principles (used to cross-check)."""
        sys_ = self.problem.system
        worst = 0.0
        for j, k in enumerate(self.counts_per_disk()):
            if k > 0:
                worst = max(worst, sys_.finish_time(j, k))
        return worst

    def bottleneck_disk(self) -> int:
        """The disk whose finish time equals the response time."""
        sys_ = self.problem.system
        best_j, best_t = -1, -1.0
        for j, k in enumerate(self.counts_per_disk()):
            if k > 0:
                t = sys_.finish_time(j, k)
                if t > best_t:
                    best_j, best_t = j, t
        return best_j

    def as_bucket_map(self) -> dict[Hashable, int]:
        """Assignment keyed by the problem's bucket labels."""
        labels = self.problem.labels
        if not labels:
            return dict(self.assignment)
        return {labels[i]: d for i, d in self.assignment.items()}

    def summary(self) -> str:
        """One-paragraph human description (examples/CLI)."""
        counts = self.counts_per_disk()
        used = sum(1 for k in counts if k > 0)
        return (
            f"{self.problem.num_buckets} buckets over {used}/"
            f"{self.problem.num_disks} disks; response "
            f"{self.response_time_ms:.2f} ms (bottleneck disk "
            f"{self.bottleneck_disk()}); solver={self.solver}, "
            f"probes={self.stats.probes}, increments={self.stats.increments}"
        )
