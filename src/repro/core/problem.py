"""Problem statement: which buckets, which replicas, which hardware.

Notation (the paper's Table I)
------------------------------
========  ==========================================================
``N``     total number of disks in the system
``|Q|``   number of buckets to retrieve (query size)
``c``     number of copies of each bucket
``C_j``   average retrieval cost of one bucket from disk ``j`` (ms)
``D_j``   network delay to disk ``j``'s site (ms)
``X_j``   time until disk ``j`` is idle; 0 if idle (ms)
========  ==========================================================

A :class:`RetrievalProblem` freezes one query against one system state.
The *basic* problem of [18] is the special case of homogeneous disks, one
site, and no delays or loads; :attr:`RetrievalProblem.is_basic` detects
it (Algorithm 1 is only valid there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.decluster.multisite import MultiSitePlacement
from repro.errors import InfeasibleScheduleError, WorkloadError
from repro.storage.system import StorageSystem

__all__ = ["RetrievalProblem"]


@dataclass(frozen=True)
class RetrievalProblem:
    """One query against one storage-system state.

    Attributes
    ----------
    system:
        The hardware: provides ``C_j``, ``D_j``, ``X_j`` per disk.
    replicas:
        ``replicas[i]`` is the tuple of disk ids holding copies of the
        query's ``i``-th bucket.  Duplicate ids within a tuple are allowed
        and collapse to one retrieval option.
    labels:
        Optional display labels per bucket (e.g. grid coordinates);
        defaults to the bucket index.
    """

    system: StorageSystem
    replicas: tuple[tuple[int, ...], ...]
    labels: tuple = field(default=())

    def __post_init__(self) -> None:
        if not self.replicas:
            raise InfeasibleScheduleError("query has no buckets")
        N = self.system.num_disks
        for i, reps in enumerate(self.replicas):
            if not reps:
                raise InfeasibleScheduleError(f"bucket {i} has no replicas")
            for d in reps:
                if not 0 <= d < N:
                    raise InfeasibleScheduleError(
                        f"bucket {i} replica on unknown disk {d} (N={N})"
                    )
        if self.labels and len(self.labels) != len(self.replicas):
            raise InfeasibleScheduleError(
                f"{len(self.labels)} labels for {len(self.replicas)} buckets"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_query(
        cls,
        system: StorageSystem,
        placement: MultiSitePlacement,
        bucket_coords: Sequence[tuple[int, int]],
    ) -> "RetrievalProblem":
        """Build a problem from grid coordinates under a placement.

        Coordinates wrap around the grid, as in
        :meth:`~repro.decluster.grid.ReplicatedAllocation.replicas_of`.
        Two coordinates that name the same bucket after wrapping raise
        :class:`~repro.errors.WorkloadError`: the bucket would be
        charged twice, yet the schedule's bucket map could show it once.
        """
        if placement.total_disks != system.num_disks:
            raise InfeasibleScheduleError(
                f"placement has {placement.total_disks} disks, "
                f"system has {system.num_disks}"
            )
        allocation = placement.allocation
        rows, cols = allocation.n_rows, allocation.n_cols
        seen: set[tuple[int, int]] = set()
        for (i, j) in bucket_coords:
            bucket = (i % rows, j % cols)
            if bucket in seen:
                raise WorkloadError(
                    f"duplicate bucket ({i},{j}): after wraparound it is "
                    f"bucket ({bucket[0]},{bucket[1]}) again"
                )
            seen.add(bucket)
        replicas_of = allocation.replicas_of
        reps = tuple([replicas_of(i, j) for (i, j) in bucket_coords])
        return cls(system, reps, labels=tuple(bucket_coords))

    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        """``|Q|``."""
        return len(self.replicas)

    @property
    def num_disks(self) -> int:
        """``N``."""
        return self.system.num_disks

    @property
    def num_copies(self) -> int:
        """``c`` — the maximum replica count over the query's buckets."""
        return max(len(set(r)) for r in self.replicas)

    @property
    def is_basic(self) -> bool:
        """True for the basic problem: homogeneous, idle, no delays."""
        costs = self.system.costs()
        return bool(
            np.all(costs == costs[0])
            and not np.any(self.system.delays())
            and not np.any(self.system.loads())
        )

    def replica_disks(self) -> set[int]:
        """All disks that hold at least one requested bucket."""
        return {d for reps in self.replicas for d in reps}

    def in_degree(self, disk: int) -> int:
        """Buckets of this query with a copy on ``disk``.

        Algorithm 3's removal test: a disk→sink edge whose capacity has
        reached this bound can never carry more flow.
        """
        return sum(1 for reps in self.replicas if disk in reps)

    def label_of(self, bucket_index: int) -> object:
        return (
            self.labels[bucket_index] if self.labels else bucket_index
        )

    # trivial bounds used by Algorithm 6 and by tests -------------------
    def theoretical_min_deadline(self) -> float:
        """Algorithm 6 lines 7-11: min over disks of
        ``D + X + ceil(|Q|/N) * C``, minus the fastest block time."""
        sys_ = self.system
        per_disk = -(-self.num_buckets // self.num_disks)  # ceil
        best = min(
            sys_.finish_time(j, per_disk) for j in range(self.num_disks)
        )
        min_speed = float(sys_.costs().min())
        return best - min_speed

    def theoretical_max_deadline(self) -> float:
        """Algorithm 6 lines 4-6: max over disks of ``D + X + |Q| * C``."""
        sys_ = self.system
        return max(
            sys_.finish_time(j, self.num_buckets) for j in range(self.num_disks)
        )

    def min_speed(self) -> float:
        """``C`` of the fastest disk (Algorithm 6's range resolution)."""
        return float(self.system.costs().min())
