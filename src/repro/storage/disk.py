"""Disk specifications — the paper's Table III.

+-----------+-----------+------+------+-----------+
| Producer  | Model     | Type | RPM  | Time (ms) |
+===========+===========+======+======+===========+
| Seagate   | Barracuda | HDD  | 7.2K | 13.2      |
| WD        | Raptor    | HDD  | 10K  | 8.3       |
| Seagate   | Cheetah   | HDD  | 15K  | 6.1       |
| OCZ       | Vertex    | SSD  | —    | 0.5       |
| Intel     | X25-E     | SSD  | —    | 0.2       |
+-----------+-----------+------+------+-----------+

"Time" is the average access time to read one block (spin-up + seek +
rotational latency + transfer for HDDs; transfer only for SSDs), i.e. the
scheduler's ``C_j``.  Experiments draw disks from the groups ``hdd``,
``ssd``, ``ssd+hdd`` or use ``cheetah`` homogeneously (Table IV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import StorageConfigError

__all__ = ["DiskSpec", "Disk", "DISK_CATALOG", "DISK_GROUPS", "pick_disks"]


@dataclass(frozen=True)
class DiskSpec:
    """One row of Table III."""

    name: str
    producer: str
    model: str
    kind: str  # "HDD" or "SSD"
    rpm: int | None
    block_time_ms: float

    def __post_init__(self) -> None:
        if not 0 < self.block_time_ms < math.inf:
            raise StorageConfigError(
                f"block time must be positive and finite, "
                f"got {self.block_time_ms}"
            )
        if self.kind not in ("HDD", "SSD"):
            raise StorageConfigError(f"unknown disk kind {self.kind!r}")


#: Table III, keyed by short name.
DISK_CATALOG: dict[str, DiskSpec] = {
    "barracuda": DiskSpec("barracuda", "Seagate", "Barracuda", "HDD", 7200, 13.2),
    "raptor": DiskSpec("raptor", "WD", "Raptor", "HDD", 10000, 8.3),
    "cheetah": DiskSpec("cheetah", "Seagate", "Cheetah", "HDD", 15000, 6.1),
    "vertex": DiskSpec("vertex", "OCZ", "Vertex", "SSD", None, 0.5),
    "x25e": DiskSpec("x25e", "Intel", "X25-E", "SSD", None, 0.2),
}

#: Table IV's disk-group notation ("ssd", "hdd", "ssd+hdd", "cheetah", ...)
DISK_GROUPS: dict[str, tuple[str, ...]] = {
    "hdd": ("barracuda", "raptor", "cheetah"),
    "ssd": ("vertex", "x25e"),
    "ssd+hdd": ("barracuda", "raptor", "cheetah", "vertex", "x25e"),
    **{name: (name,) for name in DISK_CATALOG},
}


@dataclass
class Disk:
    """A physical disk instance inside a storage system.

    Attributes
    ----------
    disk_id:
        Global id (matches the allocation's disk ids).
    spec:
        Hardware spec; ``C_j = spec.block_time_ms``.
    initial_load_ms:
        ``X_j`` — time until this disk finishes its current work (0 when
        idle).  Mutable: a :class:`~repro.service.SchedulerService`
        refreshes it before each query from the earlier schedules.
    """

    disk_id: int
    spec: DiskSpec
    initial_load_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.disk_id < 0:
            raise StorageConfigError(f"disk id must be >= 0, got {self.disk_id}")
        if not 0 <= self.initial_load_ms < math.inf:
            raise StorageConfigError(
                f"initial load must be finite and >= 0, "
                f"got {self.initial_load_ms}"
            )

    @property
    def block_time_ms(self) -> float:
        """``C_j`` — average cost of retrieving one bucket."""
        return self.spec.block_time_ms


def pick_disks(
    group: str, count: int, rng: np.random.Generator | None = None
) -> list[DiskSpec]:
    """Draw ``count`` disk specs from a Table IV group.

    Singleton groups (e.g. ``"cheetah"``) are deterministic; mixed groups
    draw uniformly with replacement, as the paper's "disks are chosen
    randomly among the disk group" (§VI-E).
    """
    try:
        names = DISK_GROUPS[group]
    except KeyError:
        raise StorageConfigError(
            f"unknown disk group {group!r}; choose from {sorted(DISK_GROUPS)}"
        ) from None
    if count < 0:
        raise StorageConfigError(f"count must be >= 0, got {count}")
    if len(names) == 1:
        return [DISK_CATALOG[names[0]]] * count
    if rng is None:
        raise StorageConfigError(f"group {group!r} is random; an rng is required")
    chosen = rng.choice(len(names), size=count)
    return [DISK_CATALOG[names[int(k)]] for k in chosen]
