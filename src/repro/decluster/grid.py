"""Grid allocations: one copy of the data space mapped to disks.

An :class:`Allocation` is an ``N × N`` integer grid whose cell ``(i, j)``
names the disk storing bucket ``(i, j)`` (Figure 2 of the paper shows two
such grids side by side).  A :class:`ReplicatedAllocation` stacks ``c``
copies, giving each bucket its replica set.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import DeclusteringError

__all__ = ["Allocation", "ReplicatedAllocation"]


class Allocation:
    """A single-copy declustering of an ``n_rows × n_cols`` grid.

    Parameters
    ----------
    grid:
        2-D integer array-like; entry ``(i, j)`` is the disk of bucket
        ``(i, j)``.
    num_disks:
        Size of the disk pool this copy is declustered over.  Defaults to
        ``grid.max() + 1``.
    """

    __slots__ = ("grid", "num_disks")

    def __init__(self, grid, num_disks: int | None = None) -> None:
        arr = np.asarray(grid, dtype=np.int64)
        if arr.ndim != 2:
            raise DeclusteringError(f"allocation grid must be 2-D, got {arr.ndim}-D")
        if arr.size == 0:
            raise DeclusteringError("allocation grid must be non-empty")
        if arr.min() < 0:
            raise DeclusteringError("disk ids must be non-negative")
        if num_disks is None:
            num_disks = int(arr.max()) + 1
        if arr.max() >= num_disks:
            raise DeclusteringError(
                f"disk id {int(arr.max())} out of range for {num_disks} disks"
            )
        self.grid = arr
        self.num_disks = int(num_disks)

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.grid.shape[0]

    @property
    def n_cols(self) -> int:
        return self.grid.shape[1]

    def disk_of(self, i: int, j: int) -> int:
        """Disk storing bucket ``(i, j)`` — wraparound indices allowed."""
        return int(self.grid[i % self.n_rows, j % self.n_cols])

    def buckets_on(self, disk: int) -> list[tuple[int, int]]:
        """All buckets stored on ``disk``."""
        ii, jj = np.nonzero(self.grid == disk)
        return list(zip(ii.tolist(), jj.tolist()))

    def disk_counts(self) -> np.ndarray:
        """Bucket count per disk, shape ``(num_disks,)``."""
        return np.bincount(self.grid.ravel(), minlength=self.num_disks)

    def shifted(self, m: int) -> "Allocation":
        """The allocation ``(self + m) mod num_disks`` (dependent copy)."""
        return Allocation((self.grid + m) % self.num_disks, self.num_disks)

    def relabeled(self, offset: int, num_disks: int) -> "Allocation":
        """Shift every disk id by ``offset`` into a larger global pool.

        Used by multi-site composition: site 1 keeps ids ``0..N-1``, site 2
        gets ``N..2N-1``, etc.
        """
        if offset < 0 or offset + self.num_disks > num_disks:
            raise DeclusteringError(
                f"offset {offset} does not fit {self.num_disks} disks into "
                f"a pool of {num_disks}"
            )
        return Allocation(self.grid + offset, num_disks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Allocation)
            and self.num_disks == other.num_disks
            and bool(np.array_equal(self.grid, other.grid))
        )

    def __hash__(self):  # pragma: no cover - allocations are not dict keys
        return hash((self.grid.tobytes(), self.num_disks))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Allocation({self.n_rows}x{self.n_cols} grid, "
            f"{self.num_disks} disks)"
        )


class ReplicatedAllocation:
    """``c`` stacked copies of the same grid, one :class:`Allocation` each.

    All copies must share grid dimensions; they may be declustered over
    the *same* disk pool (single-site replication) or over disjoint pools
    (multi-site, after :meth:`Allocation.relabeled`).  The copies are
    fixed once constructed: :meth:`replicas_of` reads them through a
    lookup table built on its first call.
    """

    __slots__ = ("copies", "_table")

    def __init__(self, copies: Sequence[Allocation]) -> None:
        if not copies:
            raise DeclusteringError("need at least one copy")
        shape = copies[0].grid.shape
        for k, c in enumerate(copies):
            if c.grid.shape != shape:
                raise DeclusteringError(
                    f"copy {k} has shape {c.grid.shape}, expected {shape}"
                )
        self.copies = list(copies)
        #: ``_table[i][j] == replicas_of(i, j)`` for in-range indices;
        #: built lazily, so constructing a placement stays cheap
        self._table: tuple[tuple[tuple[int, ...], ...], ...] | None = None

    @property
    def num_copies(self) -> int:
        return len(self.copies)

    @property
    def n_rows(self) -> int:
        return self.copies[0].n_rows

    @property
    def n_cols(self) -> int:
        return self.copies[0].n_cols

    @property
    def num_disks(self) -> int:
        """Size of the global disk pool (max over copies)."""
        return max(c.num_disks for c in self.copies)

    def replicas_of(self, i: int, j: int) -> tuple[int, ...]:
        """Disk ids holding bucket ``(i, j)``, one per copy (may repeat).

        Wraparound indices are allowed, as in :meth:`Allocation.disk_of`.
        """
        table = self._table
        if table is None:
            table = self._table = self._build_table()
        row = table[i % len(table)]
        return row[j % len(row)]

    def _build_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Every bucket's replica tuple, as nested tuples of Python ints."""
        grids = [c.grid.tolist() for c in self.copies]
        return tuple(tuple(zip(*rows)) for rows in zip(*grids))

    def iter_buckets(self) -> Iterator[tuple[tuple[int, int], tuple[int, ...]]]:
        """Yield ``((i, j), replicas)`` for every bucket."""
        for i in range(self.n_rows):
            for j in range(self.n_cols):
                yield (i, j), self.replicas_of(i, j)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedAllocation({self.num_copies} copies of "
            f"{self.n_rows}x{self.n_cols}, pool={self.num_disks})"
        )
