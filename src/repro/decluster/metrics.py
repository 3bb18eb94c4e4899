"""Declustering quality metrics.

The standard figure of merit for a single-copy declustering is the
*additive error*: over all wraparound range queries, the worst gap between
the busiest disk's bucket count and the ideal ``ceil(r*c / N)``.  The
§VI-A placement searches minimize it: :mod:`repro.decluster.periodic`
picks the lattice first copy (shared by the threshold and dependent
schemes) and :mod:`repro.decluster.orthogonal` the second copy's shift.

An ``n_rows × n_cols`` grid has ``n_rows * n_cols`` query shapes, each at
``n_rows * n_cols`` wraparound positions: O(N⁴) windows for an ``N × N``
grid.  :func:`additive_error` builds one per-disk prefix-sum tensor per
allocation, after which each shape costs a single vectorized four-slice
expression over every disk and position.  The searches still sample
shapes above a size limit (:mod:`repro.decluster.periodic`).
"""

from __future__ import annotations

import numpy as np

from repro.decluster.grid import Allocation
from repro.errors import DeclusteringError

__all__ = ["max_disk_load", "load_of_query", "additive_error"]


def load_of_query(
    alloc: Allocation, i: int, j: int, r: int, c: int
) -> np.ndarray:
    """Bucket count per disk inside the wraparound query ``(i, j, r, c)``.

    ``r`` (rows) and ``c`` (columns) may reach the full grid size; larger
    values are rejected since a wraparound window would double-count.
    """
    if not (1 <= r <= alloc.n_rows and 1 <= c <= alloc.n_cols):
        raise DeclusteringError(f"query shape {r}x{c} exceeds grid")
    rows = np.arange(i, i + r) % alloc.n_rows
    cols = np.arange(j, j + c) % alloc.n_cols
    window = alloc.grid[np.ix_(rows, cols)]
    return np.bincount(window.ravel(), minlength=alloc.num_disks)


def max_disk_load(alloc: Allocation, i: int, j: int, r: int, c: int) -> int:
    """Largest per-disk bucket count within the query — its retrieval cost
    in the homogeneous single-copy model."""
    return int(load_of_query(alloc, i, j, r, c).max())


def _window_prefix_sums(alloc: Allocation) -> np.ndarray:
    """Per-disk 2-D prefix sums of the grid tiled once for every shape.

    The grid is wrapped by ``n_rows - 1`` rows and ``n_cols - 1`` columns,
    so every wraparound window of every shape is a plain window of the
    tile.  Entry ``[d, x, y]`` counts disk ``d``'s buckets in the tile's
    first ``x`` rows and ``y`` columns.  Only disks that own a bucket get a
    slice: an empty disk's windows are all zero and never the busiest.
    Counts are int32 wherever that is exact (no entry exceeds the tile's
    ``4 * n_rows * n_cols`` cells), which halves the tensor.
    """
    grid = alloc.grid
    n_r, n_c = grid.shape
    dtype = np.int32 if 4 * n_r * n_c <= np.iinfo(np.int32).max else np.int64
    disks = np.flatnonzero(np.bincount(grid.ravel()))
    tiled = np.pad(grid, ((0, n_r - 1), (0, n_c - 1)), mode="wrap")
    ps = np.zeros((len(disks), 2 * n_r, 2 * n_c), dtype=dtype)
    np.cumsum(
        tiled == disks[:, None, None], axis=1, dtype=dtype, out=ps[:, 1:, 1:]
    )
    np.cumsum(ps[:, 1:, 1:], axis=2, out=ps[:, 1:, 1:])
    return ps


def _window_maxload(ps: np.ndarray, r: int, c: int) -> int:
    """Busiest-disk count over all positions of the r×c windows.

    ``ps`` comes from :func:`_window_prefix_sums`; one four-slice
    expression gives every disk's count at every window position.
    """
    n_r, n_c = ps.shape[1] // 2, ps.shape[2] // 2
    win = (
        ps[:, r : r + n_r, c : c + n_c]
        - ps[:, :n_r, c : c + n_c]
        - ps[:, r : r + n_r, :n_c]
        + ps[:, :n_r, :n_c]
    )
    return int(win.max())


def additive_error(
    alloc: Allocation,
    *,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> int:
    """Worst-case additive error over wraparound range queries.

    ``max over (r, c, i, j) of  maxload(i,j,r,c) - ceil(r*c / N)``.

    Parameters
    ----------
    sample:
        If given, evaluate only ``sample`` random ``(r, c)`` shapes instead
        of all of them (positions are always all evaluated, vectorized).
        Use for large grids where exact O(N⁴) enumeration is too slow.
    rng:
        Random generator for sampling; required when ``sample`` is set.
    """
    N = alloc.num_disks
    shapes = [
        (r, c)
        for r in range(1, alloc.n_rows + 1)
        for c in range(1, alloc.n_cols + 1)
    ]
    if sample is not None:
        if rng is None:
            raise DeclusteringError("sampling additive_error requires rng")
        idx = rng.choice(len(shapes), size=min(sample, len(shapes)), replace=False)
        shapes = [shapes[k] for k in idx]
    ps = _window_prefix_sums(alloc)
    worst = 0
    for r, c in shapes:
        ideal = -(-(r * c) // N)  # ceil
        err = _window_maxload(ps, r, c) - ideal
        if err > worst:
            worst = err
    return worst
