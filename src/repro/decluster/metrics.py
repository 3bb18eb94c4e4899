"""Declustering quality metrics.

The standard figure of merit for a single-copy declustering is the
*additive error*: over all wraparound range queries, the worst gap between
the busiest disk's bucket count and the ideal ``ceil(r*c / N)``.  The
§VI-A placement searches minimize it: :mod:`repro.decluster.periodic`
picks the lattice first copy (shared by the threshold and dependent
schemes) and :mod:`repro.decluster.orthogonal` the second copy's shift.

An ``n_rows × n_cols`` grid has ``n_rows * n_cols`` query shapes, each at
``n_rows * n_cols`` wraparound positions: O(N⁴) windows for an ``N × N``
grid.  :func:`additive_error` takes one of two paths.

* **Lattices** ``f(i, j) = (g + a*i + b*j) mod N`` whose sides are both
  multiples of ``N`` — every candidate the placement searches score.
  Such a grid is periodic along both sides, so the window of shape
  ``r×c`` at ``(x, y)`` holds the disks of the ``r×c`` window at the
  origin, each relabelled by the constant ``(a*x + b*y) mod N``.  A
  relabelling permutes the per-disk counts without changing their
  maximum, so the busiest disk of every position is the busiest disk at
  the origin: one per-disk prefix sum of the untiled grid gives every
  shape's exact max load (:func:`_lattice_maxloads`), O(N³) in all.
* **Every other allocation** builds the per-disk prefix sums of the
  grid tiled once (:func:`_window_prefix_sums`), after which each shape
  costs a single vectorized four-slice expression over every disk and
  position (:func:`_window_maxload`).  This path is also the reference
  the lattice path is tested against.

Both paths give the same exact integer counts, so the searches' choices
do not depend on which one ran.  The searches still sample shapes above
a size limit (:mod:`repro.decluster.periodic`).
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


def _lattice_maxloads(alloc: Allocation) -> np.ndarray | None:
    """Busiest-disk count of every window shape, if ``alloc`` is a lattice.

    Returns ``m`` with ``m[r, c]`` the largest per-disk bucket count over
    all wraparound ``r×c`` windows, or ``None`` when the grid is not
    ``(g00 + a*i + b*j) mod N`` with both sides multiples of ``N``.  On a
    lattice every window is a relabelled origin window (module
    docstring), so the origin's per-disk prefix sums suffice.  As in
    :func:`_window_prefix_sums`, only disks that own a bucket get a
    slice.
    """
    grid = alloc.grid
    N = alloc.num_disks
    n_r, n_c = grid.shape
    if n_r % N or n_c % N:
        return None
    g00 = grid[0, 0]
    a = (grid[1, 0] - g00) % N if n_r > 1 else 0
    b = (grid[0, 1] - g00) % N if n_c > 1 else 0
    i = np.arange(n_r).reshape(-1, 1)
    j = np.arange(n_c).reshape(1, -1)
    if not np.array_equal(grid, (g00 + a * i + b * j) % N):
        return None
    dtype = np.int32 if n_r * n_c <= np.iinfo(np.int32).max else np.int64
    disks = np.flatnonzero(np.bincount(grid.ravel()))
    ps = np.zeros((len(disks), n_r + 1, n_c + 1), dtype=dtype)
    ps[:, 1:, 1:] = grid == disks[:, None, None]
    # in place and in one dtype: about twice as fast as cumsum from bool
    np.cumsum(ps, axis=1, out=ps)
    np.cumsum(ps, axis=2, out=ps)
    return ps.max(axis=0)


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
    busiest = _lattice_maxloads(alloc)
    if busiest is None:
        ps = _window_prefix_sums(alloc)
        loads = [_window_maxload(ps, r, c) for r, c in shapes]
    else:
        loads = [int(busiest[r, c]) for r, c in shapes]
    worst = 0
    for (r, c), load in zip(shapes, loads):
        ideal = -(-(r * c) // N)  # ceil
        err = load - ideal
        if err > worst:
            worst = err
    return worst
