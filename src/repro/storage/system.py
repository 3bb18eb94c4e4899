"""The storage system: sites + disks, exposing the scheduler's (C, D, X).

:class:`StorageSystem` is the single object the retrieval core consumes.
It validates that global disk ids are dense and unique, and exposes the
three per-disk parameter vectors of Table I as NumPy arrays:

* ``costs()``   → ``C_j``: average per-bucket retrieval cost,
* ``delays()``  → ``D_j``: network delay of the disk's site,
* ``loads()``   → ``X_j``: time until the disk is idle.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import StorageConfigError
from repro.storage.disk import DISK_CATALOG, Disk, DiskSpec, pick_disks
from repro.storage.site import Site

__all__ = ["StorageSystem"]


def _largest_fitting(fits: Callable[[int], bool], guess: int) -> int:
    """The largest ``k >= 1`` with ``fits(k)``, searched from ``guess``.

    ``fits`` is ``finish_time(j, k) <= t`` for a ``t`` past the first
    finish time: true at 1 and monotone in ``k`` (float ``D + X + k*C``
    never decreases as ``k`` grows), so the answer is unique and any
    search finds the same one.  Gallops away from ``guess`` (doubling
    the step) and then bisects.  The guess ``floor((t - D - X) / C)`` is
    off by at most one in the usual case, which costs two tests; when
    ``C_j`` is far below an ulp of ``D_j + X_j`` it can be off by up to
    ``ulp / C_j`` (about 1e284 for a 1e-300 ms block on a 1 ms site), and
    the gallop takes O(log) tests where stepping by one never finished.
    """
    step = 1
    k = max(guess, 1)
    if fits(k):
        lo = k
        while fits(lo + step):
            lo += step
            step *= 2
        hi = lo + step
    else:
        hi = k
        while hi - step > 1 and not fits(hi - step):
            hi -= step
            step *= 2
        lo = max(hi - step, 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _capacity_overflow(disk_id: int, deadline_ms: float) -> StorageConfigError:
    return StorageConfigError(
        f"disk {disk_id}'s bucket count by t={deadline_ms} ms exceeds the "
        "float range; its block time is too small for this deadline"
    )


class StorageSystem:
    """A multi-site collection of disks with scheduling parameters.

    Parameters
    ----------
    sites:
        Sites whose disks, concatenated, carry global ids ``0..N_total-1``
        in site order.  (The paper's "disks 0-6 at site 1, 7-13 at
        site 2" convention.)
    """

    def __init__(self, sites: Sequence[Site]) -> None:
        if not sites:
            raise StorageConfigError("a storage system needs at least one site")
        self.sites = list(sites)
        self._disks: list[Disk] = []
        self._site_of: list[int] = []
        expected = 0
        for site in self.sites:
            for disk in site.disks:
                if disk.disk_id != expected:
                    raise StorageConfigError(
                        f"disk ids must be dense in site order: expected "
                        f"{expected}, got {disk.disk_id} at site {site.site_id}"
                    )
                self._disks.append(disk)
                self._site_of.append(site.site_id)
                expected += 1
        if expected == 0:
            raise StorageConfigError("a storage system needs at least one disk")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        num_disks: int,
        spec: DiskSpec | str = "cheetah",
        *,
        num_sites: int = 1,
        delay_ms: float | Sequence[float] = 0.0,
    ) -> "StorageSystem":
        """Identical disks split evenly across ``num_sites`` sites."""
        if isinstance(spec, str):
            spec = DISK_CATALOG[spec]
        if num_disks % max(num_sites, 1) != 0:
            raise StorageConfigError(
                f"{num_disks} disks do not split evenly over {num_sites} sites"
            )
        per_site = num_disks // num_sites
        delays = (
            [float(delay_ms)] * num_sites
            if isinstance(delay_ms, (int, float))
            else [float(d) for d in delay_ms]
        )
        if len(delays) != num_sites:
            raise StorageConfigError(
                f"need {num_sites} delays, got {len(delays)}"
            )
        sites = []
        next_id = 0
        for k in range(num_sites):
            disks = [Disk(next_id + i, spec) for i in range(per_site)]
            next_id += per_site
            sites.append(Site(k, delays[k], disks))
        return cls(sites)

    @classmethod
    def from_groups(
        cls,
        site_groups: Sequence[str],
        disks_per_site: int,
        *,
        delays_ms: Sequence[float] | None = None,
        rng: np.random.Generator | None = None,
    ) -> "StorageSystem":
        """Build a system from Table IV disk-group names, one per site."""
        delays = list(delays_ms) if delays_ms is not None else [0.0] * len(site_groups)
        if len(delays) != len(site_groups):
            raise StorageConfigError("one delay per site required")
        sites = []
        next_id = 0
        for k, group in enumerate(site_groups):
            specs = pick_disks(group, disks_per_site, rng)
            disks = [Disk(next_id + i, specs[i]) for i in range(disks_per_site)]
            next_id += disks_per_site
            sites.append(Site(k, delays[k], disks))
        return cls(sites)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def num_disks(self) -> int:
        return len(self._disks)

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def disks(self) -> list[Disk]:
        return self._disks

    def disk(self, disk_id: int) -> Disk:
        if not 0 <= disk_id < len(self._disks):
            raise StorageConfigError(
                f"disk {disk_id} out of range [0, {self.num_disks})"
            )
        return self._disks[disk_id]

    def site_of(self, disk_id: int) -> Site:
        """The site owning ``disk_id``."""
        self.disk(disk_id)
        return self.sites[self._site_of[disk_id]]

    def costs(self) -> np.ndarray:
        """``C_j`` vector (ms per bucket)."""
        return np.array([d.block_time_ms for d in self._disks], dtype=float)

    def delays(self) -> np.ndarray:
        """``D_j`` vector (ms), one entry per disk (its site's delay)."""
        return np.array(
            [self.sites[self._site_of[i]].delay_ms for i in range(self.num_disks)],
            dtype=float,
        )

    def loads(self) -> np.ndarray:
        """``X_j`` vector (ms)."""
        return np.array([d.initial_load_ms for d in self._disks], dtype=float)

    def set_loads(self, loads: Iterable[float]) -> None:
        """Overwrite every disk's ``X_j`` (validated finite and non-negative)."""
        values = [float(x) for x in loads]
        if len(values) != self.num_disks:
            raise StorageConfigError(
                f"need {self.num_disks} loads, got {len(values)}"
            )
        for disk, x in zip(self._disks, values):
            if not 0 <= x < math.inf:
                raise StorageConfigError(
                    f"load must be finite and >= 0, got {x} for disk "
                    f"{disk.disk_id}"
                )
            disk.initial_load_ms = x

    def finish_time(self, disk_id: int, buckets: int) -> float:
        """``D_j + X_j + k * C_j`` — when disk ``j`` finishes ``k`` buckets."""
        if buckets < 0:
            raise StorageConfigError(f"bucket count must be >= 0, got {buckets}")
        if buckets == 0:
            return 0.0
        d = self.disk(disk_id)
        site = self.sites[self._site_of[disk_id]]
        return site.delay_ms + d.initial_load_ms + buckets * d.block_time_ms

    def capacity_at(self, disk_id: int, deadline_ms: float) -> int:
        """Buckets disk ``j`` can serve by ``deadline``:
        ``floor((t - D_j - X_j) / C_j)``, clamped at 0 (Algorithm 6 line 15).

        This is the single float→int boundary of the flow stack, and it is
        exact *by construction*: instead of an epsilon fudge on the float
        division, the initial guess is corrected against
        :meth:`finish_time` until ``finish_time(j, k) <= t <
        finish_time(j, k+1)``.  That makes ``capacity_at`` the exact
        inverse of ``finish_time`` — a deadline landing precisely on
        ``D_j + X_j + k*C_j`` admits exactly ``k`` buckets, never ``k-1``
        or ``k+1`` through rounding drift.
        """
        if deadline_ms < self.finish_time(disk_id, 1):
            return 0
        d = self.disk(disk_id)
        site = self.sites[self._site_of[disk_id]]
        budget = deadline_ms - site.delay_ms - d.initial_load_ms
        try:
            return _largest_fitting(
                lambda k: self.finish_time(disk_id, k) <= deadline_ms,
                int(budget // d.block_time_ms),
            )
        except OverflowError:
            raise _capacity_overflow(disk_id, deadline_ms) from None

    def rescale_terms(self) -> list[tuple[float, float, float, float]]:
        """Per-disk ``(D_j, X_j, D_j + X_j, C_j)`` for :meth:`capacities_at`.

        A snapshot of the current loads: a solve takes it once and
        rescales every probe from it; after :meth:`set_loads` take a new
        one.
        """
        sites = self.sites
        site_of = self._site_of
        out: list[tuple[float, float, float, float]] = []
        for j, d in enumerate(self._disks):
            delay = sites[site_of[j]].delay_ms
            load = d.initial_load_ms
            out.append((delay, load, delay + load, d.block_time_ms))
        return out

    def capacities_at(
        self,
        deadline_ms: float,
        terms: list[tuple[float, float, float, float]] | None = None,
    ) -> list[int]:
        """All disks' :meth:`capacity_at` in one pass.

        The batch form of the per-probe rescale: one call produces the
        full disk→sink capacity vector that
        :meth:`~repro.core.network.RetrievalNetwork.set_deadline_capacities`
        writes with a single strided slice assignment.  Bit-identical to
        ``[capacity_at(j, t) for j in range(num_disks)]`` — the
        arithmetic below repeats :meth:`capacity_at` and
        :meth:`finish_time` expression-for-expression (``delay + load +
        k * c`` is ``(delay + load) + k * c``) so float evaluation order
        (and therefore the exact-inverse guarantee) is unchanged — but
        without the per-disk bounds checks and method dispatch.
        ``terms`` is a :meth:`rescale_terms` snapshot of the current
        loads (taken here when omitted).
        """
        if terms is None:
            terms = self.rescale_terms()
        out: list[int] = []
        try:
            for delay, load, base, c in terms:
                if deadline_ms < base + c:  # finish_time(j, 1)
                    out.append(0)
                    continue
                k = int((deadline_ms - delay - load) // c)
                # the guess is exact unless it is below 1 (a load or block
                # below an ulp of the delay) or the division rounded across
                # a bucket boundary; then the same search as capacity_at,
                # against the same finish_time expression
                if (
                    k < 1
                    or base + k * c > deadline_ms
                    or base + (k + 1) * c <= deadline_ms
                ):
                    k = _largest_fitting(
                        lambda n: base + n * c <= deadline_ms, k
                    )
                out.append(k)
        except OverflowError:
            # the disk being rescaled is the next one `out` would hold
            raise _capacity_overflow(len(out), deadline_ms) from None
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StorageSystem({self.num_sites} sites, {self.num_disks} disks)"
        )
