"""Decision records and lifetime counters specific to the online mode."""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.stats import ServiceRecord

__all__ = ["OnlineRecord", "OnlineStats"]


@dataclass(frozen=True)
class OnlineRecord(ServiceRecord):
    """A :class:`~repro.service.stats.ServiceRecord` plus the snapshot
    needed to replay the decision offline.

    ``loads_before`` and ``failed_disks`` freeze the system state the
    decision was made against (busy horizons at admission, disks routed
    around), so the replay differential can reconstruct the exact static
    problem and demand a bit-for-bit equal offline optimum.

    Attributes
    ----------
    query_id:
        Monotonic per-scheduler id; keys the in-flight bookkeeping.
    predicted_ms:
        The admission-time lower bound on the response time (what
        predictive shedding compared against its target).
    completion_ms:
        Absolute time the last transfer drains (``arrival_ms`` +
        ``response_time_ms`` at decision time; re-planning after a
        failure may move the *actual* completion later).
    loads_before:
        Per-disk busy horizon ``X_j`` at admission (ms).
    failed_disks:
        Disks marked failed at admission (sorted).
    counts_per_disk:
        Buckets routed through each disk by the decision (exact ints;
        unlike ``assignment``, duplicate bucket labels cannot collapse
        here, so the replay differential compares flows bit-for-bit).
    """

    query_id: int = -1
    predicted_ms: float = 0.0
    completion_ms: float = 0.0
    loads_before: tuple[float, ...] = ()
    failed_disks: tuple[int, ...] = ()
    counts_per_disk: tuple[int, ...] = ()


@dataclass
class OnlineStats:
    """Counters over one online scheduler's lifetime.

    ``admitted - completed`` is the in-flight population (also exported
    as the ``repro_online_inflight`` gauge).

    ``released_units`` and ``repairs`` always read 0: drains no longer
    touch the warm cached flow.  They stay only because
    ``perfbench/inproc.py`` still reads them, and go once the benchmark
    drops those reads (ROADMAP item 1b).
    """

    admitted: int = 0
    completed: int = 0
    shed_predicted: int = 0
    drains: int = 0
    released_units: int = 0
    repairs: int = 0
    replans: int = 0

    @property
    def inflight(self) -> int:
        return self.admitted - self.completed

    def snapshot(self) -> "OnlineStats":
        return OnlineStats(
            admitted=self.admitted,
            completed=self.completed,
            shed_predicted=self.shed_predicted,
            drains=self.drains,
            released_units=self.released_units,
            repairs=self.repairs,
            replans=self.replans,
        )
