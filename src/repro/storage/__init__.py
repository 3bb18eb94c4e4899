"""Storage model: disks, sites, systems, load generators, simulator.

This package is the paper's hardware substrate (§II-A, §VI-D/E) in
software.  The scheduler only ever consumes three numbers per disk —
``C_j`` (average per-block retrieval cost), ``D_j`` (network delay to the
disk's site) and ``X_j`` (time until the disk is idle) — exactly the
reduction Table I makes; the event-driven simulator
(:mod:`repro.storage.simulator`) closes the loop by re-deriving response
times from per-block service events, and :mod:`repro.storage.trace`
generates the timed query streams a
:class:`~repro.service.SchedulerService` evolves ``X_j`` across.
"""

from repro.storage.disk import (
    DISK_CATALOG,
    DISK_GROUPS,
    Disk,
    DiskSpec,
)
from repro.storage.loadgen import RandomStepDistribution, parse_r_notation
from repro.storage.simulator import DiskEvent, SimulationResult, simulate_schedule
from repro.storage.site import Site
from repro.storage.system import StorageSystem
from repro.storage.trace import TraceEvent, poisson_trace, session_trace

__all__ = [
    "DISK_CATALOG",
    "DISK_GROUPS",
    "Disk",
    "DiskSpec",
    "RandomStepDistribution",
    "parse_r_notation",
    "DiskEvent",
    "SimulationResult",
    "simulate_schedule",
    "Site",
    "StorageSystem",
    "TraceEvent",
    "poisson_trace",
    "session_trace",
]
