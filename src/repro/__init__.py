"""repro — Integrated maximum flow algorithms for optimal response time
retrieval of replicated data.

A production-quality reproduction of Altiparmak & Tosun, *"Integrated
Maximum Flow Algorithm for Optimal Response Time Retrieval of Replicated
Data"*, ICPP 2012.

Quickstart
----------
>>> from repro import solve, StorageSystem, Site, DISK_CATALOG
>>> from repro.decluster import orthogonal_two_site
>>> from repro.workloads import RangeQueryGenerator
>>> # see examples/quickstart.py for a full walk-through

Top-level surface
-----------------
* :func:`repro.core.solve` — schedule one query on a storage system.
* :mod:`repro.maxflow` — standalone max-flow engines.
* :mod:`repro.decluster` — replicated declustering schemes.
* :mod:`repro.storage` — disks, sites, simulator.
* :mod:`repro.workloads` — queries, loads, the paper's experiments.
* :mod:`repro.bench` — figure-regeneration harness.
* :mod:`repro.obs` — metrics registry, probe tracing, exporters.
"""

from repro._version import __version__

__all__ = ["__version__"]


def __getattr__(name):  # lazy re-exports keep import light for CLI startup
    _CORE = {
        "solve",
        "RetrievalProblem",
        "RetrievalSchedule",
        "SOLVERS",
    }
    _STORAGE = {"StorageSystem", "Site", "Disk", "DISK_CATALOG"}
    if name in _CORE:
        import repro.core as core

        return getattr(core, name)
    if name in _STORAGE:
        import repro.storage as storage

        return getattr(storage, name)
    if name == "api":
        import repro.api as api

        return api
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
