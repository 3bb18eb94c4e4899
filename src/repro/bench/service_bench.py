"""The seeded two-site deployment the repository benchmark builds on.

Only :func:`_build_deployment` lives here.  ``perfbench/`` (``common``,
``inproc``, ``run`` and ``wire``) and the fleet fault-injection tests
import it from this path, so the function and the module path stay
fixed for perfbench's sake: its deployments must not move.  A change to the benchmark itself may move the function
somewhere more fitting and repoint those imports.
"""

from __future__ import annotations

import numpy as np

from repro.decluster.multisite import make_placement
from repro.storage.system import StorageSystem


def _build_deployment(n: int, seed: int):
    rng = np.random.default_rng(seed)
    placement = make_placement("orthogonal", n, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], n, delays_ms=[1.0, 4.0], rng=rng
    )
    return system, placement
