"""Sites: groups of disks behind a common network delay.

The paper's model (§II-A) connects geographically distant storage arrays
over a dedicated network whose SLA makes the per-site round-trip delay
``D_j`` predictable (the XO Communications example: 65 ms edge-to-edge
guarantees).  Every disk of a site shares the site's delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import StorageConfigError
from repro.storage.disk import Disk

__all__ = ["Site"]


@dataclass
class Site:
    """A storage array at one network location.

    Attributes
    ----------
    site_id:
        Index of the site within the system.
    delay_ms:
        ``D_j`` for every disk at the site (network round-trip estimate).
    disks:
        The site's disks, with globally unique ids.
    """

    site_id: int
    delay_ms: float
    disks: list[Disk] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.site_id < 0:
            raise StorageConfigError(f"site id must be >= 0, got {self.site_id}")
        if not 0 <= self.delay_ms < math.inf:
            raise StorageConfigError(
                f"delay must be finite and >= 0, got {self.delay_ms}"
            )

    @property
    def num_disks(self) -> int:
        return len(self.disks)

    def disk_ids(self) -> list[int]:
        return [d.disk_id for d in self.disks]
