"""repro.fleet — multi-process solve execution (breaking the GIL).

The paper's parallel push–relabel claims (Figure 10) assume threads that
actually run concurrently; CPython's are serialized by the GIL.  This
package is the reproduction's escape hatch, with three layers:

* :mod:`repro.fleet.codec` — problems and schedules as exact payloads
  that cross process boundaries without drift: flat
  ``array('q')``/``array('d')``-bytes columns plus shape headers;
* :mod:`repro.fleet.pool` — :class:`SolveFleet`, signature-affine lanes
  of worker processes with warm per-worker caches and crash recovery
  (what ``ServiceConfig(solve_backend="process")`` routes solves to);
* :mod:`repro.fleet.parallel` — a true multi-process
  ``parallel_push_relabel`` variant: partition by bucket vertex range,
  solve slices in workers, merge arc-wise, finish warm.
"""

from repro.fleet.codec import (
    FLAT_PAYLOAD_VERSION,
    CodecError,
    decode_problem,
    decode_schedule,
    encode_problem,
    encode_schedule,
)
from repro.fleet.parallel import partitioned_push_relabel
from repro.fleet.pool import SolveFleet, WorkerCrashedError

__all__ = [
    "CodecError",
    "FLAT_PAYLOAD_VERSION",
    "SolveFleet",
    "WorkerCrashedError",
    "decode_problem",
    "decode_schedule",
    "encode_problem",
    "encode_schedule",
    "partitioned_push_relabel",
]
