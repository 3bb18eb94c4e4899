"""repro.fleet — multi-process solve execution.

A process-backed service solves in worker processes instead of its own
thread.  The service still calls the fleet under its lock, so one
deployment's solves run one at a time either way.  Two layers:

* :mod:`repro.fleet.codec` — problems and schedules as exact payloads
  that cross process boundaries without drift: flat
  ``array('q')``/``array('d')``-bytes columns plus shape headers;
* :mod:`repro.fleet.pool` — :class:`SolveFleet`, signature-affine lanes
  of worker processes with warm per-worker caches and crash recovery
  (what ``ServiceConfig(solve_backend="process")`` routes solves to).
"""

from repro.fleet.codec import (
    FLAT_PAYLOAD_VERSION,
    CodecError,
    decode_problem,
    decode_schedule,
    encode_problem,
    encode_schedule,
)
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
]
