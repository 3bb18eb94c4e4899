"""Cross-process codec: problems and schedules as fleet payloads.

A :class:`~repro.core.RetrievalProblem` closes over live
:class:`~repro.storage.StorageSystem` objects (mutable disks, NumPy
views); pickling those wholesale would ship object graphs whose identity
semantics do not survive a process boundary.  Instead the fleet ships
*values* as flat-array payloads: the numeric columns travel as
``array('q')``/``array('d')`` **bytes** plus explicit shape headers
(per-site disk counts, replica offsets), so a process lane ships a
handful of contiguous buffers instead of a tree of per-disk objects.
``array('q').tobytes()`` is a C-level copy on both ends, and
``array('d')`` round-trips every float bit-for-bit.

Every payload carries ``"version": FLAT_PAYLOAD_VERSION``; the decoders
reject any other value, or a missing one, with :class:`CodecError`.
Coordinator and workers always run the same install (every lane is a
``ProcessPoolExecutor`` child), so there is exactly one schema.

Exactness contract
------------------
* ids, counts, offsets and assignment pairs travel as int64 columns,
  which cannot hold a fraction; the scalar ints (disk ``rpm``, stats
  counters) are checked, and a fractional value raises
  :class:`CodecError` (a :class:`~repro.errors.GraphError`) instead of
  rounding.  Shape mismatches and repeated assignment buckets raise
  too;
* ``C_j``/``D_j``/``X_j``/response times: Python floats, round-tripped
  bit-for-bit as IEEE-754 bytes, so the worker's
  ``finish_time``/``capacity_at`` arithmetic is performed on the *same*
  floats the coordinator holds and the returned makespan compares
  ``==`` against an in-process solve.
"""

from __future__ import annotations

from array import array
from typing import Any

from repro.core.problem import RetrievalProblem
from repro.core.schedule import RetrievalSchedule, SolverStats
from repro.errors import GraphError
from repro.storage.disk import Disk, DiskSpec
from repro.storage.site import Site
from repro.storage.system import StorageSystem

__all__ = [
    "CodecError",
    "FLAT_PAYLOAD_VERSION",
    "encode_problem",
    "decode_problem",
    "encode_schedule",
    "decode_schedule",
]

#: the flat-array payload schema — array bytes + shape headers
FLAT_PAYLOAD_VERSION = 2


class CodecError(GraphError):
    """A fleet payload failed to encode or decode exactly."""


def _check_encode_version(version: int) -> None:
    if version != FLAT_PAYLOAD_VERSION:
        raise CodecError(
            f"cannot encode fleet payload version {version!r} "
            f"(only {FLAT_PAYLOAD_VERSION})"
        )


def _check_decode_version(version: Any) -> None:
    """A missing version reads as ``None`` and is refused like any other."""
    if type(version) is not int or version != FLAT_PAYLOAD_VERSION:
        raise CodecError(
            f"unsupported fleet payload version {version!r} "
            f"(expected {FLAT_PAYLOAD_VERSION})"
        )


def _exact_int(value: Any, what: str) -> int:
    """Coerce a payload number to an int, rejecting non-integral values."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CodecError(f"{what} must be a number, got {value!r}")
    as_int = int(value)
    if as_int != value:
        raise CodecError(f"{what} must be integral, got {value!r}")
    return as_int


def _float(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CodecError(f"{what} must be a number, got {value!r}")
    return float(value)


def _column(
    payload: dict[str, Any], key: str, typecode: str, count: int | None = None
) -> list[Any]:
    """Decode an ``array(typecode)`` bytes column, validating its shape.

    ``'q'`` columns carry int64s, ``'d'`` columns bit-exact IEEE-754
    doubles.
    """
    value = payload.get(key)
    if not isinstance(value, (bytes, bytearray)):
        raise CodecError(
            f"{key!r} must be array({typecode!r}) bytes, "
            f"got {type(value).__name__}"
        )
    arr = array(typecode)
    if len(value) % arr.itemsize:
        raise CodecError(
            f"{key!r} has {len(value)} bytes, not a multiple of "
            f"{arr.itemsize}"
        )
    arr.frombytes(bytes(value))
    if count is not None and len(arr) != count:
        raise CodecError(f"{key!r} has {len(arr)} entries, expected {count}")
    return arr.tolist()


def _q_bytes(values: list[int], what: str) -> bytes:
    try:
        return array("q", values).tobytes()
    except OverflowError as exc:
        raise CodecError(f"{what} outside int64 wire range") from exc


def _jsonable_label(label: Any) -> Any:
    """Tuples nest to lists for JSON; everything else passes through."""
    if isinstance(label, tuple):
        return [_jsonable_label(x) for x in label]
    return label


def _label_from_wire(label: Any) -> Any:
    """Inverse of :func:`_jsonable_label` (lists come back as tuples)."""
    if isinstance(label, list):
        return tuple(_label_from_wire(x) for x in label)
    return label


# ----------------------------------------------------------------------
# problems
# ----------------------------------------------------------------------
def encode_problem(
    problem: RetrievalProblem, *, version: int = FLAT_PAYLOAD_VERSION
) -> dict[str, Any]:
    """The problem — system state included — as a wire payload.

    ``version`` must be :data:`FLAT_PAYLOAD_VERSION`, the only schema.
    """
    _check_encode_version(version)
    sys_ = problem.system
    all_disks = [d for site in sys_.sites for d in site.disks]
    spec_rows: list[list[Any]] = []
    spec_of: dict[tuple, int] = {}
    spec_idx: list[int] = []
    for d in all_disks:
        s = d.spec
        key = (s.name, s.producer, s.model, s.kind, s.rpm, s.block_time_ms)
        idx = spec_of.get(key)
        if idx is None:
            idx = len(spec_rows)
            spec_of[key] = idx
            spec_rows.append(list(key))
        spec_idx.append(idx)
    offsets = [0]
    flat: list[int] = []
    for reps in problem.replicas:
        flat.extend(reps)
        offsets.append(len(flat))
    return {
        "version": FLAT_PAYLOAD_VERSION,
        "site_ids": _q_bytes([site.site_id for site in sys_.sites], "site ids"),
        "site_delay_ms": array(
            "d", (site.delay_ms for site in sys_.sites)
        ).tobytes(),
        # shape header: how many of the disk columns' rows each site owns
        "site_disk_counts": _q_bytes(
            [len(site.disks) for site in sys_.sites], "site disk counts"
        ),
        "disk_ids": _q_bytes([d.disk_id for d in all_disks], "disk ids"),
        # specs dedup into a table + index column: fleets built from
        # homogeneous groups repeat a handful of specs across many
        # disks, so the strings travel once
        "disk_specs": spec_rows,
        "disk_spec_idx": _q_bytes(spec_idx, "disk spec indices"),
        "disk_initial_load_ms": array(
            "d", (d.initial_load_ms for d in all_disks)
        ).tobytes(),
        "replica_flat": _q_bytes(flat, "replica disk ids"),
        # shape header: bucket i's replicas are flat[off[i]:off[i+1]]
        "replica_offsets": _q_bytes(offsets, "replica offsets"),
        "labels": [_jsonable_label(x) for x in problem.labels],
    }


def decode_problem(payload: dict[str, Any]) -> RetrievalProblem:
    """Reconstruct the exact problem a coordinator encoded."""
    if not isinstance(payload, dict):
        raise CodecError(
            f"problem payload must be a dict, got {type(payload).__name__}"
        )
    _check_decode_version(payload.get("version"))
    site_ids = _column(payload, "site_ids", "q")
    num_sites = len(site_ids)
    if num_sites == 0:
        raise CodecError("'site_ids' must be a non-empty column")
    site_delays = _column(payload, "site_delay_ms", "d", num_sites)
    disk_counts = _column(payload, "site_disk_counts", "q", num_sites)
    if any(c < 0 for c in disk_counts):
        raise CodecError("'site_disk_counts' entries must be >= 0")
    num_disks = sum(disk_counts)
    disk_ids = _column(payload, "disk_ids", "q", num_disks)
    spec_idx = _column(payload, "disk_spec_idx", "q", num_disks)
    loads = _column(payload, "disk_initial_load_ms", "d", num_disks)
    raw_specs = payload.get("disk_specs")
    if not isinstance(raw_specs, list):
        raise CodecError("'disk_specs' must be a list of spec rows")
    specs: list[DiskSpec] = []
    for k, row in enumerate(raw_specs):
        if not isinstance(row, list) or len(row) != 6:
            raise CodecError(
                f"disk_specs[{k}] must be [name, producer, model, kind, "
                f"rpm, block_time_ms], got {row!r}"
            )
        rpm = row[4]
        specs.append(
            DiskSpec(
                name=str(row[0]),
                producer=str(row[1]),
                model=str(row[2]),
                kind=str(row[3]),
                rpm=None if rpm is None else _exact_int(rpm, f"disk_specs[{k}] rpm"),
                block_time_ms=_float(row[5], f"disk_specs[{k}] block_time_ms"),
            )
        )
    disks: list[Disk] = []
    for k in range(num_disks):
        idx = spec_idx[k]
        if not 0 <= idx < len(specs):
            raise CodecError(
                f"disk_spec_idx[{k}] = {idx} out of range [0, {len(specs)})"
            )
        disks.append(
            Disk(disk_id=disk_ids[k], spec=specs[idx], initial_load_ms=loads[k])
        )
    sites: list[Site] = []
    pos = 0
    for idx in range(num_sites):
        count = disk_counts[idx]
        sites.append(
            Site(
                site_id=site_ids[idx],
                delay_ms=site_delays[idx],
                disks=disks[pos : pos + count],
            )
        )
        pos += count
    offsets = _column(payload, "replica_offsets", "q")
    flat_reps = _column(payload, "replica_flat", "q")
    if len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != len(flat_reps):
        raise CodecError(
            "'replica_offsets' must be a non-empty shape header "
            "starting at 0 and ending at len(replica_flat)"
        )
    replicas: list[tuple[int, ...]] = []
    for i in range(len(offsets) - 1):
        lo, hi = offsets[i], offsets[i + 1]
        if hi < lo:
            raise CodecError(f"replica_offsets[{i + 1}] decreases")
        replicas.append(tuple(flat_reps[lo:hi]))
    labels = payload.get("labels", [])
    if not isinstance(labels, list):
        raise CodecError("'labels' must be a list")
    return RetrievalProblem(
        StorageSystem(sites),
        tuple(replicas),
        labels=tuple(_label_from_wire(x) for x in labels),
    )


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
#: SolverStats counter fields shipped across the boundary, in order
_STATS_COUNTERS = (
    "probes", "certified", "cut_certified", "increments", "pushes",
    "relabels", "augmentations",
)


def encode_schedule(
    schedule: RetrievalSchedule, *, version: int = FLAT_PAYLOAD_VERSION
) -> dict[str, Any]:
    """The solver's answer as a wire payload (no problem attached).

    The assignment ships as one interleaved ``array('q')`` (``bucket0,
    disk0, bucket1, disk1, ...``).  ``extra`` is filtered to JSON
    scalars — rich objects like probe traces stay in the worker; the
    deterministic counters all travel, as a plain dict because exact op
    counts may exceed int64 (the wire contract the huge-counter test
    pins).
    """
    _check_encode_version(version)
    stats = schedule.stats
    interleaved: list[int] = []
    for i, d in sorted(schedule.assignment.items()):
        interleaved.append(i)
        interleaved.append(d)
    return {
        "version": FLAT_PAYLOAD_VERSION,
        "solver": schedule.solver,
        "response_time_ms": schedule.response_time_ms,
        "assignment_flat": _q_bytes(interleaved, "assignment pairs"),
        "stats": {name: getattr(stats, name) for name in _STATS_COUNTERS},
        "wall_time_s": stats.wall_time_s,
        "extra": {
            k: v
            for k, v in stats.extra.items()
            if isinstance(v, (bool, int, float, str)) or v is None
        },
    }


def decode_schedule(
    payload: dict[str, Any], problem: RetrievalProblem
) -> RetrievalSchedule:
    """Rebuild the schedule against the coordinator's own ``problem``.

    Validation runs in ``RetrievalSchedule.__post_init__`` — a corrupted
    assignment (bucket routed off its replica set) raises rather than
    being accepted.
    """
    if not isinstance(payload, dict):
        raise CodecError(
            f"schedule payload must be a dict, got {type(payload).__name__}"
        )
    _check_decode_version(payload.get("version"))
    pairs = _column(payload, "assignment_flat", "q")
    if len(pairs) % 2:
        raise CodecError(
            f"'assignment_flat' has {len(pairs)} entries, expected "
            "interleaved [bucket, disk] pairs"
        )
    assignment: dict[int, int] = {}
    for k in range(0, len(pairs), 2):
        bucket = pairs[k]
        if bucket in assignment:
            raise CodecError(f"'assignment_flat' repeats bucket {bucket}")
        assignment[bucket] = pairs[k + 1]
    raw_stats = payload.get("stats")
    if not isinstance(raw_stats, dict):
        raise CodecError("'stats' must be a dict of counters")
    counters = {
        name: _exact_int(raw_stats.get(name, 0), f"stats counter {name!r}")
        for name in _STATS_COUNTERS
    }
    raw_extra = payload.get("extra", {})
    if not isinstance(raw_extra, dict):
        raise CodecError("'extra' must be a dict")
    stats = SolverStats(
        wall_time_s=_float(payload.get("wall_time_s", 0.0), "'wall_time_s'"),
        extra=dict(raw_extra),
        **counters,
    )
    return RetrievalSchedule(
        problem=problem,
        assignment=assignment,
        response_time_ms=_float(
            payload.get("response_time_ms"), "'response_time_ms'"
        ),
        stats=stats,
        solver=str(payload.get("solver", "?")),
    )
