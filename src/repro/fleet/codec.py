"""Cross-process codec: problems and schedules as fleet payloads.

A :class:`~repro.core.RetrievalProblem` closes over live
:class:`~repro.storage.StorageSystem` objects (mutable disks, NumPy
views); pickling those wholesale would ship object graphs whose identity
semantics do not survive a process boundary.  Instead the fleet ships
*values* in one of two wire forms, negotiated per worker:

* **v1** (:data:`PAYLOAD_VERSION`) — plain dicts of JSON scalars, in
  the spirit of :mod:`repro.graph.io`'s integer JSON round-trip.  Every
  v1 payload is also valid JSON text (:func:`problem_to_json` /
  :func:`problem_from_json`), which keeps it the debugging and
  interchange form.
* **v2** (:data:`FLAT_PAYLOAD_VERSION`) — flat-array payloads: the
  numeric columns travel as ``array('q')``/``array('d')`` **bytes**
  plus explicit shape headers (per-site disk counts, replica offsets),
  so a process lane ships a handful of contiguous buffers instead of a
  tree of per-disk dicts.  ``array('q').tobytes()`` is a C-level copy
  on both ends, and ``array('d')`` round-trips every float
  bit-for-bit.  Decoders still reject malformed values loudly —
  fractional ints cannot even be represented, and shape mismatches
  raise :class:`CodecError`.

Exactness contract (both versions)
----------------------------------
* replica disk ids, bucket counts, stats counters: native ints, and the
  decoder rejects fractional values with :class:`CodecError` (a
  :class:`~repro.errors.GraphError`) instead of rounding;
* ``C_j``/``D_j``/``X_j``/response times: Python floats, round-tripped
  bit-for-bit (``repr``-based JSON in v1, IEEE-754 bytes in v2), so the
  worker's ``finish_time``/``capacity_at`` arithmetic is performed on
  the *same* floats the coordinator holds and the returned makespan
  compares ``==`` against an in-process solve.

Version negotiation: a coordinator asks each worker its
:func:`~repro.fleet.worker.worker_codec_version` and encodes with
``min(ours, theirs)``; a worker always replies in the version the
request arrived in, so a v1-only peer on either side degrades the pair
to v1, never to an error.
"""

from __future__ import annotations

import json
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
    "PAYLOAD_VERSION",
    "FLAT_PAYLOAD_VERSION",
    "SUPPORTED_PAYLOAD_VERSIONS",
    "encode_problem",
    "decode_problem",
    "encode_schedule",
    "decode_schedule",
    "problem_to_json",
    "problem_from_json",
]

#: the JSON-dict payload schema (v1) — the debugging/interchange form
PAYLOAD_VERSION = 1

#: the flat-array payload schema (v2) — array bytes + shape headers
FLAT_PAYLOAD_VERSION = 2

#: every version this build can decode (and encode on request)
SUPPORTED_PAYLOAD_VERSIONS = (PAYLOAD_VERSION, FLAT_PAYLOAD_VERSION)


class CodecError(GraphError):
    """A fleet payload failed to encode or decode exactly."""


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


def _int_column(payload: dict[str, Any], key: str, count: int | None = None) -> list[int]:
    """Decode an ``array('q')`` bytes column, validating its shape."""
    value = payload.get(key)
    if not isinstance(value, (bytes, bytearray)):
        raise CodecError(
            f"{key!r} must be array('q') bytes, got {type(value).__name__}"
        )
    arr = array("q")
    if len(value) % arr.itemsize:
        raise CodecError(
            f"{key!r} has {len(value)} bytes, not a multiple of "
            f"{arr.itemsize}"
        )
    arr.frombytes(bytes(value))
    if count is not None and len(arr) != count:
        raise CodecError(f"{key!r} has {len(arr)} entries, expected {count}")
    return arr.tolist()


def _float_column(payload: dict[str, Any], key: str, count: int) -> list[float]:
    """Decode an ``array('d')`` bytes column (bit-exact IEEE-754)."""
    value = payload.get(key)
    if not isinstance(value, (bytes, bytearray)):
        raise CodecError(
            f"{key!r} must be array('d') bytes, got {type(value).__name__}"
        )
    arr = array("d")
    if len(value) % arr.itemsize:
        raise CodecError(
            f"{key!r} has {len(value)} bytes, not a multiple of "
            f"{arr.itemsize}"
        )
    arr.frombytes(bytes(value))
    if len(arr) != count:
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
    problem: RetrievalProblem, *, version: int = PAYLOAD_VERSION
) -> dict[str, Any]:
    """The problem — system state included — as a wire payload.

    ``version`` selects the schema: v1 is the JSON-safe dict tree, v2
    the flat-array form (see module docstring).  Coordinators pass the
    per-worker negotiated version; the default stays v1 so the JSON
    text interchange (:func:`problem_to_json`) is unchanged.
    """
    if version not in SUPPORTED_PAYLOAD_VERSIONS:
        raise CodecError(
            f"cannot encode fleet payload version {version!r} "
            f"(supported: {SUPPORTED_PAYLOAD_VERSIONS})"
        )
    sys_ = problem.system
    if version == FLAT_PAYLOAD_VERSION:
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
            "site_ids": _q_bytes(
                [site.site_id for site in sys_.sites], "site ids"
            ),
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
    sites = []
    for site in sys_.sites:
        disks = [
            {
                "disk_id": d.disk_id,
                "name": d.spec.name,
                "producer": d.spec.producer,
                "model": d.spec.model,
                "kind": d.spec.kind,
                "rpm": d.spec.rpm,
                "block_time_ms": d.spec.block_time_ms,
                "initial_load_ms": d.initial_load_ms,
            }
            for d in site.disks
        ]
        sites.append(
            {"site_id": site.site_id, "delay_ms": site.delay_ms, "disks": disks}
        )
    return {
        "version": PAYLOAD_VERSION,
        "sites": sites,
        "replicas": [list(reps) for reps in problem.replicas],
        "labels": [_jsonable_label(x) for x in problem.labels],
    }


def decode_problem(payload: dict[str, Any]) -> RetrievalProblem:
    """Reconstruct the exact problem a coordinator encoded (v1 or v2)."""
    if not isinstance(payload, dict):
        raise CodecError(
            f"problem payload must be a dict, got {type(payload).__name__}"
        )
    version = payload.get("version", PAYLOAD_VERSION)
    if version not in SUPPORTED_PAYLOAD_VERSIONS:
        raise CodecError(
            f"unsupported fleet payload version {version!r} "
            f"(supported: {SUPPORTED_PAYLOAD_VERSIONS})"
        )
    if version == FLAT_PAYLOAD_VERSION:
        site_ids = _int_column(payload, "site_ids")
        num_sites = len(site_ids)
        if num_sites == 0:
            raise CodecError("'site_ids' must be a non-empty column")
        site_delays = _float_column(payload, "site_delay_ms", num_sites)
        disk_counts = _int_column(payload, "site_disk_counts", num_sites)
        if any(c < 0 for c in disk_counts):
            raise CodecError("'site_disk_counts' entries must be >= 0")
        num_disks = sum(disk_counts)
        disk_ids = _int_column(payload, "disk_ids", num_disks)
        spec_idx = _int_column(payload, "disk_spec_idx", num_disks)
        loads = _float_column(payload, "disk_initial_load_ms", num_disks)
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
                    rpm=None
                    if rpm is None
                    else _exact_int(rpm, f"disk_specs[{k}] rpm"),
                    block_time_ms=_float(
                        row[5], f"disk_specs[{k}] block_time_ms"
                    ),
                )
            )
        flat_disks: list[Disk] = []
        for k in range(num_disks):
            idx = spec_idx[k]
            if not 0 <= idx < len(specs):
                raise CodecError(
                    f"disk_spec_idx[{k}] = {idx} out of range "
                    f"[0, {len(specs)})"
                )
            flat_disks.append(
                Disk(
                    disk_id=disk_ids[k],
                    spec=specs[idx],
                    initial_load_ms=loads[k],
                )
            )
        flat_sites: list[Site] = []
        pos = 0
        for idx in range(num_sites):
            count = disk_counts[idx]
            flat_sites.append(
                Site(
                    site_id=site_ids[idx],
                    delay_ms=site_delays[idx],
                    disks=flat_disks[pos : pos + count],
                )
            )
            pos += count
        offsets = _int_column(payload, "replica_offsets")
        flat_reps = _int_column(payload, "replica_flat")
        if len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != len(flat_reps):
            raise CodecError(
                "'replica_offsets' must be a non-empty shape header "
                "starting at 0 and ending at len(replica_flat)"
            )
        flat_replicas: list[tuple[int, ...]] = []
        for i in range(len(offsets) - 1):
            lo, hi = offsets[i], offsets[i + 1]
            if hi < lo:
                raise CodecError(f"replica_offsets[{i + 1}] decreases")
            flat_replicas.append(tuple(flat_reps[lo:hi]))
        flat_labels_raw = payload.get("labels", [])
        if not isinstance(flat_labels_raw, list):
            raise CodecError("'labels' must be a list")
        return RetrievalProblem(
            StorageSystem(flat_sites),
            tuple(flat_replicas),
            labels=tuple(_label_from_wire(x) for x in flat_labels_raw),
        )
    raw_sites = payload.get("sites")
    if not isinstance(raw_sites, list) or not raw_sites:
        raise CodecError("'sites' must be a non-empty list")
    sites: list[Site] = []
    for s in raw_sites:
        if not isinstance(s, dict):
            raise CodecError(f"site entry must be a dict, got {s!r}")
        raw_disks = s.get("disks")
        if not isinstance(raw_disks, list):
            raise CodecError("site 'disks' must be a list")
        disks = []
        for d in raw_disks:
            if not isinstance(d, dict):
                raise CodecError(f"disk entry must be a dict, got {d!r}")
            rpm = d.get("rpm")
            spec = DiskSpec(
                name=str(d.get("name")),
                producer=str(d.get("producer")),
                model=str(d.get("model")),
                kind=str(d.get("kind")),
                rpm=None if rpm is None else _exact_int(rpm, "disk 'rpm'"),
                block_time_ms=_float(
                    d.get("block_time_ms"), "disk 'block_time_ms'"
                ),
            )
            disks.append(
                Disk(
                    disk_id=_exact_int(d.get("disk_id"), "disk 'disk_id'"),
                    spec=spec,
                    initial_load_ms=_float(
                        d.get("initial_load_ms"), "disk 'initial_load_ms'"
                    ),
                )
            )
        sites.append(
            Site(
                site_id=_exact_int(s.get("site_id"), "site 'site_id'"),
                delay_ms=_float(s.get("delay_ms"), "site 'delay_ms'"),
                disks=disks,
            )
        )
    system = StorageSystem(sites)

    raw_reps = payload.get("replicas")
    if not isinstance(raw_reps, list) or not raw_reps:
        raise CodecError("'replicas' must be a non-empty list of disk-id lists")
    replicas = []
    for i, reps in enumerate(raw_reps):
        if not isinstance(reps, list):
            raise CodecError(f"replicas[{i}] must be a list, got {reps!r}")
        replicas.append(
            tuple(_exact_int(d, f"replicas[{i}] disk id") for d in reps)
        )
    raw_labels = payload.get("labels", [])
    if not isinstance(raw_labels, list):
        raise CodecError("'labels' must be a list")
    labels = tuple(_label_from_wire(x) for x in raw_labels)
    return RetrievalProblem(system, tuple(replicas), labels=labels)


def problem_to_json(problem: RetrievalProblem) -> str:
    """JSON text form of :func:`encode_problem` (sorted keys, compact)."""
    return json.dumps(
        encode_problem(problem), separators=(",", ":"), sort_keys=True
    )


def problem_from_json(text: str) -> RetrievalProblem:
    """Decode :func:`problem_to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"not valid JSON: {exc}") from exc
    return decode_problem(payload)


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
#: SolverStats counter fields shipped across the boundary, in order
_STATS_COUNTERS = (
    "probes", "certified", "increments", "pushes", "relabels", "augmentations",
)


def encode_schedule(
    schedule: RetrievalSchedule, *, version: int = PAYLOAD_VERSION
) -> dict[str, Any]:
    """The solver's answer as a wire payload (no problem attached).

    ``extra`` is filtered to JSON scalars — rich objects like probe
    traces stay in the worker; the deterministic counters all travel.
    In v2 the assignment ships as one interleaved ``array('q')``
    (``bucket0, disk0, bucket1, disk1, ...``); the stats counters stay
    a plain dict in both versions because exact op counts may exceed
    int64 (the wire contract the huge-counter test pins).
    """
    if version not in SUPPORTED_PAYLOAD_VERSIONS:
        raise CodecError(
            f"cannot encode fleet payload version {version!r} "
            f"(supported: {SUPPORTED_PAYLOAD_VERSIONS})"
        )
    stats = schedule.stats
    if version == FLAT_PAYLOAD_VERSION:
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
    return {
        "version": PAYLOAD_VERSION,
        "solver": schedule.solver,
        "response_time_ms": schedule.response_time_ms,
        "assignment": [[i, d] for i, d in sorted(schedule.assignment.items())],
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
    version = payload.get("version", PAYLOAD_VERSION)
    if version not in SUPPORTED_PAYLOAD_VERSIONS:
        raise CodecError(
            f"unsupported fleet payload version {version!r} "
            f"(supported: {SUPPORTED_PAYLOAD_VERSIONS})"
        )
    assignment: dict[int, int] = {}
    if version == FLAT_PAYLOAD_VERSION:
        pairs = _int_column(payload, "assignment_flat")
        if len(pairs) % 2:
            raise CodecError(
                f"'assignment_flat' has {len(pairs)} entries, expected "
                "interleaved [bucket, disk] pairs"
            )
        for k in range(0, len(pairs), 2):
            assignment[pairs[k]] = pairs[k + 1]
    else:
        raw_assign = payload.get("assignment")
        if not isinstance(raw_assign, list):
            raise CodecError(
                "'assignment' must be a list of [bucket, disk] pairs"
            )
        for row in raw_assign:
            if not isinstance(row, list) or len(row) != 2:
                raise CodecError(
                    f"assignment row must be [bucket, disk]: {row!r}"
                )
            assignment[_exact_int(row[0], "assignment bucket")] = _exact_int(
                row[1], "assignment disk"
            )
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
