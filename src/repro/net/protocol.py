"""Wire protocol: length-prefixed JSON frames and typed envelopes.

Frame format
------------
Each message is one *frame*: a 4-byte big-endian unsigned length header
followed by that many bytes of UTF-8 JSON encoding a single object.  A
header declaring more than the configured maximum is rejected before the
body is buffered (:class:`~repro.net.errors.FrameTooLargeError`), which
bounds per-connection memory.

Envelopes
---------
Requests carry a connection-unique integer ``id`` so responses can be
matched out of order (several requests may be in flight on one
connection)::

    {"id": 7, "op": "submit", "params": {...}}

Responses echo the id and carry either a result or a typed error::

    {"id": 7, "ok": true,  "result": {...}}
    {"id": 7, "ok": false, "error": {"code": "OVERLOADED",
                                     "message": "...",
                                     "retry_after_ms": 50.0}}

An error whose ``id`` is ``null`` reports a frame the server could not
attribute to a request (e.g. malformed JSON).

Handshake
---------
The first request on a connection must be ``hello`` with the client's
``version``; the server answers with its own version and limits, or an
``UNSUPPORTED_VERSION`` error and closes.  Everything after the
handshake is ordinary requests.

The module also carries the value codecs — queries and
:class:`~repro.service.ServiceRecord` outcomes to and from plain JSON
objects — so the server and both clients share one source of truth.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from repro.net.errors import (
    FrameTooLargeError,
    NonIntegralFieldError,
    ProtocolError,
)
from repro.service.stats import ServiceRecord
from repro.workloads.queries import ArbitraryQuery, RangeQuery

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "HEADER_BYTES",
    "ERROR_CODES",
    "FrameDecoder",
    "encode_frame",
    "make_request",
    "ok_response",
    "error_response",
    "parse_request",
    "query_to_wire",
    "query_from_wire",
    "record_to_wire",
    "record_from_wire",
]

#: bump on incompatible envelope/codec changes; the handshake enforces it
PROTOCOL_VERSION = 2

#: default per-frame size limit (1 MiB) — a schedule for a full grid of
#: buckets is a few tens of KiB, so this leaves ample headroom
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")

#: length of the frame header in bytes
HEADER_BYTES = _HEADER.size

#: every error code a server may place in an error envelope
ERROR_CODES = frozenset(
    {
        "BAD_REQUEST",
        "UNSUPPORTED_VERSION",
        "UNKNOWN_OP",
        "INVALID_QUERY",
        "OVERLOADED",
        "SHUTTING_DOWN",
        "FRAME_TOO_LARGE",
        "INTERNAL",
    }
)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(
    payload: dict[str, Any], *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Serialize one envelope as a length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(body) > max_frame_bytes:
        raise FrameTooLargeError(
            f"outgoing frame of {len(body)} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame parser tolerant of arbitrary read boundaries.

    Feed it whatever the transport produced — half a header, three and a
    half frames — and it returns every message that became complete.  A
    syntactically complete frame whose payload is not a JSON object
    yields a :class:`~repro.net.errors.ProtocolError` *item* (the broken
    frame is consumed, so the connection can survive and answer with a
    typed error).  An oversized header raises
    :class:`~repro.net.errors.FrameTooLargeError` immediately: the
    stream cannot be resynchronized and must be closed.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[dict[str, Any] | ProtocolError]:
        """Absorb ``data``; return completed messages in arrival order."""
        self._buf += data
        out: list[dict[str, Any] | ProtocolError] = []
        while True:
            if len(self._buf) < HEADER_BYTES:
                return out
            (length,) = _HEADER.unpack_from(self._buf)
            if length > self.max_frame_bytes:
                raise FrameTooLargeError(
                    f"incoming frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            if len(self._buf) < HEADER_BYTES + length:
                return out
            body = bytes(self._buf[HEADER_BYTES : HEADER_BYTES + length])
            del self._buf[: HEADER_BYTES + length]
            out.append(self._parse_body(body))

    @staticmethod
    def _parse_body(body: bytes) -> dict[str, Any] | ProtocolError:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return ProtocolError(f"frame payload is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            return ProtocolError(
                f"frame payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        return payload


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------
def make_request(
    req_id: int, op: str, params: dict[str, Any] | None = None
) -> dict[str, Any]:
    return {"id": req_id, "op": op, "params": params or {}}


def ok_response(req_id: int | None, result: Any) -> dict[str, Any]:
    return {"id": req_id, "ok": True, "result": result}


def error_response(
    req_id: int | None,
    code: str,
    message: str,
    *,
    retry_after_ms: float | None = None,
) -> dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: dict[str, Any] = {"code": code, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = float(retry_after_ms)
    return {"id": req_id, "ok": False, "error": error}


def parse_request(msg: dict[str, Any]) -> tuple[int, str, dict[str, Any]]:
    """Validate a request envelope; returns ``(id, op, params)``."""
    req_id = msg.get("id")
    if not isinstance(req_id, int) or isinstance(req_id, bool) or req_id < 0:
        raise ProtocolError(f"request id must be a non-negative int: {req_id!r}")
    op = msg.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError(f"request op must be a non-empty string: {op!r}")
    params = msg.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            f"request params must be an object, got {type(params).__name__}"
        )
    return req_id, op, params


# ----------------------------------------------------------------------
# value codecs
# ----------------------------------------------------------------------
def _exact_wire_int(v: Any, what: str) -> int:
    """Decode a wire number that must be an exact integer.

    Accepts ints and integral floats (some JSON encoders emit ``3.0``);
    fractional numerics raise :class:`NonIntegralFieldError` — counts and
    coordinates are never silently truncated — and non-numerics raise
    plain :class:`ProtocolError`.
    """
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, float):
        as_int = int(v)
        if as_int == v:
            return as_int
        raise NonIntegralFieldError(
            f"{what} must be integral, got non-integral number {v!r}"
        )
    raise ProtocolError(f"{what} must be an int: {v!r}")


def _coord_pairs(raw: Any, what: str) -> list[tuple[int, int]]:
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(f"{what} must be a non-empty list of [i, j] pairs")
    coords: list[tuple[int, int]] = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ProtocolError(f"{what} entries must be [i, j] int pairs")
        coords.append(
            (
                _exact_wire_int(item[0], f"{what} entry"),
                _exact_wire_int(item[1], f"{what} entry"),
            )
        )
    return coords


def query_to_wire(
    query: RangeQuery | ArbitraryQuery | Any,
) -> dict[str, Any]:
    """Encode any ``submit``-able query as a JSON object."""
    if isinstance(query, RangeQuery):
        return {
            "kind": "range",
            "i": query.i,
            "j": query.j,
            "r": query.r,
            "c": query.c,
            "grid_size": query.grid_size,
        }
    if isinstance(query, ArbitraryQuery):
        return {
            "kind": "arbitrary",
            "coords": [[i, j] for (i, j) in query.coords],
            "grid_size": query.grid_size,
        }
    return {
        "kind": "coords",
        "coords": [[int(i), int(j)] for (i, j) in query],
    }


def _wire_int(obj: dict[str, Any], key: str, what: str) -> int:
    return _exact_wire_int(obj.get(key), f"{what} field {key!r}")


def query_from_wire(
    obj: Any,
) -> list[tuple[int, int]] | RangeQuery | ArbitraryQuery:
    """Decode a wire query; raises ProtocolError on malformed input.

    Semantic validation (corner outside the grid, duplicate buckets)
    stays with the query constructors / the scheduler, which raise the
    library's own :class:`~repro.errors.WorkloadError` — the server maps
    those to ``INVALID_QUERY`` rather than ``BAD_REQUEST``.
    """
    if not isinstance(obj, dict):
        raise ProtocolError(f"query must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "coords":
        return _coord_pairs(obj.get("coords"), "coords query")
    if kind == "range":
        return RangeQuery(
            _wire_int(obj, "i", "range query"),
            _wire_int(obj, "j", "range query"),
            _wire_int(obj, "r", "range query"),
            _wire_int(obj, "c", "range query"),
            _wire_int(obj, "grid_size", "range query"),
        )
    if kind == "arbitrary":
        return ArbitraryQuery(
            tuple(_coord_pairs(obj.get("coords"), "arbitrary query")),
            _wire_int(obj, "grid_size", "arbitrary query"),
        )
    raise ProtocolError(f"unknown query kind {kind!r}")


def _label_to_wire(label: Any) -> Any:
    if isinstance(label, tuple):
        return list(label)
    return label


def _label_from_wire(label: Any) -> Any:
    if isinstance(label, list):
        return tuple(label)
    return label


def record_to_wire(record: ServiceRecord) -> dict[str, Any]:
    """Encode a scheduling outcome for the response envelope."""
    return {
        "arrival_ms": record.arrival_ms,
        "num_buckets": record.num_buckets,
        "response_time_ms": record.response_time_ms,
        "assignment": [
            [_label_to_wire(label), disk]
            for label, disk in record.assignment.items()
        ],
        "degraded": record.degraded,
        "decision_time_ms": record.decision_time_ms,
        "query": query_to_wire(record.query),
        "cache_hit": record.cache_hit,
    }


def record_from_wire(obj: Any) -> ServiceRecord:
    """Decode a ``submit`` result back into a ServiceRecord."""
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"record must be an object, got {type(obj).__name__}"
        )
    try:
        raw_assignment = obj["assignment"]
        if not isinstance(raw_assignment, list):
            raise ProtocolError("record assignment must be a list of pairs")
        assignment = {
            _label_from_wire(label): disk for label, disk in raw_assignment
        }
        return ServiceRecord(
            arrival_ms=float(obj["arrival_ms"]),
            num_buckets=_wire_int(obj, "num_buckets", "record"),
            response_time_ms=float(obj["response_time_ms"]),
            assignment=assignment,
            degraded=bool(obj["degraded"]),
            decision_time_ms=float(obj["decision_time_ms"]),
            query=query_from_wire(obj["query"]),
            cache_hit=bool(obj["cache_hit"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed record envelope: {exc}") from exc
