"""Wire protocol: framing fuzz, envelope validation, value codecs."""

from __future__ import annotations

import json
import random
import struct

import pytest

from repro.net.errors import (
    FrameTooLargeError,
    NonIntegralFieldError,
    ProtocolError,
)
from repro.net.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    error_response,
    make_request,
    ok_response,
    parse_request,
    query_from_wire,
    query_to_wire,
    record_from_wire,
    record_to_wire,
)
from repro.service.stats import ServiceRecord
from repro.workloads.queries import ArbitraryQuery, RangeQuery


def frames(*payloads):
    return b"".join(encode_frame(p) for p in payloads)


class TestFraming:
    def test_roundtrip_single_frame(self):
        msg = make_request(3, "health")
        dec = FrameDecoder()
        assert dec.feed(encode_frame(msg)) == [msg]
        assert dec.pending_bytes == 0

    def test_byte_at_a_time_delivery(self):
        msgs = [make_request(i, "health") for i in range(3)]
        blob = frames(*msgs)
        dec = FrameDecoder()
        got = []
        for i in range(len(blob)):
            got.extend(dec.feed(blob[i : i + 1]))
        assert got == msgs
        assert dec.pending_bytes == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_chunk_boundaries(self, seed):
        rnd = random.Random(seed)
        msgs = [
            make_request(i, "submit", {"query": {"kind": "coords",
                                                 "coords": [[i, i]]}})
            for i in range(20)
        ]
        blob = frames(*msgs)
        dec = FrameDecoder()
        got = []
        pos = 0
        while pos < len(blob):
            step = rnd.randint(1, 64)
            got.extend(dec.feed(blob[pos : pos + step]))
            pos += step
        assert got == msgs

    def test_split_header_then_split_body(self):
        msg = ok_response(1, {"x": "y" * 100})
        blob = encode_frame(msg)
        dec = FrameDecoder()
        assert dec.feed(blob[:2]) == []          # half a header
        assert dec.feed(blob[2:HEADER_BYTES]) == []   # full header, no body
        assert dec.feed(blob[HEADER_BYTES:-5]) == []  # most of the body
        assert dec.feed(blob[-5:]) == [msg]

    def test_multiple_frames_in_one_read(self):
        msgs = [make_request(i, "stats") for i in range(4)]
        dec = FrameDecoder()
        assert dec.feed(frames(*msgs)) == msgs

    def test_trailing_garbage_is_held_as_partial_frame(self):
        msg = make_request(0, "health")
        dec = FrameDecoder()
        # trailing bytes that do not yet form a complete frame are
        # buffered, not discarded and not spuriously decoded
        tail = struct.pack(">I", 100) + b'{"half":'
        assert dec.feed(encode_frame(msg) + tail) == [msg]
        assert dec.pending_bytes == len(tail)

    def test_oversized_declared_length_raises_immediately(self):
        dec = FrameDecoder(max_frame_bytes=64)
        header = struct.pack(">I", 65)
        with pytest.raises(FrameTooLargeError, match="65 bytes"):
            dec.feed(header)  # rejected before any body arrives

    def test_oversized_outgoing_frame_rejected(self):
        with pytest.raises(FrameTooLargeError, match="exceeds"):
            encode_frame({"blob": "x" * 128}, max_frame_bytes=64)
        assert len(encode_frame({"blob": "x" * 128})) > 128  # default is roomy

    def test_default_limit_is_one_mib(self):
        assert MAX_FRAME_BYTES == 1 << 20

    def test_malformed_json_becomes_protocol_error_item(self):
        bad = b"{not json!"
        blob = struct.pack(">I", len(bad)) + bad
        good = make_request(7, "health")
        dec = FrameDecoder()
        items = dec.feed(blob + encode_frame(good))
        assert len(items) == 2
        assert isinstance(items[0], ProtocolError)
        # the broken frame is consumed; the stream stays in sync
        assert items[1] == good

    def test_non_object_payload_becomes_protocol_error_item(self):
        body = json.dumps([1, 2, 3]).encode()
        blob = struct.pack(">I", len(body)) + body
        items = FrameDecoder().feed(blob)
        assert len(items) == 1
        assert isinstance(items[0], ProtocolError)
        assert "object" in str(items[0])

    def test_non_utf8_payload_becomes_protocol_error_item(self):
        body = b"\xff\xfe\x00bad"
        blob = struct.pack(">I", len(body)) + body
        (item,) = FrameDecoder().feed(blob)
        assert isinstance(item, ProtocolError)

    def test_empty_frame_is_protocol_error_not_crash(self):
        (item,) = FrameDecoder().feed(struct.pack(">I", 0))
        assert isinstance(item, ProtocolError)


class TestEnvelopes:
    def test_parse_request_roundtrip(self):
        msg = make_request(5, "submit", {"a": 1})
        assert parse_request(msg) == (5, "submit", {"a": 1})

    def test_params_default_to_empty(self):
        assert parse_request({"id": 0, "op": "health"}) == (0, "health", {})

    @pytest.mark.parametrize(
        "msg",
        [
            {},
            {"id": -1, "op": "x"},
            {"id": True, "op": "x"},
            {"id": "7", "op": "x"},
            {"id": 1.5, "op": "x"},
            {"id": 1},
            {"id": 1, "op": ""},
            {"id": 1, "op": 7},
            {"id": 1, "op": "x", "params": []},
            {"id": 1, "op": "x", "params": "y"},
        ],
    )
    def test_bad_request_envelopes_rejected(self, msg):
        with pytest.raises(ProtocolError):
            parse_request(msg)

    def test_error_response_requires_known_code(self):
        with pytest.raises(ValueError, match="unknown error code"):
            error_response(1, "NOT_A_CODE", "boom")

    def test_error_response_carries_retry_hint(self):
        resp = error_response(2, "OVERLOADED", "full", retry_after_ms=25)
        assert resp["error"]["retry_after_ms"] == 25.0
        assert resp["ok"] is False

    def test_unattributable_error_has_null_id(self):
        resp = error_response(None, "BAD_REQUEST", "mangled")
        assert resp["id"] is None

    def test_version_constant(self):
        assert PROTOCOL_VERSION == 2


class TestQueryCodec:
    def test_coords_roundtrip(self):
        q = [(0, 1), (2, 3)]
        assert query_from_wire(query_to_wire(q)) == q

    def test_range_roundtrip(self):
        q = RangeQuery(1, 2, 2, 3, 8)
        back = query_from_wire(query_to_wire(q))
        assert isinstance(back, RangeQuery)
        assert back == q

    def test_arbitrary_roundtrip(self):
        q = ArbitraryQuery(((0, 0), (3, 4)), 6)
        back = query_from_wire(query_to_wire(q))
        assert isinstance(back, ArbitraryQuery)
        assert back.coords == q.coords
        assert back.grid_size == q.grid_size

    def test_wire_is_json_safe(self):
        for q in ([(0, 1)], RangeQuery(0, 0, 1, 1, 4),
                  ArbitraryQuery(((1, 1),), 4)):
            json.dumps(query_to_wire(q))

    @pytest.mark.parametrize(
        "obj",
        [
            None,
            42,
            {"kind": "mystery"},
            {"kind": "coords", "coords": []},
            {"kind": "coords", "coords": [[0]]},
            {"kind": "coords", "coords": [[0, True]]},
            {"kind": "coords", "coords": [["0", "1"]]},
            {"kind": "range", "i": 0, "j": 0, "r": 1, "c": 1},
            {"kind": "range", "i": 0.5, "j": 0, "r": 1, "c": 1,
             "grid_size": 4},
            {"kind": "arbitrary", "coords": [[0, 0]]},
        ],
    )
    def test_malformed_queries_rejected(self, obj):
        with pytest.raises(ProtocolError):
            query_from_wire(obj)


class TestNonIntegralRejection:
    """Counts and coordinates are exact integers on the wire.

    A fractional value raises the *typed*
    :class:`NonIntegralFieldError` (a ProtocolError subclass the server
    maps to ``INVALID_QUERY``) instead of being silently truncated by
    ``int(...)`` as the float-era codec did.
    """

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "coords", "coords": [[0.5, 1]]},
            {"kind": "coords", "coords": [[0, 1.25]]},
            {"kind": "range", "i": 0, "j": 0, "r": 1.5, "c": 1,
             "grid_size": 4},
            {"kind": "range", "i": 0, "j": 0, "r": 1, "c": 1,
             "grid_size": 4.5},
            {"kind": "arbitrary", "coords": [[2.5, 0]], "grid_size": 4},
        ],
    )
    def test_fractional_query_fields_raise_typed_error(self, obj):
        with pytest.raises(NonIntegralFieldError):
            query_from_wire(obj)

    def test_integral_floats_still_accepted(self):
        """Legacy clients send ``2.0``-style counts; those decode exactly."""
        q = query_from_wire({"kind": "coords", "coords": [[0.0, 1.0]]})
        assert q == [(0, 1)]
        assert all(type(x) is int for pair in q for x in pair)
        r = query_from_wire(
            {"kind": "range", "i": 0.0, "j": 1.0, "r": 2.0, "c": 1.0,
             "grid_size": 4.0}
        )
        assert isinstance(r, RangeQuery) and r.grid_size == 4

    @pytest.mark.parametrize("field", ["num_buckets"])
    def test_fractional_record_counts_rejected(self, field):
        rec = ServiceRecord(
            arrival_ms=0.0,
            num_buckets=1,
            response_time_ms=1.0,
            assignment={(0, 0): 0},
            degraded=False,
            decision_time_ms=0.1,
            query=[(0, 0)],
            cache_hit=False,
        )
        wire = record_to_wire(rec)
        wire[field] = 1.5
        with pytest.raises(NonIntegralFieldError, match=field):
            record_from_wire(wire)

    def test_typed_error_is_a_protocol_error(self):
        assert issubclass(NonIntegralFieldError, ProtocolError)


class TestRecordCodec:
    def record(self):
        return ServiceRecord(
            arrival_ms=12.5,
            num_buckets=2,
            response_time_ms=7.25,
            assignment={(0, 1): 3, (2, 2): 0},
            degraded=True,
            decision_time_ms=0.125,
            query=[(0, 1), (2, 2)],
            cache_hit=True,
        )

    def test_roundtrip_preserves_everything(self):
        rec = self.record()
        back = record_from_wire(json.loads(json.dumps(record_to_wire(rec))))
        assert back.arrival_ms == rec.arrival_ms
        assert back.response_time_ms == rec.response_time_ms
        assert back.assignment == rec.assignment  # tuple keys restored
        assert back.degraded is True
        assert back.cache_hit is True
        assert back.query == rec.query

    def test_wire_keys_are_the_v2_schema(self):
        assert set(record_to_wire(self.record())) == {
            "arrival_ms",
            "num_buckets",
            "response_time_ms",
            "assignment",
            "degraded",
            "decision_time_ms",
            "query",
            "cache_hit",
        }

    def test_range_query_record_roundtrip(self):
        rec = ServiceRecord(
            arrival_ms=0.0,
            num_buckets=1,
            response_time_ms=1.0,
            assignment={(0, 0): 0},
            degraded=False,
            decision_time_ms=0.1,
            query=RangeQuery(0, 0, 1, 1, 4),
            cache_hit=False,
        )
        back = record_from_wire(record_to_wire(rec))
        assert isinstance(back.query, RangeQuery)

    @pytest.mark.parametrize(
        "obj", [None, [], {}, {"arrival_ms": 1.0}, {"assignment": "x"}]
    )
    def test_malformed_records_rejected(self, obj):
        with pytest.raises(ProtocolError):
            record_from_wire(obj)
