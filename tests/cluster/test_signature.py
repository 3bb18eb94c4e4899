"""The shared signature hash: stability, canonicalisation, rendezvous.

The whole cluster tier leans on one invariant: every process — any
router, on any machine — maps the same query to the same signature
bytes and the same hash.  These tests pin the
canonical encoding and the SHA-256 digest to literal values so an
accidental change to either breaks loudly (it would silently scatter
warm caches across the fleet otherwise).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.decluster import make_placement
from repro.service import SchedulerService, ServiceConfig
from repro.service.signature import (
    rendezvous_choice,
    rendezvous_score,
    signature_bytes,
    signature_of,
    stable_signature_hash,
)
from repro.storage import StorageSystem
from repro.workloads.queries import ArbitraryQuery, RangeQuery


class TestSignatureOf:
    def test_sorts_and_normalizes_coords(self):
        assert signature_of([(2, 3), (0, 0), (1, 1)]) == (
            (0, 0), (1, 1), (2, 3),
        )

    def test_numpy_ints_normalize_to_python_ints(self):
        sig = signature_of([(np.int64(1), np.int64(2))])
        assert sig == ((1, 2),)
        assert all(type(x) is int for pair in sig for x in pair)

    def test_range_query_uses_its_buckets(self):
        q = RangeQuery(0, 0, 2, 2, 5)
        assert signature_of(q) == tuple(sorted(q.buckets()))

    def test_arbitrary_query_uses_its_buckets(self):
        q = ArbitraryQuery(((3, 1), (0, 2)), 5)
        assert signature_of(q) == tuple(sorted(q.buckets()))


class TestStableHash:
    def test_canonical_bytes_encoding(self):
        assert signature_bytes(((0, 0), (1, 1), (2, 3))) == b"0,0;1,1;2,3"

    def test_pinned_digest_value(self):
        # literal pin: sha256(b"0,0;1,1;2,3")[:8] big-endian.  If this
        # moves, every deployed router disagrees with the old ones
        # about signature placement.
        assert stable_signature_hash([(2, 3), (0, 0), (1, 1)]) == (
            14539087087337857718
        )

    def test_matches_sha256_by_construction(self):
        coords = [(4, 1), (0, 3)]
        digest = hashlib.sha256(
            signature_bytes(signature_of(coords))
        ).digest()
        assert stable_signature_hash(coords) == int.from_bytes(
            digest[:8], "big"
        )

    def test_order_invariant(self):
        a = [(0, 0), (3, 2), (1, 4)]
        assert stable_signature_hash(a) == stable_signature_hash(a[::-1])


class TestRendezvous:
    def test_choice_is_the_argmax_of_scores(self):
        members = ["b0", "b1", "b2"]
        key = b"0,0;1,1"
        best = max(members, key=lambda m: (rendezvous_score(key, m), m))
        assert rendezvous_choice(key, members) == best

    def test_empty_membership_raises(self):
        with pytest.raises(ValueError):
            rendezvous_choice(b"k", [])

    def test_minimal_disruption_on_leave(self):
        """Removing one member only moves the keys that member owned."""
        members = ["b0", "b1", "b2", "b3"]
        keys = [f"{i},{j}".encode() for i in range(12) for j in range(12)]
        before = {k: rendezvous_choice(k, members) for k in keys}
        survivors = [m for m in members if m != "b1"]
        for k in keys:
            after = rendezvous_choice(k, survivors)
            if before[k] != "b1":
                assert after == before[k]

    def test_rejoin_restores_the_exact_share(self):
        """Scores are stateless: add the member back, ownership returns."""
        members = ["b0", "b1", "b2"]
        keys = [f"{i}".encode() for i in range(200)]
        before = {k: rendezvous_choice(k, members) for k in keys}
        after = {k: rendezvous_choice(k, members) for k in keys}
        assert before == after

    def test_spread_is_roughly_uniform(self):
        members = [f"b{i}" for i in range(4)]
        keys = [f"{i}".encode() for i in range(2000)]
        counts = {m: 0 for m in members}
        for k in keys:
            counts[rendezvous_choice(k, members)] += 1
        for c in counts.values():
            assert 300 < c < 700  # 500 expected per member


class TestServiceHistoryStability:
    def test_single_service_records_unaffected_by_hash_change(self):
        """The hash only routes; schedules themselves must not move."""
        rng = np.random.default_rng(0)
        placement = make_placement("orthogonal", 5, num_sites=2, rng=rng)
        system = StorageSystem.from_groups(
            ["ssd+hdd", "ssd+hdd"], 5, delays_ms=[1.0, 4.0], rng=rng
        )
        service = SchedulerService(system, placement, config=ServiceConfig())
        record = service.submit([(0, 0), (1, 1), (2, 3)], arrival_ms=1.0)
        assert record.num_buckets == 3
        assert record.response_time_ms > 0
