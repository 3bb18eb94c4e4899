"""Cross-process-stable replica-set signature hashing.

Routing keys on the *signature* of a query — its sorted bucket
coordinates, which determine the replica sets and therefore which warm
:class:`~repro.service.cache.NetworkCache` entries can serve it.
``repro.cluster``'s :class:`~repro.cluster.router.RoutingProxy` routes
signatures to backend servers.  For every router to agree on placement
— and for placement to survive a process restart — the hash must be a
function of the *bytes* of the signature, not of interpreter state.

This module is that shared definition: a canonical byte encoding of the
sorted coordinates, SHA-256 over it, and a rendezvous
(highest-random-weight) score for cluster membership.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.workloads.queries import ArbitraryQuery, RangeQuery

__all__ = [
    "Signature",
    "signature_of",
    "signature_bytes",
    "stable_signature_hash",
    "rendezvous_score",
    "rendezvous_choice",
]

#: a query's signature: its bucket coordinates, sorted and tupled
Signature = tuple[tuple[int, int], ...]

QueryLike = Sequence[tuple[int, int]] | RangeQuery | ArbitraryQuery


def signature_of(query: QueryLike) -> Signature:
    """The canonical signature of a query: sorted coordinate tuples."""
    if isinstance(query, (RangeQuery, ArbitraryQuery)):
        coords: Iterable[Sequence[int]] = query.buckets()
    else:
        coords = query
    return tuple(sorted((int(c[0]), int(c[1])) for c in coords))


def signature_bytes(signature: Signature) -> bytes:
    """A canonical byte encoding: ``b"i,j;i,j;..."`` in sorted order.

    Decimal ASCII with explicit separators is unambiguous (no coordinate
    pair can collide with another's encoding) and trivially reproducible
    from any language.
    """
    return ";".join(f"{i},{j}" for i, j in signature).encode("ascii")


def stable_signature_hash(query: QueryLike) -> int:
    """A 64-bit hash of the query's signature, stable across processes.

    The first 8 bytes of SHA-256 over :func:`signature_bytes`.  Use it
    modulo a member count for placement; equal signatures hash
    equal in every process, on every platform, in every Python version.
    """
    digest = hashlib.sha256(signature_bytes(signature_of(query))).digest()
    return int.from_bytes(digest[:8], "big")


def rendezvous_score(key: bytes, member_id: str) -> int:
    """Highest-random-weight score of ``member_id`` for routing ``key``.

    SHA-256 over ``key || 0x00 || member_id``: each (key, member) pair
    gets an independent uniform score, so routing a key to the live
    member with the highest score moves only the keys owned by a member
    when that member joins or leaves — every other key keeps its
    placement (and its warm caches).
    """
    digest = hashlib.sha256(key + b"\x00" + member_id.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def rendezvous_choice(key: bytes, member_ids: Iterable[str]) -> str:
    """The member with the highest rendezvous score for ``key``.

    Ties (cryptographically negligible) break toward the smaller id so
    the choice is total. Raises ``ValueError`` on an empty member set.
    """
    best: str | None = None
    best_score = -1
    for member_id in member_ids:
        score = rendezvous_score(key, member_id)
        if score > best_score or (score == best_score and (
            best is None or member_id < best
        )):
            best, best_score = member_id, score
    if best is None:
        raise ValueError("rendezvous over an empty member set")
    return best
