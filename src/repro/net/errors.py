"""Typed error hierarchy for the network layer.

Every failure a caller can see derives from :class:`NetError` (itself a
:class:`~repro.errors.ReproError`), split along two axes:

* *where* it happened — locally (:class:`ProtocolError`,
  :class:`ConnectError`, :class:`ConnectionClosedError`,
  :class:`DeadlineExceededError`) versus reported by the server as a
  typed error envelope (:class:`RemoteError` and subclasses, one per
  wire error code);
* *whether retrying can help* — the ``transient`` class attribute drives
  the client's jittered-exponential-backoff retry loop.  Load shedding
  (:class:`OverloadedError`) and connection loss are transient; a
  malformed request or an exceeded deadline is not.
"""

from __future__ import annotations

from repro.errors import ReproError

__all__ = [
    "NetError",
    "ProtocolError",
    "NonIntegralFieldError",
    "FrameTooLargeError",
    "HandshakeError",
    "ConnectError",
    "ConnectionClosedError",
    "DeadlineExceededError",
    "RemoteError",
    "BadRequestError",
    "UnknownOpError",
    "InvalidQueryError",
    "OverloadedError",
    "ShuttingDownError",
    "UnsupportedVersionError",
    "FrameRejectedError",
    "remote_error_from_wire",
]


class NetError(ReproError):
    """Base class for every network-layer failure.

    ``transient`` marks errors where a retry (possibly against a fresh
    connection) has a reasonable chance of succeeding; the client's
    retry policy only ever retries transient errors.
    """

    transient: bool = False


class ProtocolError(NetError):
    """The byte stream or an envelope violates the wire protocol."""


class NonIntegralFieldError(ProtocolError):
    """A numeric wire field that must be integral carries a fraction.

    Counts and coordinates (bucket counts, grid indices, disk ids) are
    exact integers end to end under the integer kernel contract; a value
    like ``2.5`` is rejected at decode time instead of being silently
    truncated.  The server maps this to an ``INVALID_QUERY`` envelope —
    the frame and request were well-formed, the *value* was not — rather
    than ``BAD_REQUEST``.
    """


class FrameTooLargeError(ProtocolError):
    """A frame header declares a body beyond the configured maximum."""


class HandshakeError(ProtocolError):
    """The protocol-version handshake failed."""


class ConnectError(NetError):
    """A TCP connection to the server could not be established."""

    transient = True


class ConnectionClosedError(NetError):
    """The connection dropped while a request was outstanding."""

    transient = True


class DeadlineExceededError(NetError):
    """The per-request deadline elapsed before a response arrived."""


class RemoteError(NetError):
    """An error envelope returned by the server.

    Attributes
    ----------
    code:
        The wire error code (see :mod:`repro.net.protocol`).
    retry_after_ms:
        Optional server hint: wait at least this long before retrying.
        Only load-shed (``OVERLOADED``) responses carry it today.
    """

    code: str = "INTERNAL"

    def __init__(
        self, message: str, *, retry_after_ms: float | None = None
    ) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class BadRequestError(RemoteError):
    """The server could not parse the request envelope."""

    code = "BAD_REQUEST"


class UnknownOpError(RemoteError):
    """The requested operation does not exist."""

    code = "UNKNOWN_OP"


class InvalidQueryError(RemoteError):
    """The query was well-formed on the wire but rejected by the scheduler."""

    code = "INVALID_QUERY"


class OverloadedError(RemoteError):
    """Admission control shed the request; retry after the hinted delay."""

    code = "OVERLOADED"
    transient = True


class ShuttingDownError(RemoteError):
    """The server is draining and no longer admits new work."""

    code = "SHUTTING_DOWN"


class UnsupportedVersionError(RemoteError):
    """Client and server disagree on the protocol version."""

    code = "UNSUPPORTED_VERSION"


class FrameRejectedError(RemoteError):
    """The server rejected a frame as oversized.

    The remote twin of the local :class:`FrameTooLargeError`: that one
    means *we* saw an oversized header on our own socket, this one means
    the *server* reported ours over the wire before closing.  Not
    transient — resending the same frame can only be rejected again.
    """

    code = "FRAME_TOO_LARGE"


#: wire error code -> exception class raised client-side
_REMOTE_BY_CODE: dict[str, type[RemoteError]] = {
    cls.code: cls
    for cls in (
        BadRequestError,
        UnknownOpError,
        InvalidQueryError,
        OverloadedError,
        ShuttingDownError,
        UnsupportedVersionError,
        FrameRejectedError,
    )
}


def remote_error_from_wire(error: object) -> RemoteError:
    """Rehydrate a typed exception from a response's ``error`` object.

    Unknown or missing codes fall back to the :class:`RemoteError` base
    (code ``INTERNAL``), so a newer server cannot crash an older client.
    """
    if not isinstance(error, dict):
        return RemoteError("malformed error envelope")
    code = str(error.get("code", "INTERNAL"))
    message = str(error.get("message", ""))
    retry_raw = error.get("retry_after_ms")
    retry_after = (
        float(retry_raw) if isinstance(retry_raw, (int, float)) else None
    )
    cls = _REMOTE_BY_CODE.get(code, RemoteError)
    exc = cls(message, retry_after_ms=retry_after)
    if cls is RemoteError:
        exc.code = code
    return exc
