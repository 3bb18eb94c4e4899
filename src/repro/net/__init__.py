"""Network layer: the asyncio RPC front end over the scheduler service.

The serving edge for the reproduction — a TCP server speaking a
length-prefixed JSON protocol in front of
:class:`~repro.service.SchedulerService`, with bounded in-flight
admission control (explicit ``OVERLOADED`` load shedding instead of
unbounded queueing), graceful drain on SIGTERM or the ``shutdown`` RPC,
and sync + async client libraries with pooling, deadlines and
jittered-backoff retry.  See ``docs/API.md`` ("Network service") for
the wire format and error-code contract.

>>> from repro.net import BackgroundServer, SchedulerClient
>>> with BackgroundServer(service) as bg:
...     with SchedulerClient(bg.host, bg.port) as client:
...         client.submit([(0, 0), (1, 1)]).response_time_ms
"""

from repro.net.client import AsyncSchedulerClient, RetryPolicy, SchedulerClient
from repro.net.errors import (
    BadRequestError,
    ConnectError,
    ConnectionClosedError,
    DeadlineExceededError,
    FrameTooLargeError,
    HandshakeError,
    InvalidQueryError,
    NetError,
    OverloadedError,
    ProtocolError,
    RemoteError,
    ShuttingDownError,
    UnknownOpError,
    UnsupportedVersionError,
)
from repro.net.protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION, FrameDecoder
from repro.net.run import BackgroundServer, serve
from repro.net.server import OPS, SchedulerServer, ServerConfig

__all__ = [
    "AsyncSchedulerClient",
    "BackgroundServer",
    "BadRequestError",
    "ConnectError",
    "ConnectionClosedError",
    "DeadlineExceededError",
    "FrameDecoder",
    "FrameTooLargeError",
    "HandshakeError",
    "InvalidQueryError",
    "MAX_FRAME_BYTES",
    "NetError",
    "OPS",
    "OverloadedError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteError",
    "RetryPolicy",
    "SchedulerClient",
    "SchedulerServer",
    "ServerConfig",
    "ShuttingDownError",
    "UnknownOpError",
    "UnsupportedVersionError",
    "serve",
]
