"""Continuous-time scheduling mode (``ServiceConfig(mode="online")``).

Queries arrive *and finish*: an event clock advances over per-disk
drains, failures re-plan in-flight work incrementally, and admission
control sheds on *predicted* response time.  See
:class:`OnlineScheduler` for the full story.
"""

from typing import Any

from repro.online.config import OnlineConfig
from repro.online.events import DrainEvent, EventClock
from repro.online.records import OnlineRecord, OnlineStats

__all__ = [
    "DrainEvent",
    "EventClock",
    "OnlineConfig",
    "OnlineRecord",
    "OnlineScheduler",
    "OnlineStats",
]


def __getattr__(name: str) -> Any:
    # OnlineScheduler is resolved lazily: its module imports the service
    # layer, which imports this package for OnlineConfig — eager loading
    # here would close that cycle during ``import repro.service``.
    if name == "OnlineScheduler":
        from repro.online.scheduler import OnlineScheduler

        return OnlineScheduler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
