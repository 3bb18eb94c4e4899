"""Probe tracing — the event log of one solve's feasibility probes.

The paper's integrated algorithms win by making each feasibility probe
cheaper than the last (flow conservation, Figures 7-9); a flat
:class:`~repro.core.schedule.SolverStats` can only show the *sum* of that
work.  A :class:`ProbeTrace` records the sequence: for every max-flow
probe, the candidate response time ``t``, the flow value it reached, the
engine-operation deltas it cost (pushes/relabels/augmentations) and its
wall time, tagged with the scaling phase that issued it:

``anchor``
    Algorithm 6's defensive probe at the closed-form ``tmin``.
``binary``
    the bisection probes (lines 12-37); infeasible candidates ascend,
    feasible candidates descend as the bracket narrows.
``certified``
    a bisection midpoint at or above the greedy makespan, answered
    feasible without a max-flow run (no operations, no wall time); it
    lowers the upper bracket end like a feasible ``binary`` probe.
``cut_certified``
    an anchor, bisection or increment point where no disk that the
    stored infeasible flow saturates gained capacity, answered
    infeasible with the stored flow's value without a max-flow run (no
    operations, no wall time); it raises the lower bracket end like an
    infeasible ``binary`` probe, or precedes the next increment.
``increment``
    the ``IncrementMinCost`` phase (Algorithm 3/5); candidates are the
    nondecreasing min-cost finish times.
``result``
    exactly one terminal record whose ``t`` is the schedule's final
    response time.

Tracing is **opt-in** (``solve(problem, trace=True)``) and carried in a
:class:`contextvars.ContextVar` so the solver call tree needs no new
parameters: the skeleton in :mod:`repro.core.scaling` asks
:func:`active_trace` — a single context-variable read when disabled — and
default solves pay essentially nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import asdict, dataclass, field

__all__ = [
    "PHASES",
    "ProbeEvent",
    "ProbeTrace",
    "active_trace",
    "capture_probes",
]

#: Recognised phase tags, in the order a binary-scaled solve emits them.
PHASES = ("anchor", "binary", "certified", "cut_certified", "increment", "result")

#: Phases that are not max-flow runs: excluded from :meth:`ProbeTrace.probes`.
_NOT_PROBES = frozenset({"certified", "cut_certified", "result"})


@dataclass(frozen=True)
class ProbeEvent:
    """One feasibility probe (or the terminal result record).

    Attributes
    ----------
    seq:
        0-based position in the trace.
    phase:
        One of :data:`PHASES`.
    t:
        Candidate response time probed (ms); for ``result``, the final
        optimal response time.
    flow:
        Exact integer flow value the probe reached (``|Q|`` when
        feasible).
    feasible:
        Whether the probe proved ``t`` feasible (``flow >= |Q|``).
    pushes, relabels, augmentations:
        Engine operations spent by *this* probe (deltas, not totals).
    wall_s:
        Wall-clock seconds of this probe.
    """

    seq: int
    phase: str
    t: float
    flow: int
    feasible: bool
    pushes: int = 0
    relabels: int = 0
    augmentations: int = 0
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ProbeEvent":
        return cls(
            seq=int(d["seq"]),
            phase=str(d["phase"]),
            t=float(d["t"]),
            # int() accepts legacy JSONL rows that serialized flow as 12.0
            flow=int(d["flow"]),
            feasible=bool(d["feasible"]),
            pushes=int(d.get("pushes", 0)),
            relabels=int(d.get("relabels", 0)),
            augmentations=int(d.get("augmentations", 0)),
            wall_s=float(d.get("wall_s", 0.0)),
        )


@dataclass
class ProbeTrace:
    """An append-only log of :class:`ProbeEvent` for one solve."""

    solver: str = "?"
    events: list[ProbeEvent] = field(default_factory=list)

    # ------------------------------------------------------------------
    def record(
        self,
        *,
        phase: str,
        t: float,
        flow: int,
        feasible: bool,
        pushes: int = 0,
        relabels: int = 0,
        augmentations: int = 0,
        wall_s: float = 0.0,
    ) -> ProbeEvent:
        ev = ProbeEvent(
            seq=len(self.events),
            phase=phase,
            t=float(t),
            flow=int(flow),
            feasible=bool(feasible),
            pushes=int(pushes),
            relabels=int(relabels),
            augmentations=int(augmentations),
            wall_s=float(wall_s),
        )
        self.events.append(ev)
        return ev

    def finish(self, schedule) -> ProbeEvent:
        """Append the terminal ``result`` record for ``schedule``."""
        return self.record(
            phase="result",
            t=schedule.response_time_ms,
            flow=schedule.problem.num_buckets,
            feasible=True,
            wall_s=schedule.stats.wall_time_s,
        )

    # ------------------------------------------------------------------
    def probes(self, phase: str | None = None) -> list[ProbeEvent]:
        """The max-flow probe events (``certified``, ``cut_certified``
        and ``result`` excluded), optionally one phase."""
        return [
            e
            for e in self.events
            if e.phase not in _NOT_PROBES and (phase is None or e.phase == phase)
        ]

    def certified(self) -> list[ProbeEvent]:
        """The midpoints answered from the greedy certificate."""
        return [e for e in self.events if e.phase == "certified"]

    def cut_certified(self) -> list[ProbeEvent]:
        """The points answered infeasible from the stored flow's cut."""
        return [e for e in self.events if e.phase == "cut_certified"]

    @property
    def final(self) -> ProbeEvent:
        if not self.events:
            raise IndexError("empty trace")
        return self.events[-1]

    def totals(self) -> dict[str, int]:
        """Summed per-probe operation deltas (cross-checkable against
        :class:`~repro.core.schedule.SolverStats`)."""
        probes = self.probes()
        return {
            "probes": len(probes),
            "certified": len(self.certified()),
            "cut_certified": len(self.cut_certified()),
            "pushes": sum(e.pushes for e in probes),
            "relabels": sum(e.relabels for e in probes),
            "augmentations": sum(e.augmentations for e in probes),
        }

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ------------------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_events(
        cls, solver: str, events: list[ProbeEvent]
    ) -> "ProbeTrace":
        return cls(solver=solver, events=list(events))


# ----------------------------------------------------------------------
# activation: a context variable read by the scaling skeleton
# ----------------------------------------------------------------------
_ACTIVE: contextvars.ContextVar[ProbeTrace | None] = contextvars.ContextVar(
    "repro_active_probe_trace", default=None
)


def active_trace() -> ProbeTrace | None:
    """The trace probes should record into, or ``None`` (the default)."""
    return _ACTIVE.get()


@contextlib.contextmanager
def capture_probes(trace: ProbeTrace):
    """Route every probe issued inside the block into ``trace``."""
    token = _ACTIVE.set(trace)
    try:
        yield trace
    finally:
        _ACTIVE.reset(token)
