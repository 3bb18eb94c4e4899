"""Shared pieces of the benchmark: host-speed calibration, traffic, spans,
and the subprocesses it starts (set-up probes and servers).

Everything here is the benchmark's own code.  It reaches the program only
through public entry points (``repro serve``, ``SchedulerService``, the
query samplers), so the spans it records sit at layer boundaries seen
from outside.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.workloads.loads import QUERY_LOADS
from repro.workloads.queries import (
    sample_arbitrary_query_of_size,
    sample_range_query_of_size,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; ``nan`` for an empty sample."""
    if not values:
        return float("nan")
    return float(np.quantile(np.asarray(values, dtype=float), q))


def mean(values: list[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def tail_quantile(n: int) -> float:
    """The highest of p99/p95 with at least ten samples beyond it."""
    return 0.99 if n >= 1000 else 0.95


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or of its largest waited child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def _reference_graph() -> tuple[list[list[int]], dict[tuple[int, int], int]]:
    rng = random.Random(7)
    adj = [[rng.randrange(400) for _ in range(6)] for _ in range(400)]
    cap = {(u, v): rng.randrange(1, 9) for u in range(400) for v in adj[u]}
    return adj, cap


_ADJ, _CAP = _reference_graph()


class Calibration:
    """The host's speed, sampled with a fixed pure-Python workload.

    On a shared host the CPU speed drifts by a quarter or more within
    minutes, and every wall time drifts with it.  Timing this frozen
    graph walk (list, dict and integer work, like the solver's)
    interleaved with the measurement gives the speed at the same moment.
    End-to-end times are reported scaled to the speed at which one walk
    takes ``REF_MS``; the raw figures go to the report.  The walk is the
    benchmark's own code, so a change to the program cannot move it.
    """

    REF_MS = 1.0

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: ``time.monotonic()`` at the end of each sample
        self.stamps: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            seen = {0: 0}
            queue = [0]
            i = 0
            while i < len(queue):
                u = queue[i]
                i += 1
                for v in _ADJ[u]:
                    if v not in seen and _CAP[(u, v)] > 2:
                        seen[v] = seen[u] + 1
                        queue.append(v)
        ms = (time.perf_counter() - t0) * 1000.0
        self.samples.append(ms)
        self.stamps.append(time.monotonic())
        return ms

    @property
    def slowness(self) -> float:
        """Mean walk time over ``REF_MS``: above 1 the host ran slow."""
        return mean(self.samples) / self.REF_MS

    def slowness_at(self, when: float, window_s: float = 1.0) -> float:
        """Slowness from the samples within ``window_s`` of ``when``."""
        near = [
            ms for ms, t in zip(self.samples, self.stamps)
            if abs(t - when) <= window_s
        ]
        return mean(near) / self.REF_MS if near else self.slowness

    def time(self, raw: float) -> float:
        return raw / self.slowness

    def rate(self, raw: float) -> float:
        return raw * self.slowness


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Component:
    """One part of a query blend: its share, paper load and query type."""

    share: float
    load: int
    qtype: str


def _size_cdf(load: int, n: int) -> np.ndarray:
    """CDF over bucket counts ``1..n*n`` of the paper's load-2/3 sizes."""
    p_k = QUERY_LOADS[load].k_probabilities(n)
    return np.cumsum(np.repeat(p_k / n, n))


def stratified_queries(
    n: int, count: int, blend: list[Component], rng: np.random.Generator
) -> list[Any]:
    """``count`` queries from ``blend``, shuffled, with stratified sizes.

    Sizes are drawn one per quantile stratum of the load's size
    distribution, so every seed gets the same size profile and a
    different set of buckets.  Without it, the median query size of a
    few hundred draws moves by about ten percent from seed to seed.
    """
    queries: list[Any] = []
    for comp in blend:
        k = int(round(comp.share * count))
        cdf = _size_cdf(comp.load, n)
        u = (np.arange(k) + rng.random(k)) / k
        sizes = np.minimum(np.searchsorted(cdf, u) + 1, n * n)
        for size in sizes:
            size = int(size)
            if comp.qtype == "range":
                band = -(-size // n)
                queries.append(
                    sample_range_query_of_size(n, (band - 1) * n + 1, band * n, rng)
                )
            else:
                queries.append(sample_arbitrary_query_of_size(n, size, rng))
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def poisson_arrivals(
    count: int, mean_gap_ms: float, rng: np.random.Generator
) -> list[float]:
    return [float(t) for t in np.cumsum(rng.exponential(mean_gap_ms, count))]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    sid: int
    name: str
    rid: Any
    parent: int | None
    start_ns: int
    end_ns: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """In-memory spans: name, start, end, parent and request id.

    The parent is carried in a context variable, so spans opened by
    concurrent asyncio tasks nest under their own task's span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    @contextlib.contextmanager
    def span(self, name: str, rid: Any = None, **attrs: Any) -> Iterator[Span]:
        parent = self._current.get()
        if rid is None and parent is not None:
            rid = parent.rid
        sp = Span(
            sid=len(self.spans),
            name=name,
            rid=rid,
            parent=None if parent is None else parent.sid,
            start_ns=time.perf_counter_ns(),
            attrs=dict(attrs),
        )
        self.spans.append(sp)
        token = self._current.set(sp)
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._current.reset(token)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, fh: Any, phase: str) -> None:
        """Append the spans as JSON lines, tagged with ``phase``."""
        for s in self.spans:
            fh.write(
                json.dumps(
                    {
                        "phase": phase,
                        "id": s.sid,
                        "name": s.name,
                        "rid": s.rid,
                        "parent": s.parent,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "attrs": s.attrs,
                    },
                    default=str,
                )
                + "\n"
            )


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    """The environment for every process the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


_READY_CODE = """
import sys
from repro.bench.service_bench import _build_deployment
from repro.service import SchedulerService, ServiceConfig
n, seed, mode = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
svc = SchedulerService(*_build_deployment(n, seed), config=ServiceConfig(mode=mode))
print("ready", flush=True)
"""


class Child:
    """A subprocess whose output goes to a log file under ``OUT``.

    A file rather than a pipe: the child can never block on a full pipe,
    and waiting for its ready line needs no reader thread.
    """

    def __init__(self, args: list[str], ready: str, timeout_s: float = 120.0):
        OUT.mkdir(parents=True, exist_ok=True)
        self.log = OUT / f"child-{os.getpid()}-{time.monotonic_ns()}.log"
        self._calib = Calibration()
        t0 = time.perf_counter()
        with self.log.open("w") as fh:
            self.proc = subprocess.Popen(
                args, stdout=fh, stderr=subprocess.STDOUT,
                env=child_env(), cwd=ROOT,
            )
        try:
            self.match = self._wait(ready, t0 + timeout_s)
        except BaseException:
            self.reap()
            raise
        self.ready_s = time.perf_counter() - t0
        #: the start-up time scaled to the host speed sampled meanwhile
        self.scaled_ready_s = self._calib.time(self.ready_s)

    def _wait(self, pattern: str, deadline: float) -> re.Match:
        while time.perf_counter() < deadline:
            m = re.search(pattern, self.log.read_text(), re.MULTILINE)
            if m:
                return m
            if self.proc.poll() is not None:
                break
            # the waiting parent samples the host speed on the other core
            self._calib.sample()
            time.sleep(0.004)
        raise RuntimeError(
            f"{self.proc.args[:4]} did not print {pattern!r}:\n"
            + self.log.read_text()[-2000:]
        )

    def reap(self, timeout_s: float = 30.0) -> None:
        """Wait for the child to exit, killing it if it does not."""
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.unlink(missing_ok=True)


def inproc_setup(n: int, seed: int, mode: str) -> Child:
    """Start a fresh interpreter that constructs a scheduler, and reap it."""
    child = Child(
        [sys.executable, "-c", _READY_CODE, str(n), str(seed), mode], r"^ready"
    )
    child.reap()
    return child


class Server(Child):
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, n: int, seed: int) -> None:
        args = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--n", str(n), "--seed", str(seed),
            # admission control off: past capacity the backlog grows and
            # shows as latency, so no request of the ladder is shed
            "--max-inflight", "100000",
        ]
        super().__init__(args, r"listening on ([\d.]+):(\d+)")
        self.host, self.port = self.match.group(1), int(self.match.group(2))

    def stop(self) -> None:
        from repro.net.client import SchedulerClient
        from repro.net.errors import NetError

        if self.proc.poll() is None:
            try:
                with SchedulerClient(self.host, self.port) as client:
                    client.shutdown()
            except NetError:
                self.proc.kill()
        self.reap()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def scrape(text: str) -> dict[str, float]:
    """Unlabelled samples of a Prometheus text exposition, by name."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            out[name] = out.get(name, 0.0) + float(value)
    return out
