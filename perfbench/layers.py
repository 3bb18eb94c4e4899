"""Per-layer measurement for the traced run.

Each layer is measured from outside, by timing calls into its public
functions on the workload's own inputs:

* ``core.problem``, ``core.network`` and the solver are reached through
  the scheduler service.  While a tracer is installed, the service's
  references to ``RetrievalProblem.from_query``, ``RetrievalNetwork``
  (construction, and ``rebind`` of a cached network) and ``solve`` are
  wrapped in spans, and ``solve`` runs with ``trace=True`` so the
  program's own ``ProbeTrace`` gives the kernel time.
* ``net`` framing and ``fleet.codec`` are timed on the workload's own
  request, reply, problem and schedule messages.
* ``fleet`` hop cost comes from a two-lane ``SolveFleet`` solving the
  workload's problems beside an in-process ``solve`` of the same ones.
"""

from __future__ import annotations

import contextlib
import pickle
from functools import partial
from typing import Any, Iterator

from common import Tracer, mean

#: timing repetitions per message for the sub-millisecond codecs
_REPS = 20


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Any]:
    """Record spans around the service's calls into the core layers.

    Also turns on the program's global solve metrics
    (``repro.obs.enable_metrics``) and yields that registry, so the
    spans can be checked against what production would export.
    """
    import repro.service.scheduler as service_mod
    from repro.core.problem import RetrievalProblem
    from repro.obs import enable_metrics, reset_metrics

    from_query = RetrievalProblem.__dict__["from_query"]
    network_cls = service_mod.RetrievalNetwork
    rebind = network_cls.rebind
    solve_fn = service_mod.solve

    def traced_from_query(cls, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("problem.from_query"):
            return from_query.__func__(cls, *args, **kwargs)

    def traced_network(problem: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("network.build"):
            return network_cls(problem, *args, **kwargs)

    def traced_rebind(self: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("network.rebind"):
            return rebind(self, *args, **kwargs)

    def traced_solve(problem: Any, solver: str = "pr-binary", **kwargs: Any) -> Any:
        with tracer.span("solve") as sp:
            schedule = solve_fn(problem, solver, trace=True, **kwargs)
        stats = schedule.stats
        probes = stats.extra["trace"].probes()
        sp.attrs.update(
            wall_ms=stats.wall_time_s * 1000.0,
            probe_ms=sum(e.wall_s for e in probes) * 1000.0,
            probes=stats.probes,
            increments=stats.increments,
            pushes=stats.pushes,
            relabels=stats.relabels,
        )
        return schedule

    RetrievalProblem.from_query = classmethod(traced_from_query)
    service_mod.RetrievalNetwork = traced_network
    network_cls.rebind = traced_rebind
    service_mod.solve = traced_solve
    registry = reset_metrics()
    enable_metrics(True)
    try:
        yield registry
    finally:
        enable_metrics(False)
        RetrievalProblem.from_query = from_query
        service_mod.RetrievalNetwork = network_cls
        network_cls.rebind = rebind
        service_mod.solve = solve_fn


def registry_problems(tracer: Tracer, registry: Any) -> list[str]:
    """The spans' solve counts must equal the metrics registry's."""
    labels = {"solver": "pr-binary"}
    solves = tracer.named("solve")
    problems = []
    for key in ("solve", "probes", "increments", "pushes", "relabels"):
        metric = registry.get(f"repro_{key}_total", labels)
        got = 0 if metric is None else int(metric.value)
        want = len(solves) if key == "solve" else sum(sp.attrs[key] for sp in solves)
        if got != want:
            problems.append(f"registry repro_{key}_total {got} != spans {want}")
    return problems


def service_layers(
    tracer: Tracer, root: str, min_rid: int = 0
) -> dict[str, tuple[float, str]]:
    """Core and service metrics from the spans under ``root`` submits.

    Times are means per submit, so they add up: ``service.submit_ms``
    splits into probe, other solve, build, from_query and the remainder.
    ``network.build_ms`` counts a cold build or a cache hit's rebind.
    Requests with an id below ``min_rid`` (a cache warm-up) are left out.
    """

    def named(name: str) -> list[Any]:
        return [
            sp for sp in tracer.named(name)
            if isinstance(sp.rid, int) and sp.rid >= min_rid
        ]

    submits = named(root)
    n = max(1, len(submits))
    solves = named("solve")
    s = max(1, len(solves))

    def total(name: str) -> float:
        return sum(sp.ms for sp in named(name))

    def attr(key: str) -> float:
        return float(sum(sp.attrs[key] for sp in solves))

    submit_ms = total(root) / n
    from_query_ms = total("problem.from_query") / n
    build_ms = (total("network.build") + total("network.rebind")) / n
    wall_ms = attr("wall_ms") / n
    probe_ms = attr("probe_ms") / n
    other_ms = wall_ms - probe_ms
    rest_ms = submit_ms - probe_ms - other_ms - build_ms - from_query_ms
    share = (lambda x: x / submit_ms) if submit_ms else (lambda x: 0.0)
    return {
        "problem.from_query_ms": (from_query_ms, "ms"),
        "network.build_ms": (build_ms, "ms"),
        "solve.wall_ms": (wall_ms, "ms"),
        "solve.probe_ms": (probe_ms, "ms"),
        "solve.other_ms": (other_ms, "ms"),
        "solve.probes": (attr("probes") / s, "count"),
        "solve.increments": (attr("increments") / s, "count"),
        "solve.pushes": (attr("pushes") / s, "count"),
        "solve.relabels": (attr("relabels") / s, "count"),
        "service.submit_ms": (submit_ms, "ms"),
        "service.self_ms": (submit_ms - wall_ms, "ms"),
        "breakdown.probe_share": (share(probe_ms), "ratio"),
        "breakdown.other_solve_share": (share(other_ms), "ratio"),
        "breakdown.build_share": (share(build_ms), "ratio"),
        "breakdown.from_query_share": (share(from_query_ms), "ratio"),
        "breakdown.rest_share": (share(rest_ms), "ratio"),
    }


def _time_us(tracer: Tracer, name: str, rid: int, fn: Any, *args: Any) -> float:
    """Mean microseconds per call of ``fn`` over ``_REPS`` calls, as a span."""
    with tracer.span(name, rid, reps=_REPS) as sp:
        for _ in range(_REPS):
            fn(*args)
    return sp.ms * 1000.0 / _REPS


def net_codec(
    tracer: Tracer, queries: list[Any], arrivals: list[float], records: list[Any]
) -> dict[str, tuple[float, str]]:
    """Frame codec cost of the workload's own submit round trips.

    ``encode_us`` and ``decode_us`` cover both directions of one round
    trip: the request frame and the reply frame.
    """
    from repro.net.protocol import (
        FrameDecoder,
        encode_frame,
        make_request,
        ok_response,
        query_to_wire,
        record_to_wire,
    )

    enc: list[float] = []
    dec: list[float] = []
    req_bytes: list[int] = []
    rep_bytes: list[int] = []
    for k, (query, arrival, record) in enumerate(zip(queries, arrivals, records)):
        request = make_request(
            k, "submit", {"query": query_to_wire(query), "arrival_ms": arrival}
        )
        reply = ok_response(k, record_to_wire(record))
        req_frame = encode_frame(request)
        rep_frame = encode_frame(reply)
        enc.append(
            _time_us(tracer, "net.encode_request", k, encode_frame, request)
            + _time_us(tracer, "net.encode_reply", k, encode_frame, reply)
        )
        dec.append(
            _time_us(tracer, "net.decode_request", k, FrameDecoder().feed, req_frame)
            + _time_us(tracer, "net.decode_reply", k, FrameDecoder().feed, rep_frame)
        )
        req_bytes.append(len(req_frame))
        rep_bytes.append(len(rep_frame))
    return {
        "net.encode_us": (mean(enc), "us"),
        "net.decode_us": (mean(dec), "us"),
        "net.request_bytes": (mean(req_bytes), "bytes"),
        "net.reply_bytes": (mean(rep_bytes), "bytes"),
    }


def fleet_layers(tracer: Tracer, problems: list[Any]) -> dict[str, tuple[float, str]]:
    """Codec cost, hop cost, lane skew and crashes of a two-lane fleet.

    The hop is ``SolveFleet.solve`` minus an in-process ``solve`` of the
    same problem; both run cold (no worker cache), and their makespans
    must agree exactly.
    """
    from repro.core.api import solve
    from repro.fleet.codec import (
        FLAT_PAYLOAD_VERSION,
        decode_problem,
        decode_schedule,
        encode_problem,
        encode_schedule,
    )
    from repro.fleet.pool import SolveFleet

    v = FLAT_PAYLOAD_VERSION
    enc_p, dec_p, enc_s, dec_s, p_bytes, s_bytes, hops = ([] for _ in range(7))
    with SolveFleet(2, cache_size=0) as fleet:
        for k, problem in enumerate(problems):
            with tracer.span("fleet.solve", k) as remote_sp:
                remote, _ = fleet.solve(problem)
            with tracer.span("fleet.local_solve", k) as local_sp:
                local = solve(problem)
            if remote.response_time_ms != local.response_time_ms:
                raise AssertionError(
                    f"fleet makespan {remote.response_time_ms} != in-process "
                    f"{local.response_time_ms}"
                )
            hops.append(remote_sp.ms - local_sp.ms)
            p_payload = encode_problem(problem, version=v)
            s_payload = encode_schedule(local, version=v)
            enc_p.append(_time_us(
                tracer, "fleet.encode_problem", k,
                partial(encode_problem, version=v), problem,
            ))
            dec_p.append(_time_us(
                tracer, "fleet.decode_problem", k, decode_problem, p_payload
            ))
            enc_s.append(_time_us(
                tracer, "fleet.encode_schedule", k,
                partial(encode_schedule, version=v), local,
            ))
            dec_s.append(_time_us(
                tracer, "fleet.decode_schedule", k, decode_schedule, s_payload, problem
            ))
            p_bytes.append(len(pickle.dumps(p_payload, protocol=5)))
            s_bytes.append(len(pickle.dumps(s_payload, protocol=5)))
        lanes = list(fleet.solves_per_lane)
        crashes = fleet.crashes
    return {
        "fleet.encode_problem_us": (mean(enc_p), "us"),
        "fleet.decode_problem_us": (mean(dec_p), "us"),
        "fleet.encode_schedule_us": (mean(enc_s), "us"),
        "fleet.decode_schedule_us": (mean(dec_s), "us"),
        "fleet.problem_bytes": (mean(p_bytes), "bytes"),
        "fleet.schedule_bytes": (mean(s_bytes), "bytes"),
        "fleet.hop_ms": (mean(hops), "ms"),
        "fleet.lane_skew": (max(lanes) / mean(lanes), "ratio"),
        "fleet.crashes": (float(crashes), "count"),
    }
