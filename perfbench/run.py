"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics listed under ``end_to_end``
in ``BENCHMARK.json``; ``--trace 1`` is the separate traced run that
reports the ``per_layer`` metrics and writes its spans to
``perfbench/out/``.  Each run checks its answers against a reference
replay and exits non-zero, with ``"correct": false``, if one differs.
The last line of standard output is the JSON result; the lines before it
are a readable report, also saved with its provenance in
``perfbench/out/``.

End-to-end times and rates are scaled to a reference host speed: a fixed
pure-Python walk (``common.Calibration``) is timed between submits, and
each figure is divided by how much slower than ``REF_MS`` the walk ran
at the time.  On a shared host the CPU speed drifts by a quarter or more
within minutes; the scaled figures drift a few percent.  The unscaled
figures are in the report under ``raw``.

Workloads (parameters live in ``inproc.py`` and ``wire.py``):

``cold-solve``
    in-process ``SchedulerService`` at N=32 per site, a load-2 blend of
    range and arbitrary queries whose signatures never repeat, so every
    submit misses the cache and solving dominates.
``online-churn``
    in-process online scheduler at N=16; a site-0 disk fails every 40
    arrivals and is repaired 15 arrivals later, so departures write into
    cached networks and failures re-plan in-flight work.
``warm-wire``
    ``repro serve --n 8`` over TCP, range viewports from a pool of 32
    signatures: warm solves are about a millisecond, so framing, JSON,
    the executor hop, the service lock and cache rebinds dominate.

The fleet layer (``fleet.codec``, ``SolveFleet`` lanes and workers) is
measured in every traced run, on that workload's own problems.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _settle() -> None:
    """Collect, then exempt everything built so far from collection.

    The inputs (thousands of query objects in the wire streams) would
    otherwise make each full collection pause the load generator for
    tens of milliseconds; what the program allocates while measured is
    still collected as usual.
    """
    gc.collect()
    gc.freeze()


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, or fail."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found next to perfbench/; run this "
            "from the root of a checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    # the benchmark pins its own configuration
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def _provenance(args: argparse.Namespace, params: dict) -> dict[str, Any]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "params": {k: repr(v) for k, v in params.items()},
    }


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
def _inproc(args: argparse.Namespace, params: dict, online: bool) -> dict[str, Any]:
    from common import Server, Tracer, inproc_setup, peak_rss_mb
    from inproc import (
        check_cold,
        check_epochs,
        check_online,
        end_to_end,
        loadgen_layers,
        make_trace,
        online_layers,
        replay,
        run_epochs,
    )
    from layers import instrument, net_codec, registry_problems, service_layers
    from wire import gate

    trace = make_trace(params, args.seed)
    n = trace.n
    # fills the placement memo and runs the first-call paths untimed
    replay(trace, online=online, limit=10)

    def check(epochs: list[Any]) -> list[str]:
        problems = check_epochs(epochs)
        if online:
            return problems + check_online(trace, epochs[0].records)
        return problems + check_cold(trace, epochs[0].records, params["gate_prefix"])

    if not args.trace:
        setup = [
            inproc_setup(n, args.seed, "online" if online else "offline")
            for _ in range(3)
        ]
        _settle()
        epochs = run_epochs(
            lambda: replay(trace, online=online, calibrate=True), args.seconds
        )
        out = end_to_end(epochs)
        # read before the gate, whose replay is the benchmark's own work
        rss_mb = peak_rss_mb(children=False)
        out["problems"] = check(epochs)
        out["setup_samples_s"] = [c.ready_s for c in setup]
        out["metrics"] = {
            "setup_s": (statistics.median(c.scaled_ready_s for c in setup), "s"),
            "throughput_qps": (out["throughput_qps"], "1/s"),
            "latency_p50_ms": (out["latency_p50_ms"], "ms"),
            "latency_p95_ms": (out["latency_p95_ms"], "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        return out

    root = "online.submit" if online else "service.submit"
    main = Tracer()
    _settle()
    plain = run_epochs(
        lambda: replay(trace, online=online, calibrate=True), args.seconds / 2
    )
    with instrument(main) as registry:
        traced = run_epochs(
            lambda: replay(trace, main, online=online, calibrate=True),
            args.seconds / 2,
        )
    problems = check(plain + traced) + registry_problems(main, registry)
    layers = service_layers(main, root)
    layers.update(loadgen_layers(traced))
    counts = traced[0].counts
    lookups = counts["cache_hits"] + counts["cache_misses"]
    layers["service.cache_hit_ratio"] = (counts["cache_hits"] / lookups, "ratio")
    layers["service.cache_lookups"] = (float(lookups), "count")
    layers["service.cache_evictions"] = (float(counts["cache_evictions"]), "count")
    layers["trace.overhead_ratio"] = (
        end_to_end(traced)["latency_p50_ms"] / end_to_end(plain)["latency_p50_ms"]
        - 1.0,
        "ratio",
    )

    prefix = 16
    tracers = {"main": main, "wire": Tracer(), "online": Tracer(), "codec": Tracer()}
    with Server(n, args.seed) as srv:
        found, info = gate(srv, n, args.seed, trace.queries[:prefix], tracers["wire"])
    problems += found
    layers.update(info["layers"])
    layers["net.shed"] = (0.0, "count")
    layers.update(net_codec(
        tracers["codec"], trace.queries[:prefix], info["arrivals"], info["records"]
    ))
    if online:
        layers.update(online_layers(traced[0], main))
    problems += _probe_layers(layers, tracers, trace, probe_online=not online)
    return {"problems": problems, "metrics": layers, "tracers": tracers,
            "attempted": sum(ep.attempted for ep in traced),
            "failed": sum(len(ep.errors) for ep in traced),
            "counts": counts}


def _probe_layers(
    layers: dict, tracers: dict, trace: Any, *, probe_online: bool, count: int = 16
) -> list[str]:
    """Layers a workload does not cross, measured on its first queries.

    The fleet layer always (a two-lane ``SolveFleet`` on fresh problems);
    the online layer when ``probe_online`` (one site-0 failure and repair,
    checked against offline re-solves).  Returns the problems found.
    """
    from inproc import check_online, online_layers, probe_trace, replay
    from layers import fleet_layers
    from repro.bench.service_bench import _build_deployment
    from repro.core.problem import RetrievalProblem

    system, placement = _build_deployment(trace.n, trace.seed)
    fresh = [
        RetrievalProblem.from_query(system, placement, q.buckets())
        for q in trace.queries[:count]
    ]
    layers.update(fleet_layers(tracers["codec"], fresh))
    if not probe_online:
        return []
    probe = probe_trace(trace, count)
    ep = replay(probe, tracers["online"], online=True)
    layers.update(online_layers(ep, tracers["online"]))
    return check_online(probe, ep.records)


# ----------------------------------------------------------------------
# wire workloads
# ----------------------------------------------------------------------
def _wire(args: argparse.Namespace, params: dict) -> dict[str, Any]:
    import asyncio

    from common import Server, Tracer, peak_rss_mb
    from inproc import Trace
    from layers import instrument, net_codec, registry_problems, service_layers
    from wire import Traffic, _open_loop, gate, measure, server_counters

    n = params["n"]
    traffic = Traffic(params, args.seed)
    warm = len(traffic.pool)
    # the gate passes over the pool once (filling the cache), then
    # replays the head of the request stream
    gate_queries = traffic.pool + traffic.queries[: params["gate_prefix"]]

    def warm_up(srv: Server) -> None:
        from repro.net.client import SchedulerClient

        with SchedulerClient(srv.host, srv.port) as client:
            for q in traffic.pool:
                client.submit(q)

    if not args.trace:
        with Server(n, args.seed) as fresh:
            problems, _ = gate(fresh, n, args.seed, gate_queries)
        with Server(n, args.seed) as spare:
            pass  # a third start-up, for the set-up median
        with Server(n, args.seed) as srv:
            warm_up(srv)
            _settle()
            out = measure(srv, traffic, params, args.seconds)
        setup = [fresh, spare, srv]
        out["problems"] = problems
        out["setup_samples_s"] = [c.ready_s for c in setup]
        out["metrics"] = {
            "setup_s": (statistics.median(c.scaled_ready_s for c in setup), "s"),
            "throughput_qps": (out["throughput_qps"], "1/s"),
            "latency_p50_ms": (out["latency_p50_ms"], "ms"),
            "latency_p95_ms": (out["latency_p95_ms"], "ms"),
            "peak_rss_mb": (peak_rss_mb(children=True), "MB"),
        }
        return out

    tracers = {"wire": Tracer(), "main": Tracer(), "online": Tracer(), "codec": Tracer()}
    rate = params["ladder"][0]
    with Server(n, args.seed) as srv:
        warm_up(srv)
        _settle()
        plain = asyncio.run(_open_loop(srv, traffic, rate, args.seconds / 2))
        traced = asyncio.run(
            _open_loop(srv, traffic, rate, args.seconds / 2, tracers["wire"])
        )
        counters = server_counters(srv)
    main = tracers["main"]
    with Server(n, args.seed) as fresh, instrument(main) as registry:
        problems, info = gate(fresh, n, args.seed, gate_queries, main)
    problems += registry_problems(main, registry)
    layers = service_layers(main, "service.submit", min_rid=warm)
    layers.update(info["layers"])
    layers["net.shed"] = (counters["shed"], "count")
    layers["loadgen.lag_p99_ms"] = (traced.lag_p99_ms, "ms")
    layers["loadgen.inflight_max"] = (float(traced.inflight_max), "count")
    layers["service.cache_hit_ratio"] = (
        counters["cache_hits"] / counters["queries"], "ratio"
    )
    layers["service.cache_lookups"] = (counters["queries"], "count")
    layers["service.cache_evictions"] = (counters["evictions"], "count")
    layers["trace.overhead_ratio"] = (
        traced.p50_ms / plain.p50_ms - 1.0,
        "ratio",
    )
    layers.update(net_codec(
        tracers["codec"], gate_queries, info["arrivals"], info["records"]
    ))
    sample = Trace(n, args.seed, gate_queries[warm:], info["arrivals"][warm:])
    problems += _probe_layers(layers, tracers, sample, probe_online=True)
    return {"problems": problems, "metrics": layers, "tracers": tracers,
            "attempted": traced.sent, "failed": len(traced.errors),
            "counts": counters}


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    _bootstrap()
    import inproc
    import wire
    from common import OUT

    params = {
        "cold-solve": inproc.COLD,
        "online-churn": inproc.ONLINE,
        "warm-wire": wire.WARM,
    }[args.workload]
    t0 = time.perf_counter()
    if args.workload == "warm-wire":
        out = _wire(args, params)
    else:
        out = _inproc(args, params, online=args.workload == "online-churn")
    wall = time.perf_counter() - t0

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    produced = out.pop("metrics")
    metrics = {}
    for m in wanted:
        value, unit = produced[m["name"]]
        if unit != m["unit"]:
            raise AssertionError(f"{m['name']}: unit {unit} != {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    problems = out.pop("problems")
    tracers = out.pop("tracers", {})
    result = {
        "correct": not problems,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    if tracers:
        spans = OUT / f"spans-{tag}.jsonl"
        with spans.open("w") as fh:
            for phase, tracer in tracers.items():
                tracer.write(fh, phase)
        out["spans_file"] = str(spans.relative_to(ROOT))
    report = {
        "provenance": _provenance(args, params),
        "wall_s": wall,
        "problems": problems,
        "result": result,
        "detail": out,
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n"
    )
    print(f"perfbench {tag}: {wall:.1f} s, report in perfbench/out/result-{tag}.json")
    print(f"  provenance {json.dumps(report['provenance'])}")
    for name, (value, unit) in sorted(produced.items()):
        print(f"  {name:32s} {value:14.6g} {unit}")
    for key in ("max_rate_qps", "error_rate", "replan_p50_ms", "latency_p99_ms"):
        if key in out:
            print(f"  {key:32s} {out[key]:14.6g}")
    if "raw" in out:
        print(f"  unscaled {json.dumps(out['raw'])}, slowness {out['slowness']}")
    if args.trace:
        shares = " ".join(
            f"{part} {100 * produced[f'breakdown.{part}_share'][0]:.1f}%"
            for part in ("probe", "other_solve", "build", "from_query", "rest")
        )
        print(
            f"  submit {produced['service.submit_ms'][0]:.3f} ms = {shares}"
        )
    for row in out.get("ladder", []):
        print("  ladder " + json.dumps(row))
    print(f"  counts {json.dumps(out.get('counts'))}")
    for p in problems:
        print(f"  WRONG ANSWER: {p}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
