"""Command-line interface.

::

    repro list                         # solvers, figures, experiments
    repro figure fig09 [--seed 0]      # regenerate a paper figure
    repro solve --experiment 5 --scheme orthogonal --n 10 \\
                --qtype arbitrary --load 1 --solver pr-binary
    repro compare --experiment 5 --n 8 --queries 5   # all solvers, timed

Scale knobs are environment variables (see ``repro.bench``):
``REPRO_BENCH_FULL=1`` for paper scale, ``REPRO_BENCH_NS``,
``REPRO_BENCH_QUERIES`` for custom sweeps.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Integrated maximum flow algorithms for optimal response time "
            "retrieval of replicated data (ICPP 2012 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list solvers, figures and experiments")

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("figure_id", help="fig05..fig10, headline, table3")
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--output", metavar="FILE.json", default=None,
                       help="also save the series as JSON")

    p_show = sub.add_parser(
        "show-allocation", help="render a replicated allocation (Figure 2)"
    )
    p_show.add_argument("--scheme", default="orthogonal",
                        choices=("rda", "dependent", "orthogonal"))
    p_show.add_argument("--n", type=int, default=7, help="grid side / disks per site")
    p_show.add_argument("--sites", type=int, default=2)
    p_show.add_argument("--seed", type=int, default=0)
    p_show.add_argument("--query", metavar="i,j,r,c", default=None,
                        help="overlay a range query, e.g. 0,0,3,2")

    p_solve = sub.add_parser("solve", help="schedule one random query")
    p_solve.add_argument("--experiment", type=int, default=5, choices=range(1, 6))
    p_solve.add_argument("--scheme", default="orthogonal",
                         choices=("rda", "dependent", "orthogonal"))
    p_solve.add_argument("--n", type=int, default=8, help="disks per site")
    p_solve.add_argument("--qtype", default="arbitrary",
                         choices=("range", "arbitrary"))
    p_solve.add_argument("--load", type=int, default=1, choices=(1, 2, 3))
    p_solve.add_argument("--solver", default="pr-binary")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--explain", action="store_true",
                         help="print the min-cut bottleneck explanation")
    p_solve.add_argument("--metrics", metavar="FILE.prom", default=None,
                         help="write solve metrics in Prometheus text "
                              "exposition format")
    p_solve.add_argument("--trace", metavar="FILE.jsonl", default=None,
                         help="record the probe trace and write it as "
                              "JSON lines")

    p_cmp = sub.add_parser("compare", help="time all solvers on one point")
    p_cmp.add_argument("--experiment", type=int, default=5, choices=range(1, 6))
    p_cmp.add_argument("--scheme", default="orthogonal",
                       choices=("rda", "dependent", "orthogonal"))
    p_cmp.add_argument("--n", type=int, default=8, help="disks per site")
    p_cmp.add_argument("--qtype", default="arbitrary",
                       choices=("range", "arbitrary"))
    p_cmp.add_argument("--load", type=int, default=1, choices=(1, 2, 3))
    p_cmp.add_argument("--queries", type=int, default=5)
    p_cmp.add_argument("--seed", type=int, default=0)

    p_rep = sub.add_parser(
        "replay", help="replay a synthetic query trace with evolving loads"
    )
    p_rep.add_argument("--experiment", type=int, default=5, choices=range(1, 6))
    p_rep.add_argument("--scheme", default="orthogonal",
                       choices=("rda", "dependent", "orthogonal"))
    p_rep.add_argument("--n", type=int, default=8, help="disks per site")
    p_rep.add_argument("--trace", default="poisson",
                       choices=("poisson", "session"))
    p_rep.add_argument("--queries", type=int, default=20)
    p_rep.add_argument("--interarrival-ms", type=float, default=20.0)
    p_rep.add_argument("--solver", default="pr-binary")
    p_rep.add_argument("--baseline", default="greedy-finish-time",
                       help="second scheduler to replay for comparison")
    p_rep.add_argument("--seed", type=int, default=0)

    p_an = sub.add_parser(
        "analyze", help="response-time / decision-overhead / work studies"
    )
    p_an.add_argument("study", choices=("response", "decision", "work",
                                        "replication", "schemes"))
    p_an.add_argument("--experiment", type=int, default=5, choices=range(1, 6))
    p_an.add_argument("--scheme", default="orthogonal",
                      choices=("rda", "dependent", "orthogonal"))
    p_an.add_argument("--n", type=int, default=8, help="disks per site")
    p_an.add_argument("--qtype", default="arbitrary",
                      choices=("range", "arbitrary"))
    p_an.add_argument("--load", type=int, default=1, choices=(1, 2, 3))
    p_an.add_argument("--queries", type=int, default=20)
    p_an.add_argument("--seed", type=int, default=0)

    p_diff = sub.add_parser(
        "bench-diff",
        help="compare two saved benchmark JSONs (figure or "
             "pytest-benchmark format) for regressions",
    )
    p_diff.add_argument("before", help="baseline results JSON")
    p_diff.add_argument("after", help="candidate results JSON")
    p_diff.add_argument("--tolerance", type=float, default=0.25,
                        help="relative change to flag (default 0.25)")
    p_diff.add_argument("--fail-on", default="both",
                        choices=("both", "slower"),
                        help="flag any move, or slowdowns only (CI gate)")

    p_mat = sub.add_parser(
        "matrix", help="sweep the full experiment grid (Table IV x workloads)"
    )
    p_mat.add_argument("--experiments", default="1,5",
                       help="comma-separated experiment numbers")
    p_mat.add_argument("--schemes", default="rda,dependent,orthogonal")
    p_mat.add_argument("--qtypes", default="range,arbitrary")
    p_mat.add_argument("--loads", default="1,2,3")
    p_mat.add_argument("--ns", default="8", help="comma-separated N values")
    p_mat.add_argument("--queries", type=int, default=5)
    p_mat.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve",
        help="serve the scheduler over TCP (asyncio RPC front end)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7411,
                         help="TCP port (0 picks an ephemeral port and "
                              "prints it)")
    p_serve.add_argument("--scheme", default="orthogonal",
                         choices=("rda", "dependent", "orthogonal"))
    p_serve.add_argument("--n", type=int, default=6, help="disks per site")
    p_serve.add_argument("--solver", default="pr-binary")
    p_serve.add_argument("--cache-size", type=int, default=64)
    p_serve.add_argument("--batch-window-ms", type=float, default=0.0)
    p_serve.add_argument("--workers", type=int, default=1,
                         help="solve-fleet worker processes (with the "
                              "process backend); >1 implies "
                              "--solve-backend process")
    p_serve.add_argument("--solve-backend", default=None,
                         choices=("thread", "process"),
                         help="where solves run (default: thread, or the "
                              "REPRO_SOLVE_BACKEND env var; process when "
                              "--workers > 1)")
    p_serve.add_argument("--mode", default="offline",
                         choices=("offline", "online"),
                         help="scheduling mode; online runs the "
                              "continuous-time scheduler on the wall "
                              "clock (transfers drain as it passes them)")
    p_serve.add_argument("--max-predicted-ms", type=float, default=None,
                         help="online mode: shed arrivals whose predicted "
                              "response time exceeds this target")
    p_serve.add_argument("--max-inflight", type=int, default=32,
                         help="admission-control capacity; beyond it "
                              "requests are shed with OVERLOADED")
    p_serve.add_argument("--retry-after-ms", type=float, default=50.0,
                         help="retry hint attached to shed responses")
    p_serve.add_argument("--seed", type=int, default=0)

    p_req = sub.add_parser(
        "request",
        help="send one RPC to a running `repro serve`",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "retry semantics (at-most-once submit):\n"
            "  --retries re-sends idempotent ops (health, stats, metrics,\n"
            "  mark-failed, mark-repaired, shutdown) after any transient\n"
            "  failure, and re-sends a submit only when the connection was\n"
            "  refused outright (the request provably never left this\n"
            "  machine).  A submit whose connection drops -- or whose\n"
            "  --timeout-ms expires -- after the frame is on the wire may\n"
            "  already have been executed by the server, so it is NEVER\n"
            "  retried automatically; re-run it yourself only if a\n"
            "  duplicate schedule is acceptable."
        ),
    )
    p_req.add_argument("op", choices=("submit", "health", "stats", "metrics",
                                      "mark-failed", "mark-repaired",
                                      "shutdown"))
    p_req.add_argument("--host", default="127.0.0.1")
    p_req.add_argument("--port", type=int, default=7411)
    p_req.add_argument("--coords", default=None,
                       help="submit: buckets as 'i,j;i,j;...'")
    p_req.add_argument("--range", dest="range_q", metavar="i,j,r,c,N",
                       default=None, help="submit: a range query instead")
    p_req.add_argument("--disks", default=None,
                       help="mark-failed/mark-repaired: disk ids '0,3'")
    p_req.add_argument("--timeout-ms", "--deadline-ms", dest="deadline_ms",
                       type=float, default=5000.0,
                       help="overall per-request deadline")
    p_req.add_argument("--retries", "--attempts", dest="attempts", type=int,
                       default=4,
                       help="max attempts for transient errors "
                            "(see the retry-semantics note below)")
    p_req.add_argument("--json", action="store_true",
                       help="print the raw result payload as JSON")

    from repro.lint import rule_catalog as _rule_catalog

    p_lint = sub.add_parser(
        "lint", help="project-specific static analysis (see repro.lint)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="rules (pass ids to --rules, comma-separated):\n"
               + "\n".join(f"  {name:24s} {desc}"
                           for name, desc in _rule_catalog()),
    )
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories (default: src/repro)")
    p_lint.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json", "sarif"),
                        help="report format (sarif for code-scanning upload)")
    p_lint.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run (default: all; "
                             "see the list below)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog (sorted by id) and exit")
    p_lint.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="parse/check threads (0 = auto, 1 = serial)")
    p_lint.add_argument("--output", default=None, metavar="FILE",
                        help="write the report to FILE instead of stdout")
    p_lint.add_argument("--baseline", default=None, metavar="FILE",
                        help="baseline file of audited findings (default: "
                             "<repo>/lint-baseline.json when linting the "
                             "default tree); matching findings are "
                             "suppressed, stale entries fail the run")
    p_lint.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="regenerate the baseline from current findings "
                             "and exit 0")
    p_lint.add_argument("--runtime-json", default=None, metavar="FILE",
                        help="write {lint_runtime_s, findings, "
                             "stale_baseline_entries, jobs} metrics to FILE "
                             "(CI artifact)")

    p_prof = sub.add_parser(
        "profile", help="cProfile a solver on a workload point"
    )
    p_prof.add_argument("--solver", default="pr-binary")
    p_prof.add_argument("--experiment", type=int, default=5, choices=range(1, 6))
    p_prof.add_argument("--scheme", default="orthogonal",
                        choices=("rda", "dependent", "orthogonal"))
    p_prof.add_argument("--n", type=int, default=12, help="disks per site")
    p_prof.add_argument("--qtype", default="arbitrary",
                        choices=("range", "arbitrary"))
    p_prof.add_argument("--load", type=int, default=1, choices=(1, 2, 3))
    p_prof.add_argument("--queries", type=int, default=6)
    p_prof.add_argument("--top", type=int, default=15)
    p_prof.add_argument("--sort", default="cumulative")
    p_prof.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_list() -> int:
    from repro.bench.figures import FIGURES
    from repro.core.api import SOLVERS
    from repro.workloads.experiments import EXPERIMENTS

    print("solvers:")
    for name in SOLVERS:
        print(f"  {name}")
    print("figures:")
    for name in FIGURES:
        print(f"  {name}")
    print("experiments (Table IV):")
    for cfg in EXPERIMENTS.values():
        print(f"  {cfg.describe()}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench.figures import FIGURES

    try:
        driver = FIGURES[args.figure_id]
    except KeyError:
        print(
            f"unknown figure {args.figure_id!r}; choose from {sorted(FIGURES)}",
            file=sys.stderr,
        )
        return 2
    if args.figure_id == "table3":
        result = driver()
    else:
        result = driver(seed=args.seed)
    print(result.render())
    if getattr(args, "output", None):
        from repro.bench.persistence import save_figure

        path = save_figure(result, args.output)
        print(f"series saved to {path}")
    return 0


def _cmd_show_allocation(args: argparse.Namespace) -> int:
    from repro.decluster import (
        make_placement,
        render_query_overlay,
        render_replicated,
    )
    from repro.workloads.queries import RangeQuery

    rng = np.random.default_rng(args.seed)
    placement = make_placement(
        args.scheme, args.n, num_sites=args.sites, rng=rng, seed=args.seed
    )
    alloc = placement.allocation
    titles = [
        f"copy {k + 1} (site {k + 1}, disks "
        f"{k * args.n}-{(k + 1) * args.n - 1})"
        for k in range(alloc.num_copies)
    ]
    print(f"{args.scheme} allocation, {args.n}x{args.n} grid, "
          f"{placement.total_disks} disks over {placement.num_sites} sites")
    if args.query:
        try:
            i, j, r, c = (int(x) for x in args.query.split(","))
        except ValueError:
            print("--query expects i,j,r,c", file=sys.stderr)
            return 2
        q = RangeQuery(i, j, r, c, args.n)
        buckets = set(q.buckets())
        for k, copy in enumerate(alloc.copies):
            print(render_query_overlay(copy, buckets, title=titles[k]))
            print()
        print(f"query ({i},{j},{r},{c}): {len(buckets)} buckets "
              f"([d] marks requested cells)")
    else:
        print(render_replicated(alloc, titles=titles))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.core.api import solve
    from repro.workloads.experiments import EXPERIMENTS, build_problem

    rng = np.random.default_rng(args.seed)
    problem = build_problem(
        args.experiment, args.scheme, args.n, args.qtype, args.load, rng
    )
    registry = None
    if args.metrics:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    schedule = solve(
        problem,
        solver=args.solver,
        trace=bool(args.trace),
        registry=registry,
    )
    print(EXPERIMENTS[args.experiment].describe())
    print(
        f"query: {problem.num_buckets} buckets ({args.qtype}, load "
        f"{args.load}), scheme {args.scheme}, N={args.n}/site"
    )
    print(schedule.summary())
    st = schedule.stats
    print(
        f"search: {st.probes} max-flow probes, {st.certified} certified "
        f"feasible, {st.cut_certified} cut-certified infeasible, "
        f"{st.increments} increments"
    )
    print(f"wall time: {schedule.stats.wall_time_s * 1000:.3f} ms")
    counts = schedule.counts_per_disk()
    print("per-disk bucket counts:", counts)
    if args.explain:
        from repro.core import explain_schedule

        print()
        print(explain_schedule(problem, schedule).render(problem))
    if args.trace:
        from repro.obs import write_trace_jsonl

        tr = schedule.stats.extra["trace"]
        write_trace_jsonl(tr, args.trace)
        print(f"probe trace ({len(tr)} events) written to {args.trace}")
    if args.metrics:
        from repro.obs import write_prometheus

        write_prometheus(registry, args.metrics)
        print(f"metrics written to {args.metrics}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_point
    from repro.bench.reporting import format_table

    solvers = ["ff-incremental", "pr-incremental", "pr-binary",
               "blackbox-binary", "parallel-binary"]
    point = run_point(
        args.experiment, args.scheme, args.qtype, args.load, args.n,
        solvers, n_queries=args.queries, seed=args.seed,
    )
    rows = [
        [name, f"{t.mean_ms:.3f}", f"{t.mean_response_ms:.2f}"]
        for name, t in point.timings.items()
    ]
    print(format_table(
        ["solver", "mean runtime (ms/query)", "mean response (ms)"], rows
    ))
    print("(all solvers cross-checked to return identical optima)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.decluster import make_placement
    from repro.service import SchedulerService, ServiceConfig
    from repro.storage import poisson_trace, session_trace
    from repro.workloads.experiments import build_system

    rng = np.random.default_rng(args.seed)
    placement = make_placement(args.scheme, args.n, num_sites=2, rng=rng)
    if args.trace == "poisson":
        events = poisson_trace(
            args.n, args.queries, args.interarrival_ms, rng
        )
    else:
        per_session = max(1, args.queries // 4)
        events = session_trace(args.n, 4, per_session, rng)

    print(f"trace: {args.trace}, {len(events)} queries, scheme "
          f"{args.scheme}, N={args.n}/site, experiment {args.experiment}")
    for solver_name in (args.solver, args.baseline):
        system = build_system(args.experiment, args.n,
                              np.random.default_rng(args.seed))
        config = ServiceConfig(
            solver=solver_name, cache_size=0, solve_backend="thread"
        )
        svc = SchedulerService(system, placement, config)
        for ev in events:
            svc.submit(ev.buckets, arrival_ms=ev.arrival_ms)
        stats = svc.stats()
        print(f"  {solver_name:20} mean response "
              f"{stats.mean_response_ms:9.2f} ms, max "
              f"{stats.max_response_ms:9.2f} ms")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table

    common = dict(n_queries=args.queries, seed=args.seed)
    if args.study == "response":
        from repro.analysis import response_time_study

        s = response_time_study(args.experiment, args.scheme, args.n,
                                args.qtype, args.load, **common)
        print(format_table(
            ["n", "mean (ms)", "median", "p95", "max"],
            [[s.n, s.mean, s.median, s.p95, s.max]],
        ))
    elif args.study == "schemes":
        from repro.analysis import scheme_comparison

        out = scheme_comparison(args.experiment, args.n, args.qtype,
                                args.load, **common)
        print(format_table(
            ["scheme", "mean (ms)", "median", "p95", "max"],
            [[k, v.mean, v.median, v.p95, v.max] for k, v in out.items()],
        ))
    elif args.study == "replication":
        from repro.analysis import replication_gain_study

        out = replication_gain_study(args.experiment, args.scheme, args.n,
                                     args.qtype, args.load, **common)
        print(format_table(
            ["copies", "mean (ms)", "max (ms)"],
            [[k, v.mean, v.max] for k, v in out.items()],
        ))
    elif args.study == "decision":
        from repro.analysis import decision_overhead_study

        out = decision_overhead_study(args.experiment, args.scheme, args.n,
                                      args.qtype, args.load, **common)
        print(format_table(
            ["solver", "decision (ms)", "response (ms)", "overhead"],
            [[k, v.mean_decision_ms, v.mean_response_ms,
              f"{100 * v.overhead_fraction:.1f}%"] for k, v in out.items()],
        ))
    else:  # work
        from repro.analysis import work_profile_study

        out = work_profile_study(args.experiment, args.scheme, args.n,
                                 args.qtype, args.load, **common)
        print(format_table(
            ["solver", "probes", "certified", "cut certified",
             "increments", "pushes", "relabels", "augments"],
            [[k, v.probes, v.certified, v.cut_certified, v.increments,
              v.pushes, v.relabels, v.augmentations]
             for k, v in out.items()],
        ))
    return 0


def _build_serve_service(args: argparse.Namespace):
    from repro.decluster.multisite import make_placement
    from repro.service import SchedulerService, ServiceConfig
    from repro.storage.system import StorageSystem

    rng = np.random.default_rng(args.seed)
    placement = make_placement(args.scheme, args.n, num_sites=2, rng=rng)
    system = StorageSystem.from_groups(
        ["ssd+hdd", "ssd+hdd"], args.n, delays_ms=[1.0, 4.0], rng=rng
    )

    backend = args.solve_backend
    if backend is None and args.workers > 1:
        backend = "process"
    online = None
    if args.mode == "online":
        from repro.online.config import OnlineConfig

        online = OnlineConfig(
            clock="wall",
            max_predicted_response_ms=args.max_predicted_ms,
        )
    config = ServiceConfig(
        solver=args.solver,
        cache_size=args.cache_size,
        batch_window_ms=args.batch_window_ms,
        solve_backend=backend,
        fleet_workers=args.workers,
        mode=args.mode,
        online=online,
    )
    return SchedulerService(system, placement, config=config)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net import ServerConfig, serve

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.mode == "online" and args.batch_window_ms > 0:
        print(
            "--mode online is incompatible with --batch-window-ms "
            "(arrivals are admitted individually on the event clock)",
            file=sys.stderr,
        )
        return 2
    service = _build_serve_service(args)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        retry_after_ms=args.retry_after_ms,
    )

    backend = service.solve_backend

    def ready(server):
        print(
            f"repro serve: listening on {server.host}:{server.port} "
            f"(N={args.n}/site, scheme "
            f"{args.scheme}, solver {args.solver}, backend {backend}"
            f"{f' x{args.workers}' if backend == 'process' else ''}, "
            f"max in-flight {args.max_inflight})",
            flush=True,
        )

    try:
        stats = asyncio.run(serve(service, config, ready=ready))
    finally:
        service.close()
    print(
        f"repro serve: drain complete: {stats.queries} queries, "
        f"{stats.degraded_queries} degraded, mean response "
        f"{stats.mean_response_ms:.2f} ms, p95 {stats.p95_response_ms:.2f} ms",
        flush=True,
    )
    return 0


def _int_tuple(flag: str, text: str, arity: int) -> tuple[int, ...]:
    """``text`` as ``arity`` comma-separated integers; a ``ValueError``
    that names ``flag`` and the bad text otherwise."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = ()
    if len(values) != arity:
        raise ValueError(
            f"{flag}: expected {arity} comma-separated integers, got {text!r}"
        )
    return values


def _parse_request_query(args: argparse.Namespace):
    from repro.workloads.queries import RangeQuery

    if (args.coords is None) == (args.range_q is None):
        raise ValueError("submit needs exactly one of --coords / --range")
    if args.coords is not None:
        return [
            _int_tuple("--coords", pair, 2) for pair in args.coords.split(";")
        ]
    return RangeQuery(*_int_tuple("--range", args.range_q, 5))


def _cmd_request(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.net import NetError, RetryPolicy, SchedulerClient

    try:
        query = (
            _parse_request_query(args) if args.op == "submit" else None
        )
        disks = (
            [int(x) for x in args.disks.split(",")]
            if args.disks is not None
            else None
        )
    except ValueError as exc:
        print(f"repro request: {exc}", file=sys.stderr)
        return 2
    if args.op in ("mark-failed", "mark-repaired") and not disks:
        print(f"repro request: {args.op} needs --disks", file=sys.stderr)
        return 2

    try:
        with SchedulerClient(
            args.host,
            args.port,
            deadline_ms=args.deadline_ms,
            retry=RetryPolicy(attempts=max(1, args.attempts)),
        ) as client:
            if args.op == "submit":
                record = client.submit(query)
                if args.json:
                    out = dataclasses.asdict(record)
                    out["assignment"] = [
                        [list(k) if isinstance(k, tuple) else k, v]
                        for k, v in record.assignment.items()
                    ]
                    out["query"] = None
                    print(json.dumps(out, indent=2, sort_keys=True))
                else:
                    print(
                        f"scheduled {record.num_buckets} buckets: response "
                        f"{record.response_time_ms:.2f} ms, decision "
                        f"{record.decision_time_ms:.3f} ms, degraded "
                        f"{record.degraded}"
                    )
                    for label, disk in sorted(record.assignment.items()):
                        print(f"  bucket {label} -> disk {disk}")
            elif args.op == "metrics":
                print(client.metrics_text(), end="")
            elif args.op == "mark-failed":
                client.mark_failed(disks)
                print(f"marked failed: disks {disks}")
            elif args.op == "mark-repaired":
                client.mark_repaired(disks)
                print(f"marked repaired: disks {disks}")
            elif args.op == "shutdown":
                client.shutdown()
                print("server draining")
            else:  # health / stats
                result = (
                    client.health() if args.op == "health" else client.stats()
                )
                print(json.dumps(result, indent=2, sort_keys=True))
    except NetError as exc:
        print(f"repro request: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time
    from pathlib import Path

    from repro.lint import (
        apply_baseline,
        format_report,
        lint_repo,
        load_baseline,
        rule_catalog,
        write_baseline,
    )
    from repro.lint.runner import find_repo_root

    if args.list_rules:
        for name, description in rule_catalog():
            print(f"{name:24s} {description}")
        return 0
    select = [r.strip() for r in args.rules.split(",") if r.strip()] \
        if args.rules else None
    t0 = _time.perf_counter()
    try:
        findings = lint_repo(
            paths=args.paths or None, select=select, jobs=args.jobs
        )
    except ValueError as exc:  # unknown --rules name
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    runtime_s = _time.perf_counter() - t0

    # resolve the baseline: explicit flag wins; the checked-in default
    # applies only to full-tree runs (path-scoped runs would mark every
    # out-of-scope entry stale)
    baseline_path = None
    if not args.no_baseline and not args.write_baseline:
        if args.baseline:
            baseline_path = Path(args.baseline)
        elif not args.paths:
            candidate = find_repo_root() / "lint-baseline.json"
            if candidate.exists():
                baseline_path = candidate

    if args.write_baseline:
        target = Path(args.baseline) if args.baseline \
            else find_repo_root() / "lint-baseline.json"
        write_baseline(findings, target)
        print(f"repro lint: wrote {len(findings)} entr"
              f"{'y' if len(findings) == 1 else 'ies'} to {target}")
        return 0

    stale = []
    if baseline_path is not None:
        try:
            entries = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        findings, stale = apply_baseline(findings, entries)

    report = format_report(findings, args.fmt)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    for entry in stale:
        print(
            f"repro lint: stale baseline entry ({entry['rule']} at "
            f"{entry['path']}:{entry.get('line', '*')}) — the finding is "
            "fixed, delete the suppression",
            file=sys.stderr,
        )
    if args.runtime_json:
        Path(args.runtime_json).write_text(
            _json.dumps(
                {
                    "lint_runtime_s": round(runtime_s, 3),
                    "findings": len(findings),
                    "stale_baseline_entries": len(stale),
                    "jobs": args.jobs,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
    return 1 if findings or stale else 0


def main(argv: list[str] | None = None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # output piped into a pager/head that closed early: normal exit
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        os._exit(0)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "show-allocation":
        return _cmd_show_allocation(args)
    if args.command == "bench-diff":
        from repro.bench.persistence import figure_from_dict
        from repro.bench.regression import (
            compare_benchmark_json,
            compare_figures,
            format_deltas,
            load_benchmark_json,
        )

        before = load_benchmark_json(args.before)
        after = load_benchmark_json(args.after)
        if "benchmarks" in before:  # pytest-benchmark dump
            deltas = compare_benchmark_json(before, after)
        else:
            deltas = compare_figures(
                figure_from_dict(before), figure_from_dict(after)
            )
        print(format_deltas(
            deltas, tolerance=args.tolerance, fail_on=args.fail_on
        ))
        if args.fail_on == "slower":
            return 1 if any(d.slower(args.tolerance) for d in deltas) else 0
        return 1 if any(d.exceeds(args.tolerance) for d in deltas) else 0
    if args.command == "matrix":
        from repro.bench.matrix import run_matrix

        solvers = ["pr-binary", "blackbox-binary"]
        result = run_matrix(
            experiments=[int(x) for x in args.experiments.split(",")],
            schemes=args.schemes.split(","),
            qtypes=args.qtypes.split(","),
            loads=[int(x) for x in args.loads.split(",")],
            ns=[int(x) for x in args.ns.split(",")],
            solvers=solvers,
            n_queries=args.queries,
            seed=args.seed,
        )
        print(result.to_table(solvers))
        worst = result.worst_ratio("blackbox-binary", "pr-binary")
        if worst:
            print(
                f"\nlargest black-box/integrated ratio: "
                f"{worst.ratio('blackbox-binary', 'pr-binary'):.2f}x at "
                f"exp {worst.experiment}, {worst.scheme}, {worst.qtype}, "
                f"load {worst.load}, N={worst.N}"
            )
        return 0
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "request":
        return _cmd_request(args)
    if args.command == "profile":
        from repro.bench.profiling import profile_solver

        report = profile_solver(
            args.solver,
            experiment=args.experiment,
            scheme=args.scheme,
            N=args.n,
            qtype=args.qtype,
            load=args.load,
            n_queries=args.queries,
            seed=args.seed,
            top=args.top,
            sort=args.sort,
        )
        print(report.render())
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
