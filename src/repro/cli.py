"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``quick`` — one random-workload simulation per sharing style;
* ``figure`` — run one of the paper's figure campaigns (Figures 8–14,
  Theorems 2/3, Lemmas 4/5, the retry-policy ablation; reduced settings
  by default, ``--repeats``/``--horizon-ms`` scale it up);
* ``retrybound`` — the Theorem 2 validation campaign;
* ``sojourn`` — evaluate the Theorem 3 comparison for given parameters;
* ``faults`` — the CML-under-faults degradation campaign: inject
  out-of-spec arrival bursts, compare shedding on vs off, and write the
  degradation report;
* ``profile`` — one fully instrumented run (``repro.obs``): Chrome
  trace-event JSON for ``chrome://tracing``/Perfetto, JSONL event
  streams and a perf-summary table;
* ``bench`` — the perf-regression loop over the committed
  ``benchmarks/trajectories/`` store: ``record`` appends saved
  ``perfbench/run.py`` results, ``check`` gates (exit 1 on a detected
  regression), ``report`` prints the trajectories;
* ``diff`` — trace-diff diagnosis: align two exported traces (JSONL or
  Chrome JSON), report the first divergent scheduling decision and the
  per-task deltas in retries, aborts, blocking time and utility;
* ``serve`` — simulation-as-a-service: an HTTP front end
  (``POST /simulate``) with bounded admission + UAM-style shedding, a
  circuit breaker over crash-isolated workers, a content-addressed
  result cache and graceful SIGTERM drain (DESIGN.md §13);
* ``load`` — seeded, reproducible load generator against a running
  ``serve`` instance (or ``--self-host`` to spin one up in-process),
  reporting latency percentiles, throughput, shed counts and cache hit
  rate; ``--verify`` byte-compares every served result against a clean
  local run.

Every command's ``--json`` payload carries an ``obs`` block: the
observability summary of the run (``{"enabled": false}`` when nothing
was instrumented).  Campaign commands accept ``--metrics-port`` to
serve a live OpenMetrics ``/metrics`` endpoint while they run.

Campaign resilience (``figure``/``retrybound``/``faults``): ``--workers N``
fans trials out to crash-isolated worker processes, ``--trial-timeout``
bounds each trial's wall clock, ``--trial-retries`` caps retry attempts,
``--journal``/``--resume`` checkpoint and resume interrupted campaigns.
``--max-failures`` makes the process exit nonzero (code 4) when more
trials than that failed terminally; every command accepts ``--json PATH``
for a machine-readable summary.  All artifact writes are atomic.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.sojourn import compare_sojourn
from repro.api import quick_scenario, simulate
from repro.campaign import (
    CampaignConfig,
    CampaignEngine,
    CampaignStats,
    ChaosPlan,
    JournalError,
    atomic_write,
)
from repro.experiments import figures
from repro.experiments.faults import cml_under_faults
from repro.obs import Observer
from repro.serve import (
    LoadConfig,
    ServeApp,
    ServeConfig,
    install_drain_signal,
    run_load,
)
from repro.units import MS

FIGURES = {
    "fig8": figures.fig8,
    "fig9": figures.fig9,
    "fig10": figures.fig10,
    "fig11": figures.fig11,
    "fig12": figures.fig12,
    "fig13": figures.fig13,
    "fig14": figures.fig14,
    "thm2": figures.thm2_validation,
    "thm3": figures.thm3_sojourn,
    "lemma45": figures.lemma45_validation,
    "ablation": figures.retry_policy_ablation,
}

#: Exit code for a campaign whose terminal trial failures exceeded
#: ``--max-failures`` (distinct from 1 = domain check failed and
#: 2 = usage error).
EXIT_CAMPAIGN_FAILED = 4


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "campaign resilience",
        "parallel workers, per-trial timeouts, retry, checkpoint/resume")
    group.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = in-process serial, "
                            "byte-identical to the classic path)")
    group.add_argument("--trial-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-trial wall-clock budget "
                            "(needs --workers > 1)")
    group.add_argument("--trial-retries", type=int, default=3,
                       metavar="N",
                       help="max attempts per trial for transient "
                            "failures, crashes and timeouts (default 3)")
    group.add_argument("--journal", default=None, metavar="PATH",
                       help="append-only JSONL checkpoint journal")
    group.add_argument("--resume", default=None, metavar="PATH",
                       help="resume from a journal: completed trials are "
                            "replayed from disk, the rest recomputed "
                            "(implies --journal PATH unless given)")
    group.add_argument("--max-failures", type=int, default=0,
                       help="tolerated terminally-failed trials before "
                            "the process exits nonzero (default 0)")
    group.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve a live OpenMetrics /metrics endpoint "
                            "on 127.0.0.1:PORT for the campaign's "
                            "duration (0 = ephemeral port)")
    # Deterministic campaign-layer fault injection, used by the CI
    # acceptance check and the integration tests (hidden from --help).
    group.add_argument("--chaos-crash", type=int, action="append",
                       default=[], help=argparse.SUPPRESS)
    group.add_argument("--chaos-hang", type=int, action="append",
                       default=[], help=argparse.SUPPRESS)
    group.add_argument("--chaos-transient", type=int, action="append",
                       default=[], help=argparse.SUPPRESS)
    group.add_argument("--chaos-hang-seconds", type=float, default=60.0,
                       help=argparse.SUPPRESS)


class UsageError(ValueError):
    """Bad flag combination caught before any campaign work starts."""


def _campaign_from_args(args) -> CampaignConfig | None:
    if args.workers < 1:
        raise UsageError(f"invalid --workers {args.workers}: must be >= 1")
    if args.trial_retries < 1:
        raise UsageError(
            f"invalid --trial-retries {args.trial_retries}: must be >= 1")
    if args.trial_timeout is not None and args.trial_timeout <= 0:
        raise UsageError(
            f"invalid --trial-timeout {args.trial_timeout}: "
            f"must be positive")
    if args.metrics_port is not None and \
            not 0 <= args.metrics_port <= 65535:
        raise UsageError(
            f"invalid --metrics-port {args.metrics_port}: "
            f"must be in [0, 65535]")
    chaos = None
    if args.chaos_crash or args.chaos_hang or args.chaos_transient:
        chaos = ChaosPlan(crash=tuple(args.chaos_crash),
                          hang=tuple(args.chaos_hang),
                          transient=tuple(args.chaos_transient),
                          hang_seconds=args.chaos_hang_seconds)
    journal = args.journal or args.resume
    needs_engine = (args.workers > 1 or journal is not None
                    or args.trial_timeout is not None
                    or chaos is not None
                    or args.metrics_port is not None)
    if not needs_engine:
        return None
    return CampaignConfig(
        workers=args.workers,
        timeout=args.trial_timeout,
        max_attempts=max(1, args.trial_retries),
        journal=journal,
        resume=args.resume,
        max_failures=args.max_failures,
        chaos=chaos,
        metrics_port=args.metrics_port,
    )


def _campaign_exit(stats: CampaignStats | None, args) -> int:
    if stats is None:
        return 0
    if stats.failed_trials > max(0, args.max_failures):
        print(f"campaign FAILED: {stats.failed_trials} trials failed "
              f"terminally (allowed: {args.max_failures})",
              file=sys.stderr)
        return EXIT_CAMPAIGN_FAILED
    return 0


def _announce_metrics(engine: "CampaignEngine | None") -> None:
    if engine is not None and engine.metrics_url:
        print(f"serving live metrics at {engine.metrics_url}",
              file=sys.stderr)


def _write_json(args, payload: dict, obs: dict | None = None) -> None:
    path = getattr(args, "json", None)
    if path:
        payload = {**payload,
                   "obs": obs if obs is not None else {"enabled": False}}
        atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                      allow_nan=True) + "\n")
        print(f"json summary written to {path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Lock-Free Synchronization for "
                     "Dynamic Embedded Real-Time Systems' (DATE 2006)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quick = sub.add_parser("quick", help="one-shot workload comparison")
    quick.add_argument("--tasks", type=int, default=8)
    quick.add_argument("--objects", type=int, default=6)
    quick.add_argument("--load", type=float, default=1.1)
    quick.add_argument("--horizon-ms", type=int, default=1000)
    quick.add_argument("--seed", type=int, default=42)
    quick.add_argument("--tuf-class", choices=["step", "hetero"],
                       default="step")
    quick.add_argument("--sync", action="append",
                       choices=["ideal", "edf", "lockfree", "lockbased"],
                       help="repeatable; default: all four")
    quick.add_argument("--json", default=None, metavar="PATH",
                       help="write a machine-readable summary")

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", choices=sorted(FIGURES))
    figure.add_argument("--repeats", type=int, default=3)
    figure.add_argument("--horizon-ms", type=int, default=100)
    figure.add_argument("--out", default=None, metavar="PATH",
                        help="also write the rendered table to a file")
    figure.add_argument("--json", default=None, metavar="PATH",
                        help="write a machine-readable summary")
    _add_campaign_args(figure)

    retry = sub.add_parser("retrybound",
                           help="Theorem 2 retry-bound validation")
    retry.add_argument("--repeats", type=int, default=3)
    retry.add_argument("--horizon-ms", type=int, default=300)
    retry.add_argument("--json", default=None, metavar="PATH",
                       help="write a machine-readable summary")
    _add_campaign_args(retry)

    faults = sub.add_parser(
        "faults",
        help="fault-injection campaign: AUR degradation under "
             "out-of-spec arrival bursts, shedding on vs off")
    faults.add_argument("--bursts", default="0,1,2,4,8",
                        help="comma-separated bursts-per-task levels")
    faults.add_argument("--burst-size", type=int, default=2)
    faults.add_argument("--repeats", type=int, default=3)
    faults.add_argument("--horizon-ms", type=int, default=60)
    faults.add_argument("--load", type=float, default=0.8)
    faults.add_argument("--max-retries", type=int, default=8)
    faults.add_argument("--seed", type=int, default=700)
    faults.add_argument("--out", default=None,
                        help="also write the degradation report to a file")
    faults.add_argument("--json", default=None, metavar="PATH",
                        help="write a machine-readable summary")
    _add_campaign_args(faults)

    profile = sub.add_parser(
        "profile",
        help="instrumented profiling run: Chrome trace, JSONL events, "
             "perf summary, BENCH baselines (repro.obs)")
    profile.add_argument("--workload",
                         choices=["step", "hetero", "interference"],
                         default="step")
    profile.add_argument("--sync",
                         choices=["lockfree", "lockbased", "ideal", "edf"],
                         default="lockfree")
    profile.add_argument("--tasks", type=int, default=10)
    profile.add_argument("--objects", type=int, default=10)
    profile.add_argument("--load", type=float, default=0.6)
    profile.add_argument("--horizon-ms", type=int, default=100)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--retry-policy",
                         choices=["preemption", "conflict"],
                         default="preemption",
                         help="lock-free retry model: pessimistic "
                              "per-preemption (Lemma 1) or "
                              "commit-conflict (default: preemption)")
    profile.add_argument("--trace", default=None, metavar="PATH",
                         help="write Chrome trace-event JSON "
                              "(chrome://tracing, Perfetto)")
    profile.add_argument("--jsonl", default=None, metavar="PATH",
                         help="write the event stream as JSON lines")
    profile.add_argument("--summary-out", default=None, metavar="PATH",
                         help="also write the perf-summary table to a file")
    profile.add_argument("--json", default=None, metavar="PATH",
                         help="write a machine-readable summary")

    bench = sub.add_parser(
        "bench",
        help="perf-regression loop over the committed perfbench results "
             "in benchmarks/trajectories/ (record / check / report)")
    bench.add_argument("action", choices=["record", "check", "report"])
    bench.add_argument("runs", nargs="*", metavar="RUN",
                       help="record: saved perfbench/run.py stdout of one "
                            "--trace 0 run and, optionally, one --trace 1 "
                            "run of the same workload and seed")
    bench.add_argument("--dir", default=None, metavar="DIR",
                       help="trajectory store (default "
                            "benchmarks/trajectories)")
    bench.add_argument("--spec", default=None, metavar="PATH",
                       help="record: benchmark spec the metric "
                            "directions and bounds are copied from "
                            "(default BENCHMARK.json)")
    bench.add_argument("--report", default=None, metavar="PATH",
                       help="also write the ASCII gate report to a file")
    bench.add_argument("--json", default=None, metavar="PATH",
                       help="write a machine-readable summary")

    diff = sub.add_parser(
        "diff",
        help="trace-diff diagnosis: first divergent scheduling decision "
             "and per-task deltas between two exported traces")
    diff.add_argument("trace_a", metavar="A",
                      help="first trace (JSONL event stream or Chrome "
                           "trace JSON, as written by `repro profile`)")
    diff.add_argument("trace_b", metavar="B", help="second trace")
    diff.add_argument("--out", default=None, metavar="PATH",
                      help="also write the diagnosis to a file")
    diff.add_argument("--json", default=None, metavar="PATH",
                      help="write a machine-readable summary")

    serve = sub.add_parser(
        "serve",
        help="simulation-as-a-service HTTP front end: POST /simulate, "
             "GET /metrics, /healthz, /stats (see DESIGN.md §13)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 = ephemeral, printed at start)")
    serve.add_argument("--workers", type=int, default=2,
                       help="crash-isolated simulation worker processes")
    serve.add_argument("--queue-capacity", type=int, default=64,
                       help="hard admission-queue bound")
    serve.add_argument("--watermark", type=int, default=None,
                       help="queue depth where shedding starts "
                            "(default: capacity)")
    serve.add_argument("--trial-timeout", type=float, default=30.0,
                       help="per-trial wall-clock budget (seconds)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per trial incl. retries")
    serve.add_argument("--deadline", type=float, default=60.0,
                       help="default per-request deadline (seconds)")
    serve.add_argument("--retry-seed", type=int, default=0)
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive pool failures that trip the "
                            "circuit breaker")
    serve.add_argument("--breaker-reset", type=float, default=2.0,
                       help="seconds before the open breaker half-opens")
    serve.add_argument("--cache-dir", default=".repro-serve-cache",
                       help="content-addressed result cache directory")
    serve.add_argument("--drain-grace", type=float, default=10.0,
                       help="seconds to finish in-flight work on drain")
    serve.add_argument("--request-log", default=None, metavar="PATH",
                       help="write-ahead request log: admitted requests "
                            "are journaled durably and replayed on warm "
                            "restart after a kill -9")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for N seconds then drain "
                            "(default: until SIGTERM/SIGINT)")
    _add_chaos_args(serve)
    serve.add_argument("--json", default=None, metavar="PATH",
                       help="write config echo + final stats")

    load = sub.add_parser(
        "load",
        help="seeded load generator against a serve instance "
             "(deterministic arrivals; reports latency/throughput/sheds)")
    load.add_argument("--url", default=None,
                      help="base URL of a running `repro serve`")
    load.add_argument("--self-host", action="store_true",
                      help="start an in-process server for this run")
    load.add_argument("--consumers", type=int, default=4)
    load.add_argument("--rate", type=float, default=50.0,
                      help="aggregate arrivals per second")
    load.add_argument("--duration", type=float, default=5.0,
                      help="schedule length (seconds)")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--scenarios", type=int, default=8,
                      help="distinct scenarios cycled (cache reuse)")
    load.add_argument("--tasks", type=int, default=6)
    load.add_argument("--horizon-ms", type=float, default=20.0)
    load.add_argument("--load", type=float, default=0.6)
    load.add_argument("--sync", default="lockfree",
                      choices=["ideal", "edf", "lockfree", "lockbased"])
    load.add_argument("--deadline", type=float, default=30.0,
                      help="per-request deadline sent to the server")
    load.add_argument("--priority-levels", type=int, default=3)
    load.add_argument("--verify", action="store_true",
                      help="byte-compare every served result against a "
                           "clean local simulate() (exit 1 on mismatch)")
    load.add_argument("--workers", type=int, default=2,
                      help="[self-host] worker processes")
    load.add_argument("--trial-timeout", type=float, default=30.0,
                      help="[self-host] per-trial budget")
    load.add_argument("--breaker-threshold", type=int, default=3,
                      help="[self-host] breaker trip threshold")
    load.add_argument("--breaker-reset", type=float, default=2.0,
                      help="[self-host] breaker half-open timer")
    load.add_argument("--request-log", default=None, metavar="PATH",
                      help="write-ahead request log for the self-hosted "
                           "server (see repro serve --request-log)")
    load.add_argument("--cache-dir", default=None,
                      help="[self-host] cache directory "
                           "(default: a fresh temp dir)")
    _add_chaos_args(load)
    load.add_argument("--json", default=None, metavar="PATH",
                      help="write the load report")

    sojourn = sub.add_parser("sojourn",
                             help="Theorem 3 sojourn comparison")
    sojourn.add_argument("--r", type=float, required=True,
                         help="lock-based access time")
    sojourn.add_argument("--s", type=float, required=True,
                         help="lock-free access time")
    sojourn.add_argument("--m", type=int, default=4,
                         help="accesses per job (m_i)")
    sojourn.add_argument("--a", type=int, default=1,
                         help="max arrivals per window (a_i)")
    sojourn.add_argument("--x", type=int, default=4,
                         help="interference events (x_i)")
    sojourn.add_argument("--u", type=int, default=1000,
                         help="pure compute time (u_i)")
    sojourn.add_argument("--interference", type=int, default=0)
    sojourn.add_argument("--json", default=None, metavar="PATH",
                         help="write a machine-readable summary")
    return parser


def _cmd_quick(args) -> int:
    syncs = args.sync or ["ideal", "edf", "lockfree", "lockbased"]
    rows = []
    # One shared observer: the JSON obs block aggregates all four runs.
    observer = Observer() if args.json else None
    print(f"{'style':<10} {'AUR':>6} {'CMR':>6} {'jobs':>6} "
          f"{'retries':>8} {'blocked':>8}")
    scenarios = {
        sync: quick_scenario(
            n_tasks=args.tasks, n_objects=args.objects, sync=sync,
            load=args.load, horizon_us=args.horizon_ms * 1000,
            seed=args.seed, tuf_class=args.tuf_class)
        for sync in syncs
    }
    for sync, scenario in scenarios.items():
        summary = simulate(scenario, observer=observer)
        result = summary.result
        print(f"{sync:<10} {summary.aur:6.3f} {summary.cmr:6.3f} "
              f"{len(result.records):6d} {result.total_retries:8d} "
              f"{result.total_blockings:8d}")
        rows.append({
            "sync": sync,
            "aur": summary.aur,
            "cmr": summary.cmr,
            "jobs": len(result.records),
            "retries": result.total_retries,
            "blockings": result.total_blockings,
        })
    # The declarative scenario (one entry per sync style differs only in
    # `sync`, so publish the first with sync dropped) lets consumers
    # replay the exact runs via Scenario.from_dict.
    scenario_dict = next(iter(scenarios.values())).to_dict()
    del scenario_dict["sync"]
    _write_json(args, {"command": "quick", "seed": args.seed,
                       "load": args.load, "syncs": list(syncs),
                       "scenario": scenario_dict, "rows": rows},
                obs=observer.summary() if observer is not None else None)
    return 0


def _cmd_figure(args) -> int:
    fn = FIGURES[args.name]
    campaign = _campaign_from_args(args)
    observer = Observer() if campaign is not None else None
    engine = (CampaignEngine(campaign, tag=f"figure:{args.name}",
                             observer=observer)
              if campaign is not None else None)
    _announce_metrics(engine)
    try:
        if args.name == "fig9":
            result = fn(repeats=max(1, args.repeats // 3), campaign=engine)
        else:
            result = fn(repeats=args.repeats, horizon=args.horizon_ms * MS,
                        campaign=engine)
    finally:
        if engine is not None:
            engine.close()
    text = result.render()
    print(text)
    if args.out:
        atomic_write(args.out, text + "\n")
        print(f"figure table written to {args.out}")
    rc = _campaign_exit(result.campaign, args)
    _write_json(args, {"command": "figure", "name": args.name,
                       "exit_code": rc, **result.to_dict()},
                obs=observer.summary() if observer is not None else None)
    return rc


def _cmd_retrybound(args) -> int:
    campaign = _campaign_from_args(args)
    observer = Observer() if campaign is not None else None
    engine = (CampaignEngine(campaign, tag="figure:thm2",
                             observer=observer)
              if campaign is not None else None)
    _announce_metrics(engine)
    try:
        result = figures.thm2_validation(repeats=args.repeats,
                                         horizon=args.horizon_ms * MS,
                                         campaign=engine)
    finally:
        if engine is not None:
            engine.close()
    print(result.render())
    measured, bound = result.series
    violated = any(m.mean > b.mean for m, b in
                   zip(measured.estimates, bound.estimates))
    print("BOUND VIOLATED" if violated else "bound holds for every task")
    rc = _campaign_exit(result.campaign, args)
    if violated:
        rc = rc or 1
    _write_json(args, {"command": "retrybound", "violated": violated,
                       "exit_code": rc, **result.to_dict()},
                obs=observer.summary() if observer is not None else None)
    return rc


def _cmd_faults(args) -> int:
    try:
        levels = tuple(int(part) for part in args.bursts.split(",") if part)
    except ValueError:
        print(f"invalid --bursts {args.bursts!r}: expected e.g. 0,2,4",
              file=sys.stderr)
        return 2
    if not levels:
        print("--bursts must name at least one level", file=sys.stderr)
        return 2
    if any(level < 0 for level in levels):
        print(f"invalid --bursts {args.bursts!r}: levels must be >= 0",
              file=sys.stderr)
        return 2
    campaign_cfg = _campaign_from_args(args)
    observer = Observer() if campaign_cfg is not None else None
    engine = (CampaignEngine(campaign_cfg, tag="faults",
                             observer=observer)
              if campaign_cfg is not None else None)
    _announce_metrics(engine)
    try:
        campaign = cml_under_faults(
            burst_levels=levels,
            repeats=args.repeats,
            horizon=args.horizon_ms * MS,
            load=args.load,
            burst_size=args.burst_size,
            max_retries=args.max_retries,
            base_seed=args.seed,
            campaign=engine,
        )
    finally:
        if engine is not None:
            engine.close()
    text = campaign.render()
    print(text)
    if args.out:
        atomic_write(args.out, text + "\n")
        print(f"degradation report written to {args.out}")
    rc = _campaign_exit(campaign.figure.campaign, args)
    _write_json(args, {"command": "faults", "exit_code": rc,
                       **campaign.to_dict()},
                obs=observer.summary() if observer is not None else None)
    return rc


def _cmd_profile(args) -> int:
    from repro.obs.exporters import (
        render_summary,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.obs.profile import run_profile

    prof = run_profile(
        workload=args.workload, sync=args.sync, n_tasks=args.tasks,
        n_objects=args.objects, load=args.load,
        horizon_us=args.horizon_ms * 1000, seed=args.seed,
        retry_policy=args.retry_policy,
    )
    summary = prof.observer.summary()
    text = render_summary(
        summary,
        title=(f"profile: {args.workload}/{args.sync} "
               f"seed={args.seed} wall={prof.wall_s:.3f}s"))
    print(text)
    if args.trace:
        write_chrome_trace(args.trace, prof.observer, prof.tracer)
        print(f"chrome trace written to {args.trace} "
              f"(load in chrome://tracing or ui.perfetto.dev)")
    if args.jsonl:
        write_jsonl(args.jsonl, prof.observer)
        print(f"event stream written to {args.jsonl}")
    if args.summary_out:
        atomic_write(args.summary_out, text + "\n")
        print(f"perf summary written to {args.summary_out}")
    _write_json(args, {"command": "profile", **prof.headline()},
                obs=summary)
    return 0


def _cmd_bench(args) -> int:
    from repro.obs.regress import (
        DEFAULT_SPEC,
        RecordError,
        check_trajectories,
        list_trajectories,
        record_runs,
        trajectory_dir,
    )

    directory = trajectory_dir(args.dir)
    if args.action == "record":
        try:
            path, document = record_runs(
                args.runs, args.spec or DEFAULT_SPEC, directory)
        except RecordError as exc:
            print(f"bench record refused: {exc}", file=sys.stderr)
            return 2
        entries = len(document["entries"])
        seq = document["entries"][-1]["seq"]
        print(f"trajectory entry seq {seq} appended to {path} "
              f"({entries} entries)")
        _write_json(args, {"command": "bench", "action": "record",
                           "bench": path.stem, "path": str(path),
                           "entries": entries, "seq": seq})
        return 0
    if args.runs or args.spec:
        raise UsageError(f"bench {args.action} takes no RUN or --spec; "
                         f"they are for 'record'")

    report = check_trajectories(directory)
    text = report.render()
    print(text)
    if args.report:
        atomic_write(args.report, text + "\n")
        print(f"gate report written to {args.report}")
    gating = args.action == "check"
    rc = 1 if (gating and report.regressed) else 0
    if gating and not list_trajectories(directory):
        print(f"no trajectories under {directory}; record some with "
              f"`repro bench record`", file=sys.stderr)
    _write_json(args, {"command": "bench", "action": args.action,
                       "exit_code": rc, **report.to_dict()})
    return rc


def _cmd_diff(args) -> int:
    from repro.obs.diff import TraceFormatError, diff_trace_files

    try:
        diff = diff_trace_files(args.trace_a, args.trace_b)
    except FileNotFoundError as exc:
        print(f"trace not found: {exc.filename}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"unreadable trace: {exc}", file=sys.stderr)
        return 2
    text = diff.render()
    print(text)
    if args.out:
        atomic_write(args.out, text + "\n")
        print(f"diagnosis written to {args.out}")
    _write_json(args, {"command": "diff", **diff.to_dict()})
    return 0


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    chaos = parser.add_argument_group(
        "chaos", "fault injection into the worker pool, by request index "
                 "(requests are numbered in pool submission order); a "
                 "fault fires on a request's first attempt only, so its "
                 "retry recovers")
    chaos.add_argument("--chaos-crash", default="", metavar="I,J,...",
                       help="kill the worker process on these requests")
    chaos.add_argument("--chaos-kill9", default="", metavar="I,J,...",
                       help="SIGKILL the worker process on these "
                            "requests (hard, unhandled death)")
    chaos.add_argument("--chaos-hang", default="", metavar="I,J,...",
                       help="hang the trial on these requests")
    chaos.add_argument("--chaos-transient", default="", metavar="I,J,...",
                       help="raise a transient error on these requests")
    chaos.add_argument("--chaos-hang-seconds", type=float, default=60.0)


def _parse_indices(text: str, flag: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers: {exc}")


def _chaos_from_args(args) -> "ChaosPlan | None":
    crash = _parse_indices(args.chaos_crash, "--chaos-crash")
    kill9 = _parse_indices(getattr(args, "chaos_kill9", ""), "--chaos-kill9")
    hang = _parse_indices(args.chaos_hang, "--chaos-hang")
    transient = _parse_indices(args.chaos_transient, "--chaos-transient")
    if not (crash or kill9 or hang or transient):
        return None
    return ChaosPlan(crash=crash, kill9=kill9, hang=hang,
                     transient=transient,
                     hang_seconds=args.chaos_hang_seconds)


def _serve_config_from_args(args, *, cache_dir: str,
                            host: str = "127.0.0.1", port: int = 0,
                            queue_capacity: int = 64,
                            watermark: int | None = None,
                            deadline: float = 60.0,
                            drain_grace: float = 10.0,
                            retry_seed: int = 0) -> ServeConfig:
    try:
        return ServeConfig(
            host=host, port=port,
            workers=args.workers,
            queue_capacity=queue_capacity,
            queue_watermark=watermark,
            trial_timeout=args.trial_timeout,
            max_attempts=getattr(args, "max_attempts", 3),
            retry_seed=retry_seed,
            default_deadline_s=deadline,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset,
            cache_dir=cache_dir,
            drain_grace_s=drain_grace,
            request_log=getattr(args, "request_log", None),
            chaos=_chaos_from_args(args),
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_serve(args) -> int:
    config = _serve_config_from_args(
        args, cache_dir=args.cache_dir,
        host=args.host, port=args.port,
        queue_capacity=args.queue_capacity, watermark=args.watermark,
        deadline=args.deadline, drain_grace=args.drain_grace,
        retry_seed=args.retry_seed)
    app = ServeApp(config)
    app.start()
    print(f"serving on {app.url}  "
          f"(workers={config.workers}, queue={config.queue_capacity}, "
          f"cache={config.cache_dir})")
    print("endpoints: POST /simulate  GET /metrics /healthz /stats "
          "/result/<digest>")
    try:
        # SIGTERM/SIGINT start the drain; only valid from the main
        # thread (tests drive main() from worker threads).
        previous = install_drain_signal(app.drain.begin)
    except ValueError:   # pragma: no cover - non-main thread
        previous = None
    try:
        if args.duration is not None:
            app.drain.wait(timeout=args.duration)
            app.drain.begin("duration elapsed")
        else:   # pragma: no cover - interactive mode
            while not app.drain.wait(timeout=3600.0):
                pass
        report = app.shutdown(grace_s=args.drain_grace,
                              reason=app.drain.reason or "drain")
    finally:
        if previous is not None:
            import signal as _signal
            for signum, handler in previous.items():
                _signal.signal(signum, handler)
    stats = app.stats()
    print(f"drained ({report['reason']}): "
          f"{stats['pool']['executions']} trials served, "
          f"{stats['cache']['hits']} cache hits, "
          f"{stats['queue']['shed']} shed, "
          f"{report['unfinished']} unfinished")
    _write_json(args, {
        "command": "serve",
        "url": app.url or f"http://{config.host}:{config.port}",
        "config": config.to_dict(),
        "drain": report,
        "stats": stats,
    }, obs=app.observer.summary())
    return 0


def _cmd_load(args) -> int:
    if not args.url and not args.self_host:
        raise UsageError("load needs --url URL or --self-host")
    try:
        # Validate the load parameters before any server spins up (the
        # real URL is only known after a self-hosted bind).
        probe_config = LoadConfig(
            url=args.url or "http://127.0.0.1:0",
            consumers=args.consumers,
            rate=args.rate,
            duration_s=args.duration,
            seed=args.seed,
            n_scenarios=args.scenarios,
            n_tasks=args.tasks,
            horizon_us=int(args.horizon_ms * 1000),
            load=args.load,
            sync=args.sync,
            deadline_s=args.deadline,
            priority_levels=args.priority_levels,
            verify=args.verify,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    app = None
    if args.self_host:
        import tempfile
        cache_dir = args.cache_dir or tempfile.mkdtemp(
            prefix="repro-serve-cache-")
        config = _serve_config_from_args(args, cache_dir=cache_dir,
                                         deadline=max(args.deadline, 1.0),
                                         drain_grace=5.0)
        app = ServeApp(config)
        app.start()
        url = app.url
        print(f"self-hosted server on {url} "
              f"(workers={config.workers}, cache={cache_dir})")
    else:
        url = args.url
    try:
        import dataclasses
        report = run_load(dataclasses.replace(probe_config, url=url))
    finally:
        if app is not None:
            app.shutdown(grace_s=5.0, reason="load run finished")
    report.setdefault("verification", {"verified": 0, "mismatches": []})
    report["self_host"] = bool(args.self_host)

    outcomes = report["outcomes"]
    latency = report["latency_s"]
    print(f"{report['requests_sent']} requests @ {args.rate:g}/s x "
          f"{args.duration:g}s, {args.consumers} consumers "
          f"(seed {args.seed})")
    print(f"  ok={outcomes['ok']} shed={outcomes['shed']} "
          f"unavailable={outcomes['unavailable']} "
          f"failed={outcomes['failed']} deadline={outcomes['deadline']} "
          f"transport={outcomes['transport_error']}")
    print(f"  latency p50={latency['p50'] * 1000:.1f}ms "
          f"p99={latency['p99'] * 1000:.1f}ms "
          f"throughput={report['throughput_rps']:.1f} rps "
          f"cache_hits={report['cache_hits']}")
    lag = report["lag_s"]
    print(f"  send lag p50={lag['p50'] * 1000:.1f}ms "
          f"p99={lag['p99'] * 1000:.1f}ms max={lag['max'] * 1000:.1f}ms "
          f"(latency runs from the scheduled arrival)")
    mismatches = report["verification"]["mismatches"]
    if args.verify:
        print(f"  verified {report['verification']['verified']} unique "
              f"payloads against local simulate(): "
              f"{'OK' if not mismatches else 'MISMATCH'}")
    for mismatch in mismatches:
        print(f"  MISMATCH: {mismatch}", file=sys.stderr)
    _write_json(args, {"command": "load", **report})
    return 1 if mismatches else 0


def _cmd_sojourn(args) -> int:
    n = 2 * args.a + args.x   # worst-case n_i
    comparison = compare_sojourn(
        u_i=args.u, interference=args.interference, r=args.r, s=args.s,
        m_i=args.m, n_i=n, a_i=args.a, x_i=args.x,
    )
    print(f"s/r = {comparison.ratio:.4f}")
    print(f"paper threshold  (Thm 3 as stated): {comparison.paper_threshold:.4f}")
    print(f"exact threshold  (from the proof):  {comparison.exact_threshold:.4f}")
    print(f"worst-case sojourn, lock-based: {comparison.lockbased:.1f}")
    print(f"worst-case sojourn, lock-free:  {comparison.lockfree:.1f}")
    winner = "lock-free" if comparison.lockfree_wins else "lock-based"
    print(f"shorter worst-case sojourn: {winner}")
    _write_json(args, {
        "command": "sojourn",
        "ratio": comparison.ratio,
        "paper_threshold": comparison.paper_threshold,
        "exact_threshold": comparison.exact_threshold,
        "lockbased": comparison.lockbased,
        "lockfree": comparison.lockfree,
        "winner": winner,
    })
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "quick":
            return _cmd_quick(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "retrybound":
            return _cmd_retrybound(args)
        if args.command == "faults":
            return _cmd_faults(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "load":
            return _cmd_load(args)
        if args.command == "sojourn":
            return _cmd_sojourn(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except JournalError as exc:
        print(f"journal error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
