"""Command-line entry point: ``python -m repro <command>``.

Commands::

    list                 show the available experiments
    run <experiment>     run one experiment (``--fast`` for CI params;
                         ``--trace out.json`` for a Perfetto-loadable
                         trace, ``--metrics out.txt`` for a metrics
                         dump + digest, ``--profile`` for CPU self time
                         per layer and function on stderr)
    report <experiment>  run one experiment and print/write a Markdown
                         run report (top event kinds, stage latencies,
                         fault timeline, causal blame, partition
                         observatory); ``report --history`` renders
                         the cross-run perf trajectory instead
    analyze <experiment> run one experiment traced and emit the causal
                         analysis: per-request critical paths, the
                         per-layer blame table (Table-3-style
                         decomposition from spans alone), and the
                         partition observatory
    timeline <experiment> run one experiment with the metric timeline
                         sampler and emit the time-resolved view:
                         sparkline report, SLO monitors, incident log,
                         plus a timeline.json artifact (``--csv`` for a
                         flat CSV; byte-identical at any ``--jobs``)
    all [--fast]         regenerate EXPERIMENTS.md
    info                 print the calibration table
    chaos                one deterministic fault-injection run
                         (``--seed N --plan agent-crash``; same seed,
                         same plan => byte-identical output)
    perf                 kernel + end-to-end perf microbenchmarks;
                         appends to BENCH_perf.json's history
                         (``--check`` gates on the committed baseline,
                         ``--compare [N]`` renders the trend)

``run``, ``report``, and ``all`` accept ``--jobs N`` to fan an
experiment's independent load points across N worker processes
(``--jobs -1`` uses every core). Telemetry-instrumented runs
(``--trace``/``--metrics``/``--profile``/``report``) use the pool
too: each worker records into its own telemetry shard and the parent
merges them in submission order, so traces, metrics digests, and
reports are byte-identical at any jobs value.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys

EXPERIMENTS = {
    "table2": ("repro.bench.table2_hw", "Table 2: hardware microbenchmarks"),
    "table3": ("repro.bench.table3_sched",
               "Table 3: scheduling microbenchmarks"),
    "fig4a": ("repro.bench.fig4_fifo", "Fig 4a: FIFO scheduling"),
    "opt-breakdown": ("repro.bench.opt_breakdown",
                      "Section 7.2.2: optimization ladder"),
    "fig4b": ("repro.bench.fig4_shinjuku", "Fig 4b: Shinjuku scheduling"),
    "fig5": ("repro.bench.fig5_vm", "Fig 5: VM turbo/ticks"),
    "fig6": ("repro.bench.fig6_rpc", "Fig 6: RPC deployments"),
    "upi": ("repro.bench.upi_bench", "Section 7.3.3: UPI emulation"),
    "sol-table": ("repro.bench.sol_table",
                  "Section 7.4.2: SOL iteration durations"),
    "sol-footprint": ("repro.bench.sol_footprint",
                      "Section 7.4.2: SOL's RocksDB effect"),
    "mem-policies": ("repro.bench.mem_policies",
                     "Ablation: SOL vs the CLOCK baseline"),
    "faults": ("repro.bench.faults",
               "Chaos: recovery under injected faults"),
}


def cmd_list() -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key, (_, title) in EXPERIMENTS.items():
        print(f"  {key:<{width}}  {title}")
    return 0


def _load_experiment(name: str):
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try: python -m repro list",
              file=sys.stderr)
        return None
    module_name, _ = EXPERIMENTS[name]
    return __import__(module_name, fromlist=["run"])


def _run_kwargs(module, fast: bool, jobs=None) -> dict:
    kwargs = {"fast": fast}
    if jobs is not None and "jobs" in inspect.signature(module.run).parameters:
        kwargs["jobs"] = jobs
    return kwargs


def cmd_run(name: str, fast: bool, trace: str = None, metrics: str = None,
            profile: bool = False, jobs: int = None) -> int:
    module = _load_experiment(name)
    if module is None:
        return 2
    if not (trace or metrics or profile):
        # No telemetry requested: nothing is installed, so the run is
        # bit-for-bit the pre-observability behaviour.
        print(module.run(**_run_kwargs(module, fast, jobs)).render())
        return 0
    from repro.obs import (LoopProfiler, Telemetry, write_chrome_trace,
                           write_metrics)
    profiler = LoopProfiler() if profile else None
    telemetry = Telemetry(profiler=profiler)
    with telemetry:
        # run_points() ships per-worker telemetry shards back to this
        # hub, so the instrumented run stays fully observed in the pool.
        print(module.run(**_run_kwargs(module, fast, jobs)).render())
    if trace:
        n_events = write_chrome_trace(telemetry, trace)
        print(f"trace: {n_events} span events -> {trace}", file=sys.stderr)
    if metrics:
        digest = write_metrics(telemetry, metrics)
        print(f"metrics: digest {digest} -> {metrics}", file=sys.stderr)
    if profiler is not None:
        print(profiler.table(), file=sys.stderr)
    return 0


def cmd_history(out: str = None, last: int = None,
                perf_path: str = "BENCH_perf.json") -> int:
    from repro.bench.trajectory import load_perf, render_trend
    perf = load_perf(perf_path)
    if perf is None:
        print(f"no perf artifact at {perf_path}; run `python -m repro "
              "perf` first", file=sys.stderr)
        return 1
    text = render_trend(perf.get("history") or [],
                        baseline=perf.get("pre_pr_baseline"), last=last)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"history report -> {out}")
    else:
        print(text)
    return 0


def cmd_report(name: str, fast: bool, out: str = None,
               jobs: int = None) -> int:
    module = _load_experiment(name)
    if module is None:
        return 2
    from repro.obs import Telemetry, run_report
    telemetry = Telemetry()
    with telemetry:
        module.run(**_run_kwargs(module, fast, jobs))
    title = f"{name}: {EXPERIMENTS[name][1]}"
    text = run_report(telemetry, title=title)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"report -> {out}")
    else:
        print(text, end="")
    return 0


def cmd_analyze(name: str, fast: bool, out: str = None, jobs: int = None,
                percentile: float = 99.0) -> int:
    module = _load_experiment(name)
    if module is None:
        return 2
    from repro.obs import Telemetry
    from repro.obs.causal import analyze_report
    telemetry = Telemetry()
    with telemetry:
        module.run(**_run_kwargs(module, fast, jobs))
    title = f"{name}: causal analysis"
    text = analyze_report(telemetry, title=title, percentile=percentile)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"analysis -> {out}")
    else:
        print(text, end="")
    return 0


def cmd_timeline(name: str, fast: bool, out: str = None, jobs: int = None,
                 json_path: str = None, csv_path: str = None,
                 period_us: float = None) -> int:
    module = _load_experiment(name)
    if module is None:
        return 2
    from repro.obs import (Telemetry, TimelineConfig, timeline_report,
                           write_timeline, write_timeline_csv)
    specs = tuple(getattr(module, "SLO_SPECS", ()) or ())
    kwargs = {"slo_specs": specs}
    if period_us is not None:
        kwargs["period_ns"] = period_us * 1e3
    telemetry = Telemetry(timeline=TimelineConfig(**kwargs))
    with telemetry:
        module.run(**_run_kwargs(module, fast, jobs))
    json_path = json_path or f"timeline_{name}.json"
    n_runs = write_timeline(telemetry, json_path)
    print(f"timeline: {n_runs} runs -> {json_path}", file=sys.stderr)
    if csv_path:
        n_rows = write_timeline_csv(telemetry, csv_path)
        print(f"timeline csv: {n_rows} samples -> {csv_path}",
              file=sys.stderr)
    title = f"{name}: metric timelines"
    text = timeline_report(telemetry, title=title)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"timeline report -> {out}")
    else:
        print(text, end="")
    return 0


def cmd_all(fast: bool, jobs: int = None) -> int:
    from repro.bench.generate import main as generate_main
    argv = ["--fast"] if fast else []
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    generate_main(argv)
    return 0


def cmd_perf(fast: bool, check: bool, out: str, jobs: int = None,
             repeats: int = 3, compare=None) -> int:
    if compare is not None:
        from repro.bench.trajectory import compare_main
        return compare_main(out_path=out,
                            last=compare if compare > 0 else None)
    from repro.bench.perf import main as perf_main
    return perf_main(fast=fast, check=check, out=out, jobs=jobs,
                     repeats=repeats)


def cmd_chaos(plan: str, seed: int, fast: bool) -> int:
    from repro.bench.faults import ChaosTiming, run_chaos
    timing = ChaosTiming.fast() if fast else None
    print(run_chaos(plan, seed=seed, timing=timing).summary())
    return 0


def cmd_info() -> int:
    from repro import __version__
    from repro.hw import HwParams
    print(f"wave-repro {__version__}")
    print("calibration (PCIe preset):")
    for field in dataclasses.fields(HwParams):
        value = getattr(HwParams.pcie(), field.name)
        print(f"  {field.name:<24} {value}")
    return 0


def _percentile(text: str) -> float:
    """``--percentile``: a float in [0, 100], checked before the
    experiment runs."""
    from repro.obs.causal import check_percentile
    try:
        return check_percentile(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Wave (ASPLOS 2025) reproduction harness")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list experiments")
    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment")
    run_p.add_argument("--fast", action="store_true")
    run_p.add_argument("--trace", metavar="PATH",
                       help="write a Chrome/Perfetto trace-event JSON")
    run_p.add_argument("--metrics", metavar="PATH",
                       help="write a flat metrics dump (with digest)")
    run_p.add_argument("--profile", action="store_true",
                       help="profile the event loop (CPU self time "
                            "per layer and per function, on stderr)")
    run_p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="fan independent points across N processes "
                            "(-1 = all cores)")
    report_p = sub.add_parser(
        "report", help="run one experiment and emit a Markdown run report")
    report_p.add_argument("experiment", nargs="?", default=None)
    report_p.add_argument("--fast", action="store_true")
    report_p.add_argument("--history", action="store_true",
                          help="render the cross-run perf trajectory from "
                               "BENCH_perf.json instead of running an "
                               "experiment")
    report_p.add_argument("--last", type=int, default=None, metavar="N",
                          help="with --history: only the newest N entries")
    report_p.add_argument("--out", metavar="PATH",
                          help="write the report here instead of stdout")
    report_p.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="fan independent points across N processes "
                               "(-1 = all cores)")
    analyze_p = sub.add_parser(
        "analyze", help="run one experiment traced and emit the causal "
                        "blame / partition-observatory analysis")
    analyze_p.add_argument("experiment")
    analyze_p.add_argument("--fast", action="store_true")
    analyze_p.add_argument("--out", metavar="PATH",
                           help="write the analysis here instead of stdout")
    analyze_p.add_argument("--jobs", type=int, default=None, metavar="N",
                           help="fan independent points across N processes "
                                "(-1 = all cores)")
    analyze_p.add_argument("--percentile", type=_percentile, default=99.0,
                           metavar="P",
                           help="tail percentile in [0, 100] whose "
                                "representative request's critical path "
                                "is rendered (default 99)")
    timeline_p = sub.add_parser(
        "timeline", help="run one experiment with the metric timeline "
                         "sampler: sparklines, SLO monitors, incident "
                         "log, timeline.json artifact")
    timeline_p.add_argument("experiment")
    timeline_p.add_argument("--fast", action="store_true")
    timeline_p.add_argument("--out", metavar="PATH",
                            help="write the report here instead of stdout")
    timeline_p.add_argument("--json", metavar="PATH", default=None,
                            help="timeline artifact path (default "
                                 "timeline_<exp>.json)")
    timeline_p.add_argument("--csv", metavar="PATH", default=None,
                            help="also write every sample as flat CSV")
    timeline_p.add_argument("--period-us", type=float, default=None,
                            metavar="US",
                            help="sampling period in simulated "
                                 "microseconds (default 1000 = 1 ms)")
    timeline_p.add_argument("--jobs", type=int, default=None, metavar="N",
                            help="fan independent points across N "
                                 "processes (-1 = all cores)")
    all_p = sub.add_parser("all", help="regenerate EXPERIMENTS.md")
    all_p.add_argument("--fast", action="store_true")
    all_p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="fan independent points across N processes "
                            "(-1 = all cores)")
    perf_p = sub.add_parser(
        "perf", help="perf microbenchmarks; writes BENCH_perf.json")
    perf_p.add_argument("--fast", action="store_true",
                        help="kernel microbench only (skip the fig4a "
                             "end-to-end timing)")
    perf_p.add_argument("--check", action="store_true",
                        help="exit non-zero if kernel events/sec fell "
                             ">30%% below the committed baseline")
    perf_p.add_argument("--out", metavar="PATH", default="BENCH_perf.json")
    perf_p.add_argument("--jobs", type=int, default=None, metavar="N")
    perf_p.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="kernel microbench repetitions (best-of-N)")
    perf_p.add_argument("--compare", type=int, nargs="?", const=0,
                        default=None, metavar="N",
                        help="render the recorded perf trajectory (last N "
                             "entries; all if N omitted) without "
                             "re-benchmarking")
    sub.add_parser("info", help="print version + calibration table")
    chaos_p = sub.add_parser(
        "chaos", help="deterministic fault-injection run")
    from repro.sim.faults import FAULT_KINDS
    chaos_p.add_argument("--plan", default="agent-crash",
                         choices=FAULT_KINDS)
    chaos_p.add_argument("--seed", type=int, default=42)
    chaos_p.add_argument("--fast", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args.experiment, args.fast, trace=args.trace,
                       metrics=args.metrics, profile=args.profile,
                       jobs=args.jobs)
    if args.command == "report":
        if args.history:
            return cmd_history(out=args.out, last=args.last)
        if args.experiment is None:
            print("report: an experiment name is required unless "
                  "--history is given", file=sys.stderr)
            return 2
        return cmd_report(args.experiment, args.fast, out=args.out,
                          jobs=args.jobs)
    if args.command == "analyze":
        return cmd_analyze(args.experiment, args.fast, out=args.out,
                           jobs=args.jobs, percentile=args.percentile)
    if args.command == "timeline":
        return cmd_timeline(args.experiment, args.fast, out=args.out,
                            jobs=args.jobs, json_path=args.json,
                            csv_path=args.csv, period_us=args.period_us)
    if args.command == "all":
        return cmd_all(args.fast, jobs=args.jobs)
    if args.command == "perf":
        return cmd_perf(args.fast, args.check, args.out, jobs=args.jobs,
                        repeats=args.repeats, compare=args.compare)
    if args.command == "info":
        return cmd_info()
    if args.command == "chaos":
        return cmd_chaos(args.plan, args.seed, args.fast)
    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
