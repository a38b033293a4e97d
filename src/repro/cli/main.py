"""``python -m repro`` — the unified entry point of the reproduction.

Examples::

    python -m repro list --workloads
    python -m repro run fig07 fig08 --fast
    python -m repro sweep run l1-trace --fast --shard 1/2 --resume
    python -m repro trace gen --out /tmp/traces
    python -m repro run-all --fast --jobs 4 --cache-dir /tmp/poise
    python -m repro cache gc --max-age 7d --dry-run
    python -m repro report --fast
    python -m repro bench --dry-run
    python -m repro pretrain --fast --output /tmp/model.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.tables import ExperimentResult, Table
from repro.cli import runner
from repro.experiments import registry
from repro.experiments.common import default_cache_dir, preset_config, run_plan
from repro.obs.telemetry import (
    add_worker_cache,
    describe_phases,
    describe_run_cache,
    telemetry_delta,
    telemetry_snapshot,
)
from repro.runtime.executor import SweepExecutor, jobs_arg
from repro.version import __version__


def _add_scale_flags(parser: argparse.ArgumentParser) -> None:
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--fast", action="store_true",
        help="scaled-down test configuration (seconds per experiment)",
    )
    scale.add_argument(
        "--full", action="store_true",
        help="paper-shaped configuration (the default; minutes per experiment)",
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    _add_scale_flags(parser)
    parser.add_argument(
        "--jobs", type=jobs_arg, default=None, metavar="N",
        help="run the command's plan (the profiles, feature vectors, models "
        "and runs its experiments read) on N worker processes, then write "
        "the artifacts; 0 or 'auto' = one per CPU core (default: serial, or "
        "the REPRO_JOBS environment variable)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECS",
        help="per-job wall-clock timeout of the plan (a job is one kernel's "
        "misses in one stage, or one miss when there are fewer kernels than "
        "workers) when running in parallel: a worker still busy after SECS "
        "of waiting on its job is abandoned and the job retried (default: "
        "REPRO_TIMEOUT, or no timeout)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry budget per planned job for transient failures — worker "
        "death, timeouts, OSError (default: REPRO_RETRIES, or 2)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="override the artefact/result cache root (default: REPRO_CACHE_DIR "
        "or ~/.cache/poise-repro); artifacts land under DIR/artifacts/<label>/",
    )
    parser.add_argument(
        "--print-tables", action="store_true",
        help="print every experiment's full tables, not just the summary line",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Poise (HPCA'19) reproduction — experiment runner.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")

    list_parser = subparsers.add_parser(
        "list", help="catalogue of every registered experiment"
    )
    list_parser.add_argument(
        "--workloads", action="store_true",
        help="also print the benchmark/suite catalog (trace vs. synthetic)",
    )

    run_parser = subparsers.add_parser(
        "run", help="run one or more experiments and emit JSON artifacts",
        description="Run the experiments' plan (profiles, feature vectors, models, "
        "runs), then build each artifact from the warm cache.  An artifact's line "
        "shows its build time; the plan's time is on the phases: line.",
    )
    run_parser.add_argument(
        "ids", nargs="+", metavar="ID",
        help="experiment ids (see `repro list`), e.g. fig07 table02",
    )
    _add_run_flags(run_parser)

    run_all_parser = subparsers.add_parser(
        "run-all", help="run every registered experiment"
    )
    _add_run_flags(run_all_parser)

    report_parser = subparsers.add_parser(
        "report", help="summarise previously emitted artifacts"
    )
    _add_scale_flags(report_parser)
    report_parser.add_argument("--cache-dir", default=None, metavar="DIR")

    subparsers.add_parser(
        "bench", help="simulator throughput microbenchmarks", add_help=False
    )
    subparsers.add_parser(
        "pretrain", help="offline training of the Poise regression model", add_help=False
    )
    subparsers.add_parser(
        "trace", help="trace capture/replay/gen/info tools", add_help=False
    )
    subparsers.add_parser(
        "sweep", help="declarative scenario-grid sweeps (run|plan|report|list)",
        add_help=False,
    )
    subparsers.add_parser(
        "analyze",
        help="longitudinal perf/regression observatory (trajectory|compare|regress|ci)",
        add_help=False,
    )
    subparsers.add_parser(
        "cache", help="cache-root maintenance (gc)", add_help=False
    )
    return parser


def _label(args: argparse.Namespace) -> str:
    return "fast" if getattr(args, "fast", False) else "full"


def _cache_dir(args: argparse.Namespace) -> str:
    return args.cache_dir or str(default_cache_dir())


def _cmd_list(workloads: bool = False) -> int:
    if workloads:
        from repro.workloads.registry import all_benchmarks

        benchmarks = Table(
            title="Registered workloads",
            columns=["benchmark", "suite", "role", "kernels", "kind", "description"],
        )
        trace_count = 0
        for benchmark in all_benchmarks().values():
            is_trace = benchmark.role == "trace"
            trace_count += is_trace
            benchmarks.add_row(
                benchmark.name, benchmark.suite, benchmark.role, benchmark.num_kernels,
                "trace" if is_trace else "synthetic", benchmark.description,
            )
        print(benchmarks.to_text())
        print(
            f"\n{len(benchmarks.rows)} benchmarks registered "
            f"({trace_count} trace-native, {len(benchmarks.rows) - trace_count} synthetic)\n"
        )
    table = Table(title="Registered experiments", columns=["id", "paper artefact", "title"])
    for experiment in registry.all_experiments():
        table.add_row(experiment.experiment_id, experiment.artifact, experiment.title)
    print(table.to_text())
    print(f"\n{len(table.rows)} experiments registered")
    return 0


def _cmd_run(ids: Sequence[str], args: argparse.Namespace) -> int:
    label = _label(args)
    cache_dir = _cache_dir(args)
    # registry.get raises KeyError with suggestions for an unknown id.
    experiments = [registry.get(experiment_id) for experiment_id in dict.fromkeys(ids)]
    config = replace(preset_config(label), cache_dir=Path(cache_dir))

    # One plan: every entry the experiments read, computed once on one
    # executor; the builds then read the warm cache in this process.
    telemetry_before = telemetry_snapshot()
    executor = SweepExecutor(jobs=args.jobs, timeout=args.timeout, retries=args.retries)
    report = run_plan(
        [entry for experiment in experiments for entry in experiment.plan(config)], executor
    )

    schema_failures: List[str] = []
    for experiment in experiments:
        payload = runner.run_experiment(experiment, config)
        try:
            experiment.validate_artifact(payload)
            status = "ok"
        except ValueError as error:
            schema_failures.append(f"{experiment.experiment_id}: {error}")
            status = "SCHEMA-INVALID"
        path = runner.write_artifact(payload, cache_dir, label)
        print(
            f"{experiment.experiment_id:<9} {experiment.artifact:<14} "
            f"build {payload['elapsed_seconds']:>6.1f}s  {status}  {path}",
            flush=True,
        )
        if args.print_tables:
            print()
            print(ExperimentResult.from_dict(payload).to_text())
            print()
    if not report.clean:
        print(f"\n{report.summary()}")

    # Run telemetry.  The phase timers are per-process (a parallel plan
    # reports the parent's share), but the cache counters are complete:
    # pool workers ship their deltas home with their results
    # (JobReport.worker_cache), merged into the line printed here.
    delta = add_worker_cache(telemetry_delta(telemetry_before), report.worker_cache)
    print(f"cache: {describe_run_cache(delta)}")
    if delta["phases"]:
        print(f"phases: {describe_phases(delta['phases'])}")

    if schema_failures:
        print("\nartifact schema violations:", file=sys.stderr)
        for failure in schema_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    label = _label(args)
    cache_dir = _cache_dir(args)
    artifacts = runner.load_artifacts(cache_dir, label)
    directory = runner.artifacts_dir(cache_dir, label)
    if not artifacts:
        print(f"no artifacts under {directory} — run `python -m repro run-all` first")
        return 1
    table = Table(
        title=f"Artifacts ({label} configuration) — {directory}",
        columns=["id", "paper artefact", "tables", "scalars", "build (s)", "created"],
    )
    total = 0.0
    for payload in artifacts:
        elapsed = float(payload.get("elapsed_seconds", 0.0))
        total += elapsed
        table.add_row(
            str(payload.get("experiment_id")),
            str(payload.get("artifact", "?")),
            len(payload.get("tables", [])),
            len(payload.get("scalars", {})),
            elapsed,
            str(payload.get("created", "?")),
        )
    print(table.to_text())
    missing = sorted(
        set(registry.experiment_ids())
        - {str(payload.get("experiment_id")) for payload in artifacts}
    )
    print(
        f"\n{len(artifacts)} artifacts, {total:.1f}s total build time "
        "(the plan's time is on `repro run`'s phases: line)"
    )
    if missing:
        print(f"missing experiments: {', '.join(missing)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Fail fast on a bad ambient REPRO_ENGINE: every subcommand simulates
    # sooner or later, and without this check the ValueError only surfaces
    # deep inside build_sm, mid-run, as a traceback.
    from repro.gpu.engine import ENGINE_ENV, resolve_engine

    try:
        resolve_engine()
    except ValueError as error:
        print(f"error: {ENGINE_ENV}: {error}", file=sys.stderr)
        return 2
    # bench/pretrain own their argument parsing entirely (they predate the
    # unified CLI as stand-alone scripts), so dispatch before parsing.
    if argv and argv[0] == "bench":
        from repro.cli.bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "pretrain":
        from repro.cli.pretrain import main as pretrain_main

        return pretrain_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.cli.trace import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "sweep":
        from repro.cli.sweep import main as sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "analyze":
        from repro.cli.analyze import main as analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "cache":
        from repro.cli.cache_cli import main as cache_main

        return cache_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        return _cmd_list(workloads=args.workloads)
    try:
        if args.command == "run":
            return _cmd_run(args.ids, args)
        if args.command == "run-all":
            return _cmd_run(registry.experiment_ids(), args)
        if args.command == "report":
            return _cmd_report(args)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
