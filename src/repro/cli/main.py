"""``python -m repro`` — the unified entry point of the reproduction.

One argparse tree declares every subcommand's arguments.  The flags that
several subcommands share are each defined once: :func:`_add_scale_flags`
(``--fast``/``--full``), :func:`_add_cache_dir` (``--cache-dir``; with the
scale flags, :func:`experiment_config` turns it into the command's
:class:`~repro.experiments.common.ExperimentConfig`) and
:func:`_add_executor_flags` (``--jobs``/``--timeout``/``--retries``).
``list``, ``run``, ``run-all`` and ``report`` are handled here; every other
subcommand is the ``run(args)`` of its module under :mod:`repro.cli`,
imported only when that subcommand runs.

Examples::

    python -m repro list --workloads
    python -m repro run fig07 fig08 --fast
    python -m repro sweep run l1-trace --fast --shard 1/2 --resume
    python -m repro trace capture gather stencil --out /tmp/traces
    python -m repro run-all --fast --jobs 4 --cache-dir /tmp/poise
    python -m repro cache gc --max-age 7d --dry-run
    python -m repro report --fast
    python -m repro bench --dry-run
    python -m repro pretrain --fast --output /tmp/model.json
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.analysis.tables import ExperimentResult, Table
from repro.cli import runner
from repro.experiments import registry
from repro.experiments.common import ExperimentConfig, default_cache_dir, run_plan
from repro.gpu.engine import ENGINE_ENV, resolve_engine
from repro.obs.telemetry import (
    add_worker_cache,
    describe_phases,
    describe_run_cache,
    telemetry_delta,
    telemetry_snapshot,
)
from repro.runtime.executor import DEFAULT_RETRIES, SweepExecutor, jobs_arg
from repro.version import __version__

#: The bench history ``bench`` appends to and ``analyze`` reads by default.
BENCH_HISTORY = Path("BENCH_throughput.json")

_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


# ---------------------------------------------------------------------------
# Argument types and the shared flags
# ---------------------------------------------------------------------------


def parse_age(raw: str) -> float:
    """Parse ``30s`` / ``10m`` / ``6h`` / ``7d`` (bare number = seconds)."""
    text = str(raw).strip().lower()
    scale = 1.0
    if text and text[-1] in _AGE_SUFFIXES:
        scale = _AGE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        seconds = float(text) * scale
        if seconds < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed age {raw!r} — expected e.g. 30s, 10m, 6h or 7d"
        ) from None
    return seconds


def _engines_arg(raw: str) -> List[str]:
    """A comma-separated list of simulator engines, each one of ``ENGINES``."""
    try:
        engines = [resolve_engine(name) for name in raw.split(",") if name.strip()]
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    if not engines:
        raise argparse.ArgumentTypeError("name at least one engine")
    return engines


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


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    # Resolved when the parser is built, at each main() call, so a
    # REPRO_CACHE_DIR set after import is honoured.
    parser.add_argument(
        "--cache-dir", type=Path, default=default_cache_dir(), metavar="DIR",
        help="cache root: results, models, artifacts (DIR/artifacts/<label>/), "
        "sweeps and traces live under it (default: REPRO_CACHE_DIR, else "
        "~/.cache/poise-repro)",
    )


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=jobs_arg, default=1, metavar="N",
        help="fan the command's jobs (the plan's entries of run, run-all and "
        "pretrain; the points of sweep run) out over N worker processes; 0 or "
        "'auto' = one per CPU core (default: 1, serial in-process)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECS",
        help="per-job wall-clock timeout when running in parallel: a worker "
        "still busy after SECS of waiting on its job is abandoned and the job "
        "retried (default: no timeout)",
    )
    parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
        help="retry budget per job for transient failures — worker death, "
        "timeouts, OSError (default: %(default)s)",
    )


def experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ``--fast``/``--full`` preset with ``--cache-dir`` as its cache root."""
    preset = ExperimentConfig.fast() if args.fast else ExperimentConfig.full()
    return replace(preset, cache_dir=args.cache_dir)


def _lazy(module: str) -> Callable[[argparse.Namespace], int]:
    """``repro.cli.<module>.run``, imported when the subcommand runs."""

    def handler(args: argparse.Namespace) -> int:
        return importlib.import_module(f"repro.cli.{module}").run(args)

    return handler


# ---------------------------------------------------------------------------
# The tree
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Poise (HPCA'19) reproduction — experiment runner.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    listing = commands.add_parser("list", help="catalogue of every registered experiment")
    listing.add_argument(
        "--workloads", action="store_true",
        help="also print the benchmark/suite catalog (trace vs. synthetic)",
    )
    listing.set_defaults(handler=_cmd_list)

    run = commands.add_parser(
        "run", help="run one or more experiments and emit JSON artifacts",
        description="Run the experiments' plan (profiles, feature vectors, models, "
        "runs), then build each artifact from the warm cache.  An artifact's line "
        "shows its build time; the plan's time is on the phases: line.",
    )
    run.add_argument(
        "ids", nargs="+", metavar="ID",
        help="experiment ids (see `repro list`), e.g. fig07 table02",
    )
    run_all = commands.add_parser("run-all", help="run every registered experiment")
    run_all.set_defaults(ids=None)
    for command in (run, run_all):
        command.add_argument(
            "--print-tables", action="store_true",
            help="print every experiment's full tables, not just the summary line",
        )
        command.set_defaults(handler=_cmd_run)

    report = commands.add_parser("report", help="summarise previously emitted artifacts")
    report.set_defaults(handler=_cmd_report)

    bench = commands.add_parser(
        "bench", help="simulator throughput microbenchmarks",
        description="Measure hot-loop, trace-replay, matrix and sweep throughput "
        "and append one entry to the bench history.",
    )
    bench.add_argument(
        "--output", type=Path, default=BENCH_HISTORY,
        help="trajectory file to append to (default: ./BENCH_throughput.json)",
    )
    bench.add_argument(
        "--max-cycles", type=int, default=80_000,
        help="cycle budget per throughput kernel (default 80000)",
    )
    bench.add_argument(
        "--engines", type=_engines_arg, default="fast,legacy",
        help="comma-separated engines to benchmark (default: fast,legacy)",
    )
    bench.add_argument(
        "--skip-matrix", action="store_true",
        help="skip the scheme × kernel × engine matrix",
    )
    bench.add_argument(
        "--matrix-cycles", type=int, default=40_000,
        help="cycle budget per matrix cell (default 40000; CI uses a tiny budget)",
    )
    bench.add_argument(
        "--skip-sweep", action="store_true",
        help="skip the cold/warm profile-sweep measurement",
    )
    bench.add_argument(
        "--gate", type=float, default=None, metavar="RATIO",
        help="fail unless fast-engine throughput is at least RATIO x a live "
        "legacy run on this host for both bracket kernels, and 10x on the "
        "memory-stall bracket",
    )
    bench.add_argument(
        "--dry-run", action="store_true",
        help="print the entry instead of appending it (the history is not read)",
    )
    bench.set_defaults(handler=_lazy("bench"))

    pretrain = commands.add_parser(
        "pretrain", help="offline training of the Poise regression model",
        description="Profile the training kernels, fit the model and store it in "
        "the result cache as the preset's model-<key>.json entry.",
    )
    pretrain.add_argument(
        "--output", type=Path, default=None,
        help="also write the trained model JSON here",
    )
    pretrain.set_defaults(handler=_lazy("pretrain"))

    trace = commands.add_parser("trace", help="trace capture/replay/info tools")
    trace_commands = trace.add_subparsers(
        dest="trace_command", metavar="SUBCOMMAND", required=True
    )
    capture = trace_commands.add_parser(
        "capture", help="write benchmark kernels (the trace suite's families "
        "included) as trace files",
    )
    capture.add_argument("benchmarks", nargs="+", metavar="BENCHMARK")
    capture.add_argument(
        "--kernel", default=None, metavar="NAME", help="capture only this kernel"
    )
    capture.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="output directory (default: <cache-dir>/traces)",
    )
    capture.add_argument(
        "--max-cycles", type=int, default=None,
        help="cycle budget of each --verify run (default: sized from the kernel length)",
    )
    capture.add_argument(
        "--verify", action="store_true",
        help="run each kernel live and from its trace; assert counters are bit-identical",
    )
    replay = trace_commands.add_parser(
        "replay", help="run traces/benchmarks under evaluation schemes"
    )
    replay.add_argument(
        "targets", nargs="+", metavar="TRACE|BENCHMARK",
        help=".trc files and/or registered benchmark names",
    )
    replay.add_argument(
        "--schemes", default="gto", metavar="LIST",
        help="comma-separated schemes (default: gto; e.g. gto,swl,pcal,poise,static_best)",
    )
    info = trace_commands.add_parser(
        "info", help="print trace header, stats and content hash"
    )
    info.add_argument("traces", nargs="+", type=Path, metavar="TRACE")
    info.add_argument(
        "--per-warp", action="store_true", help="also print the per-warp breakdown"
    )
    trace.set_defaults(handler=_lazy("trace"))

    sweep = commands.add_parser(
        "sweep", help="declarative scenario-grid sweeps (run|plan|report|list)"
    )
    sweep_commands = sweep.add_subparsers(
        dest="sweep_command", metavar="SUBCOMMAND", required=True
    )
    sweep_commands.add_parser("list", help="catalogue of the named grids")
    sweep_plan = sweep_commands.add_parser(
        "plan", help="print a grid's expansion without running it"
    )
    sweep_run = sweep_commands.add_parser(
        "run", help="execute a grid (or one shard) into point artifacts"
    )
    sweep_report = sweep_commands.add_parser(
        "report", help="aggregate point artifacts into the sweep artifact"
    )
    for grid_parser in (sweep_plan, sweep_run, sweep_report):
        grid_parser.add_argument(
            "grid", metavar="GRID", help="a named grid (see `repro sweep list`)"
        )
        grid_parser.add_argument(
            "--set", action="append", default=[], metavar="AXIS=V1,V2", dest="overrides",
            help="override one axis of the grid (repeatable); tuple values use "
            "colons, e.g. --set poise_strides=0:0,2:4",
        )
    for sharded in (sweep_plan, sweep_run):
        sharded.add_argument(
            "--shard", default=None, metavar="K/N",
            help="restrict the command to the K-th of N disjoint slices of the grid",
        )
    sweep_run.add_argument(
        "--resume", action="store_true",
        help="skip points whose artifact already validates; corrupt "
        "artifacts are quarantined and recomputed",
    )
    sweep.set_defaults(handler=_lazy("sweep"))

    analyze = commands.add_parser(
        "analyze",
        help="longitudinal perf/regression observatory (trajectory|compare|regress|ci)",
    )
    analyze_commands = analyze.add_subparsers(
        dest="analyze_command", metavar="SUBCOMMAND", required=True
    )
    # The defaults below are repro.obs.compare's and repro.obs.regress's,
    # written out so that parsing imports neither (tests/test_cli_main.py
    # pins them to the library's constants).
    trajectory = analyze_commands.add_parser(
        "trajectory", help="per kernel×scheme×engine throughput series"
    )
    trajectory.add_argument(
        "--bracket", default=None, metavar="SUBSTR",
        help="only brackets whose kernel:scheme:engine key contains SUBSTR",
    )
    compare = analyze_commands.add_parser(
        "compare", help="diff one metric across two sweep label trees"
    )
    compare.add_argument("grid", help="sweep grid name (see `repro sweep list`)")
    compare.add_argument("label_a", help="first label, e.g. fast")
    compare.add_argument("label_b", help="second label, e.g. full")
    compare.add_argument(
        "--cache-dir-b", type=Path, default=None, metavar="DIR",
        help="separate cache root for the second label (tree-vs-tree diffs)",
    )
    compare.add_argument(
        "--metric", default="speedup", help="point metric to diff (default speedup)"
    )
    compare.add_argument(
        "--tolerance", type=float, default=0.05, metavar="REL",
        help="relative drift beyond which a point is flagged (default 0.05)",
    )
    regress = analyze_commands.add_parser(
        "regress", help="judge every bracket against its normalized history"
    )
    regress.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="also write the verdict document to PATH",
    )
    ci = analyze_commands.add_parser(
        "ci", help="regress + trajectory, writing verdict.json for CI"
    )
    ci.add_argument(
        "--output-dir", type=Path, default=Path("analyze-report"), metavar="DIR",
        help="directory for verdict.json + trajectory.json (default: ./analyze-report)",
    )
    for judged in (regress, ci):
        judged.add_argument(
            "--threshold", type=float, default=1.6, metavar="RATIO",
            help="slowdown ratio that fails a bracket: regress when the latest "
            "normalized value drops below 1/RATIO x the baseline median "
            "(default 1.6)",
        )
        judged.add_argument(
            "--min-history", type=int, default=2, metavar="N",
            help="normalized points a bracket needs before it can pass or "
            "regress; fewer is insufficient-data (default 2)",
        )
    for historical in (trajectory, regress, ci):
        historical.add_argument(
            "--history", type=Path, default=BENCH_HISTORY, metavar="PATH",
            help="trajectory file to analyze (default: ./BENCH_throughput.json)",
        )
    for documented in (trajectory, compare, regress):
        documented.add_argument(
            "--json", action="store_true",
            help="emit the machine-readable document instead of the summary",
        )
    analyze.set_defaults(handler=_lazy("analyze"))

    cache = commands.add_parser("cache", help="cache-root maintenance (gc)")
    cache_commands = cache.add_subparsers(
        dest="cache_command", metavar="SUBCOMMAND", required=True
    )
    gc = cache_commands.add_parser(
        "gc", help="reclaim aged quarantine files, orphaned sweep trees and stale temp files"
    )
    gc.add_argument(
        "--max-age", type=parse_age, default="7d", metavar="AGE",
        help="age threshold with s/m/h/d suffix (default: 7d)",
    )
    gc.add_argument(
        "--dry-run", action="store_true",
        help="print what would be reclaimed without deleting anything",
    )
    cache.set_defaults(handler=_lazy("cache_cli"))

    # The shared flags, each defined once, on every command that reads them.
    configured = (run, run_all, report, pretrain, capture, replay,
                  sweep_plan, sweep_run, sweep_report)
    for command in configured:
        _add_scale_flags(command)
    for command in (*configured, compare, gc):
        _add_cache_dir(command)
    for command in (run, run_all, pretrain, sweep_run):
        _add_executor_flags(command)
    return parser


# ---------------------------------------------------------------------------
# list / run / run-all / report
# ---------------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    if args.workloads:
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


def _cmd_run(args: argparse.Namespace) -> int:
    config = experiment_config(args)
    ids = args.ids or registry.experiment_ids()
    try:
        # registry.get raises KeyError with suggestions for an unknown id.
        experiments = [registry.get(experiment_id) for experiment_id in dict.fromkeys(ids)]
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

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
        path = runner.write_artifact(payload, config.cache_dir, config.label)
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
    config = experiment_config(args)
    artifacts = runner.load_artifacts(config.cache_dir, config.label)
    directory = runner.artifacts_dir(config.cache_dir, config.label)
    if not artifacts:
        print(f"no artifacts under {directory} — run `python -m repro run-all` first")
        return 1
    table = Table(
        title=f"Artifacts ({config.label} configuration) — {directory}",
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
    # Fail fast on a bad ambient REPRO_ENGINE: every subcommand simulates
    # sooner or later, and without this check the ValueError only surfaces
    # deep inside build_sm, mid-run, as a traceback.
    try:
        resolve_engine()
    except ValueError as error:
        print(f"error: {ENGINE_ENV}: {error}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)
