"""``repro sweep`` — declarative scenario-grid sweeps.

Subcommands::

    repro sweep list                                    # named grids
    repro sweep plan  GRID [--shard K/N] [--set ...]    # expansion, no runs
    repro sweep run   GRID [--shard K/N] [--resume] [--jobs N] [--set ...]
    repro sweep report GRID [--set ...]                 # aggregate + validate

``--shard K/N`` (1-based) runs the K-th of N disjoint, order-stable slices
of the grid: N containers pointed at N shards write disjoint per-point
artifacts whose union is byte-identical to one full run.  ``--resume``
skips points whose artifact already validates, so an interrupted (or
partially-sharded) sweep continues where it stopped; a corrupt artifact is
quarantined (moved aside, named in the run summary) and recomputed rather
than silently trusted — only ``report``-time aggregation treats corruption
as a hard error.  ``--set
AXIS=V1,V2`` overrides an axis of a named grid (tuple-valued axes use
colons, e.g. ``--set poise_strides=0:0,2:4``).
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Optional, Sequence, Tuple

from repro.analysis.tables import Table
from repro.runtime.executor import jobs_arg, jobs_budget
from repro.scenarios.grid import ScenarioError, ScenarioGrid, parse_shard
from repro.scenarios.library import apply_overrides, get_grid, named_grids
from repro.scenarios.report import (
    SweepSchema,
    aggregate,
    sweep_tables,
    write_sweep_artifact,
)
from repro.scenarios.runner import CorruptPointArtifact, PointStatus, SweepRunner


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("grid", metavar="GRID", help="a named grid (see `repro sweep list`)")
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--fast", action="store_true", help="scaled-down test configuration")
    scale.add_argument("--full", action="store_true", help="paper-shaped configuration (default)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact/result cache root (default: REPRO_CACHE_DIR)")
    parser.add_argument(
        "--set", action="append", default=[], metavar="AXIS=V1,V2", dest="overrides",
        help="override one axis of the grid (repeatable); tuple values use "
        "colons, e.g. --set poise_strides=0:0,2:4",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep", description="declarative scenario-grid sweeps"
    )
    sub = parser.add_subparsers(dest="sweep_command", metavar="SUBCOMMAND", required=True)

    sub.add_parser("list", help="catalogue of the named grids")

    plan = sub.add_parser("plan", help="print a grid's expansion without running it")
    _add_common(plan)
    plan.add_argument("--shard", default=None, metavar="K/N",
                      help="restrict the plan to one shard of the grid")

    run = sub.add_parser("run", help="execute a grid (or one shard) into point artifacts")
    _add_common(run)
    run.add_argument("--shard", default=None, metavar="K/N",
                     help="run the K-th of N disjoint slices of the grid")
    run.add_argument("--resume", action="store_true",
                     help="skip points whose artifact already validates; corrupt "
                     "artifacts are quarantined and recomputed")
    run.add_argument("--jobs", type=jobs_arg, default=None, metavar="N",
                     help="the REPRO_JOBS budget of the whole command: points fan "
                     "out over N worker processes, writing each artifact as it "
                     "lands, and a point run in this process fans out its own "
                     "runs; 0 or 'auto' = one per CPU core (default: serial, or "
                     "the REPRO_JOBS environment variable)")
    run.add_argument("--timeout", type=float, default=None, metavar="SECS",
                     help="per-point wall-clock timeout in seconds: a worker still "
                     "busy after SECS of waiting on its point is abandoned and the "
                     "point retried (default: REPRO_TIMEOUT, or no timeout)")
    run.add_argument("--retries", type=int, default=None, metavar="N",
                     help="retry budget per point for transient failures — worker "
                     "death, timeouts, OSError (default: REPRO_RETRIES, or 2)")

    report = sub.add_parser("report", help="aggregate point artifacts into the sweep artifact")
    _add_common(report)
    return parser


# ---------------------------------------------------------------------------
# shared setup
# ---------------------------------------------------------------------------

def _resolve(args: argparse.Namespace) -> Tuple[ScenarioGrid, "ExperimentConfig"]:
    from dataclasses import replace
    from pathlib import Path

    from repro.experiments.common import preset_config

    grid = apply_overrides(get_grid(args.grid), args.overrides)
    config = preset_config("fast" if args.fast else "full")
    if args.cache_dir:
        config = replace(config, cache_dir=Path(args.cache_dir))
    return grid, config


def _shard(args: argparse.Namespace) -> Optional[Tuple[int, int]]:
    if getattr(args, "shard", None) is None:
        return None
    return parse_shard(args.shard)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_list() -> int:
    table = Table(
        title="Named sweep grids",
        columns=["grid", "points", "axes", "description"],
    )
    for name, grid in sorted(named_grids().items()):
        axes = " × ".join(f"{axis}[{len(values)}]" for axis, values in grid.axes.items())
        table.add_row(name, grid.size, axes, grid.description)
    print(table.to_text())
    print(f"\n{len(table.rows)} grids registered")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    grid, config = _resolve(args)
    shard = _shard(args)
    runner = SweepRunner(grid, config)
    points = grid.shard(*shard) if shard else grid.points()
    scope = f"shard {args.shard} of " if shard else ""
    table = Table(
        title=f"Plan — {scope}{grid.name} ({config.label}), {len(points)} of {grid.size} points",
        columns=["point_id", "scenario", "artifact"],
    )
    for point in points:
        status = "present" if runner.point_path(point).exists() else "missing"
        table.add_row(point.point_id, point.describe(), status)
    print(table.to_text())
    print(f"\nartifacts land under {runner.root}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    grid, config = _resolve(args)
    shard = _shard(args)
    runner = SweepRunner(grid, config)

    def progress(status: PointStatus) -> None:
        print(f"{status.status:<9} {status.point.point_id:<40} {status.path}", flush=True)

    # Graceful interrupt: SIGINT/SIGTERM stop the sweep *between* points —
    # the in-flight artifact write completes, the telemetry sidecar is
    # written, no temp file is left behind — and the exit code says
    # "interrupted, resume to finish" instead of a traceback (or, for
    # SIGTERM's default disposition, an arbitrary mid-write kill).
    received: dict = {"signum": None}

    def _on_signal(signum, frame) -> None:
        received["signum"] = signum

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        with jobs_budget(args.jobs):
            report = runner.run_report(
                shard=shard,
                resume=args.resume,
                jobs=args.jobs,
                progress=progress,
                timeout=args.timeout,
                retries=args.retries,
                stop=lambda: received["signum"] is not None,
            )
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    scope = f"shard {args.shard}" if shard else "full grid"
    print(
        f"\nsweep {grid.name} ({config.label}, {scope}): "
        f"{report.computed} computed, {report.skipped} skipped, "
        f"artifacts under {runner.root}"
    )
    for line in report.summary_lines():
        print(line)
    if report.interrupted:
        name = signal.Signals(received["signum"]).name if received["signum"] else "signal"
        print(f"interrupted by {name} — rerun with --resume to finish", flush=True)
        return 130
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    grid, config = _resolve(args)
    payload = aggregate(grid, config)
    SweepSchema().validate(payload)
    path = write_sweep_artifact(payload, config.cache_dir)
    for table in sweep_tables(payload):
        print(table.to_text())
        print()
    print(f"{payload['num_points']} points aggregated — sweep artifact at {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.sweep_command == "list":
        return _cmd_list()
    try:
        if args.sweep_command == "plan":
            return _cmd_plan(args)
        if args.sweep_command == "run":
            return _cmd_run(args)
        if args.sweep_command == "report":
            return _cmd_report(args)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        # A corrupt artifact is an execution failure (1); a bad grid, axis
        # value or shard spec is a usage error (2).
        return 1 if isinstance(error, CorruptPointArtifact) else 2
    raise AssertionError(f"unhandled subcommand {args.sweep_command!r}")


if __name__ == "__main__":
    sys.exit(main())
