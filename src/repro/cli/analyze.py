"""``repro analyze`` — the longitudinal perf/regression observatory.

Subcommands::

    trajectory   per kernel×scheme×engine throughput series across the
                 committed BENCH_throughput.json entries (host-speed
                 normalized by each entry's live-legacy anchor)
    compare      diff one metric across two sweep label trees, point by
                 point, listing everything that drifted beyond a tolerance
    regress      judge every bracket against its own normalized history;
                 exit 1 when any bracket regressed
    ci           regress + trajectory in one pass, writing a schema-valid
                 verdict.json and trajectory.json for CI to consume

Exit codes: 0 pass (or insufficient data — a young history proves
nothing and must not fail the build), 1 a bracket regressed, 2 bad
usage/unreadable inputs.

Examples::

    python -m repro analyze trajectory --bracket fast
    python -m repro analyze compare smoke fast full --metric speedup
    python -m repro analyze regress --threshold 1.6 --output verdict.json
    python -m repro analyze ci --history BENCH_throughput.json --output-dir out/
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.tables import Table
from repro.obs.compare import SweepCompareError, compare_sweeps, load_sweep_points
from repro.obs.regress import (
    STATUS_REGRESS,
    build_verdict,
    detect_regressions,
    validate_verdict,
)
from repro.obs.schema import BenchHistory, BenchSchemaError, load_bench_history
from repro.obs.trajectory import build_trajectories, trajectory_report
from repro.runtime.cache import atomic_write_json


def _load_history_or_die(path: Path) -> BenchHistory:
    """Load a trajectory file; a schema violation or emptiness is fatal."""
    history = load_bench_history(path)
    if not history.entries:
        raise BenchSchemaError(
            f"no bench history at {path} — run `repro bench` to record an entry"
        )
    return history


def _cmd_trajectory(args: argparse.Namespace) -> int:
    history = _load_history_or_die(args.history)
    trajectories = build_trajectories(history)
    if args.bracket:
        trajectories = {
            bracket: trajectory
            for bracket, trajectory in trajectories.items()
            if args.bracket in bracket
        }
        if not trajectories:
            print(f"error: no bracket matches {args.bracket!r}", file=sys.stderr)
            return 2
    if args.json:
        report = trajectory_report(history)
        if args.bracket:
            report["brackets"] = {
                bracket: value
                for bracket, value in report["brackets"].items()
                if args.bracket in bracket
            }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    table = Table(
        title=f"Throughput trajectories — {args.history} "
              f"({len(history.entries)} entries)",
        columns=["bracket", "points", "first c/s", "latest c/s",
                 "norm first", "norm latest", "trend"],
    )
    for trajectory in trajectories.values():
        normalized = trajectory.normalized_values
        trend = (
            f"{normalized[-1] / normalized[0]:.2f}x"
            if len(normalized) >= 2 and normalized[0] > 0 else "-"
        )
        table.add_row(
            trajectory.bracket,
            len(trajectory.points),
            f"{trajectory.points[0].cycles_per_second:,.0f}",
            f"{trajectory.points[-1].cycles_per_second:,.0f}",
            f"{normalized[0]:.3f}" if normalized else "-",
            f"{normalized[-1]:.3f}" if normalized else "-",
            trend,
        )
    print(table.to_text())
    print(f"\n{len(trajectories)} brackets (trend = latest/first normalized; "
          f"normalized = cycles/s over the entry's live-legacy anchor)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    points_a = load_sweep_points(args.cache_dir, args.grid, args.label_a)
    points_b = load_sweep_points(args.cache_dir_b or args.cache_dir, args.grid, args.label_b)
    comparison = compare_sweeps(
        points_a, points_b, metric=args.metric, tolerance=args.tolerance,
        label_a=args.label_a, label_b=args.label_b,
    )
    if args.json:
        print(json.dumps(comparison, indent=2, sort_keys=True))
        return 0
    table = Table(
        title=f"Sweep comparison — {args.grid}: {args.label_a} vs {args.label_b} "
              f"({args.metric})",
        columns=["point", args.label_a, args.label_b, "delta", "relative", "drift"],
    )
    for row in comparison["points"]:
        table.add_row(
            row["point_id"],
            f"{row[args.label_a]:.4f}",
            f"{row[args.label_b]:.4f}",
            f"{row['delta']:+.4f}",
            f"{row['relative']:+.2%}",
            "DRIFTED" if row["drifted"] else "",
        )
    print(table.to_text())
    drifted = comparison["drifted"]
    print(f"\n{comparison['common']} common points, "
          f"{len(drifted)} drifted beyond {args.tolerance:.0%} "
          f"({len(comparison['only_a'])} only in {args.label_a}, "
          f"{len(comparison['only_b'])} only in {args.label_b})")
    for point_id in drifted:
        print(f"  drifted: {point_id}")
    return 0


def _judge(args: argparse.Namespace):
    history = _load_history_or_die(args.history)
    trajectories = build_trajectories(history)
    verdicts = detect_regressions(
        trajectories, threshold=args.threshold, min_history=args.min_history
    )
    verdict = build_verdict(
        verdicts, threshold=args.threshold, source=str(args.history)
    )
    validate_verdict(verdict)
    return history, verdict


def _print_verdict(verdict: dict) -> None:
    counts = verdict["counts"]
    print(
        f"verdict: {verdict['status']} — {counts['pass']} pass, "
        f"{counts['regress']} regress, "
        f"{counts['insufficient_data']} insufficient-data "
        f"(threshold {verdict['threshold']:.2f}x, source {verdict['source']})"
    )
    for bracket in verdict["brackets"]:
        if bracket["status"] == STATUS_REGRESS:
            print(f"regress: {bracket['bracket']} — {bracket['reason']}")


def _cmd_regress(args: argparse.Namespace) -> int:
    _, verdict = _judge(args)
    if args.json:
        print(json.dumps(verdict, indent=2, sort_keys=True))
    else:
        _print_verdict(verdict)
    if args.output is not None:
        atomic_write_json(args.output, verdict, indent=2, trailing_newline=True)
        if not args.json:
            print(f"wrote {args.output}")
    return 1 if verdict["status"] == STATUS_REGRESS else 0


def _cmd_ci(args: argparse.Namespace) -> int:
    history, verdict = _judge(args)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    verdict_path = atomic_write_json(
        args.output_dir / "verdict.json", verdict, indent=2, trailing_newline=True
    )
    trajectory_path = atomic_write_json(
        args.output_dir / "trajectory.json", trajectory_report(history),
        indent=2, trailing_newline=True,
    )
    _print_verdict(verdict)
    print(f"wrote {verdict_path} and {trajectory_path}")
    return 1 if verdict["status"] == STATUS_REGRESS else 0


def run(args: argparse.Namespace) -> int:
    commands = {
        "trajectory": _cmd_trajectory,
        "compare": _cmd_compare,
        "regress": _cmd_regress,
        "ci": _cmd_ci,
    }
    try:
        return commands[args.analyze_command](args)
    except (BenchSchemaError, SweepCompareError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
