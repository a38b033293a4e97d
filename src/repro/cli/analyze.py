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
from typing import Optional, Sequence

from repro.analysis.tables import Table
from repro.obs.compare import (
    DEFAULT_METRIC,
    DEFAULT_TOLERANCE,
    SweepCompareError,
    compare_sweeps,
    load_sweep_points,
)
from repro.obs.regress import (
    DEFAULT_MIN_HISTORY,
    DEFAULT_THRESHOLD,
    STATUS_REGRESS,
    build_verdict,
    detect_regressions,
    validate_verdict,
)
from repro.obs.schema import BenchHistory, BenchSchemaError, load_bench_history
from repro.obs.trajectory import build_trajectories, retired_brackets, trajectory_report
from repro.runtime.cache import atomic_write_json

DEFAULT_HISTORY = Path("BENCH_throughput.json")


def _load_history_or_die(path: Path) -> BenchHistory:
    """Load a trajectory file; a schema violation or emptiness is fatal."""
    history = load_bench_history(path)
    if not history.entries:
        raise BenchSchemaError(
            f"no bench history at {path} — run `repro bench` to record an entry"
        )
    return history


def _retired_line(history: BenchHistory) -> str:
    """How many brackets of retired engines the analysis left out."""
    retired = retired_brackets(history)
    engines = sorted({bracket.rsplit(":", 1)[1] for bracket in retired})
    return (
        f"left out {len(retired)} bracket(s) of retired engines "
        f"({', '.join(engines) or 'none'})"
    )


def _history_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--history", type=Path, default=DEFAULT_HISTORY, metavar="PATH",
        help="trajectory file to analyze (default: ./BENCH_throughput.json)",
    )


def _regress_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD, metavar="RATIO",
        help="slowdown ratio that fails a bracket: regress when the latest "
             "normalized value drops below 1/RATIO x the baseline median "
             f"(default {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--min-history", type=int, default=DEFAULT_MIN_HISTORY, metavar="N",
        help="normalized points a bracket needs before it can pass or "
             f"regress; fewer is insufficient-data (default {DEFAULT_MIN_HISTORY})",
    )


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
    print(_retired_line(history))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cache_a = args.cache_dir
    cache_b = args.cache_dir_b or args.cache_dir
    points_a = load_sweep_points(cache_a, args.grid, args.label_a)
    points_b = load_sweep_points(cache_b, args.grid, args.label_b)
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


def _print_verdict(history: BenchHistory, verdict: dict) -> None:
    counts = verdict["counts"]
    print(
        f"verdict: {verdict['status']} — {counts['pass']} pass, "
        f"{counts['regress']} regress, "
        f"{counts['insufficient_data']} insufficient-data "
        f"(threshold {verdict['threshold']:.2f}x, source {verdict['source']})"
    )
    print(_retired_line(history))
    for bracket in verdict["brackets"]:
        if bracket["status"] == STATUS_REGRESS:
            print(f"regress: {bracket['bracket']} — {bracket['reason']}")


def _cmd_regress(args: argparse.Namespace) -> int:
    history, verdict = _judge(args)
    if args.json:
        print(json.dumps(verdict, indent=2, sort_keys=True))
    else:
        _print_verdict(history, verdict)
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
    _print_verdict(history, verdict)
    print(f"wrote {verdict_path} and {trajectory_path}")
    return 1 if verdict["status"] == STATUS_REGRESS else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="longitudinal perf/regression observatory over the "
                    "committed bench + sweep artifacts",
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    trajectory = sub.add_parser(
        "trajectory", help="per kernel×scheme×engine throughput series"
    )
    _history_flag(trajectory)
    trajectory.add_argument(
        "--bracket", default=None, metavar="SUBSTR",
        help="only brackets whose kernel:scheme:engine key contains SUBSTR",
    )
    trajectory.add_argument("--json", action="store_true",
                            help="emit the machine-readable report instead")

    compare = sub.add_parser(
        "compare", help="diff one metric across two sweep label trees"
    )
    compare.add_argument("grid", help="sweep grid name (see `repro sweep list`)")
    compare.add_argument("label_a", help="first label, e.g. fast")
    compare.add_argument("label_b", help="second label, e.g. full")
    compare.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache root holding both trees (default: REPRO_CACHE_DIR)",
    )
    compare.add_argument(
        "--cache-dir-b", default=None, metavar="DIR",
        help="separate cache root for the second label (tree-vs-tree diffs)",
    )
    compare.add_argument(
        "--metric", default=DEFAULT_METRIC,
        help=f"point metric to diff (default {DEFAULT_METRIC})",
    )
    compare.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="REL",
        help="relative drift beyond which a point is flagged "
             f"(default {DEFAULT_TOLERANCE})",
    )
    compare.add_argument("--json", action="store_true",
                         help="emit the machine-readable comparison instead")

    regress = sub.add_parser(
        "regress", help="judge every bracket against its normalized history"
    )
    _history_flag(regress)
    _regress_flags(regress)
    regress.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="also write the verdict document to PATH",
    )
    regress.add_argument("--json", action="store_true",
                         help="emit the verdict document instead of the summary")

    ci = sub.add_parser(
        "ci", help="regress + trajectory, writing verdict.json for CI"
    )
    _history_flag(ci)
    _regress_flags(ci)
    ci.add_argument(
        "--output-dir", type=Path, default=Path("analyze-report"), metavar="DIR",
        help="directory for verdict.json + trajectory.json "
             "(default: ./analyze-report)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    commands = {
        "trajectory": _cmd_trajectory,
        "compare": _cmd_compare,
        "regress": _cmd_regress,
        "ci": _cmd_ci,
    }
    if args.command == "compare":
        from repro.experiments.common import default_cache_dir

        if args.cache_dir is None:
            args.cache_dir = str(default_cache_dir())
    try:
        return commands[args.command](args)
    except (BenchSchemaError, SweepCompareError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
