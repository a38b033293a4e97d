"""``repro trace`` — capture, replay and inspect per-warp address traces.

Subcommands::

    repro trace gen     [--out DIR] [--family NAME]...        # export the trace suite
    repro trace capture BENCHMARK... [--kernel NAME] [--out DIR] [--verify]
    repro trace replay  TRACE_OR_BENCHMARK... [--schemes LIST] [--fast|--full]
    repro trace info    TRACE...

``capture`` writes each benchmark kernel's warp programs as a
``<kernel>.trc`` file — a completed run issues exactly its programs, so the
file is what a run of the kernel issues; ``--verify`` runs each kernel live
and from its trace under the same cycle budget and asserts the counters
are bit-identical.  ``replay`` accepts ``.trc`` paths and/or registered
benchmark names (the ``trace`` suite included) and runs them under any of
the evaluation schemes — through exactly the same profiling, caching and
model machinery the experiments use.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.tables import Table
from repro.trace.adapter import TraceKernelSpec, default_trace_filename, trace_kernel_from_file
from repro.trace.codec import TRACE_SUFFIX, TraceFormatError, trace_stats, write_trace
from repro.workloads.generator import generate_kernel_programs
from repro.workloads.registry import all_benchmarks, get_benchmark, trace_benchmarks
from repro.workloads.spec import KernelSpec

DEFAULT_SCHEMES = "gto,swl,pcal,poise,static_best"


def _known_schemes() -> frozenset:
    """Scheme names _build_controller accepts (validated before any heavy
    work, so `--schemes poise,typo` fails fast instead of after training)."""
    from repro.experiments.common import KNOWN_SCHEMES

    return frozenset(KNOWN_SCHEMES)


def _default_out_dir() -> Path:
    from repro.experiments.common import default_cache_dir

    return default_cache_dir() / "traces"


def _add_scale(parser: argparse.ArgumentParser) -> None:
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--fast", action="store_true", help="scaled-down test configuration")
    scale.add_argument("--full", action="store_true", help="paper-shaped configuration (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace", description="trace capture/replay tools"
    )
    sub = parser.add_subparsers(dest="trace_command", metavar="SUBCOMMAND", required=True)

    gen = sub.add_parser("gen", help="export the trace-native workload suite to .trc files")
    gen.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="output directory (default: <cache-dir>/traces)",
    )
    gen.add_argument(
        "--family", action="append", default=None, metavar="NAME",
        help="restrict to one family (repeatable; default: all)",
    )

    capture = sub.add_parser("capture", help="capture benchmark kernels as trace files")
    capture.add_argument("benchmarks", nargs="+", metavar="BENCHMARK")
    capture.add_argument(
        "--kernel", default=None, metavar="NAME", help="capture only this kernel"
    )
    capture.add_argument("--out", type=Path, default=None, metavar="DIR")
    capture.add_argument(
        "--max-cycles", type=int, default=None,
        help="cycle budget of each --verify run (default: sized from the kernel length)",
    )
    capture.add_argument(
        "--verify", action="store_true",
        help="run each kernel live and from its trace; assert counters are bit-identical",
    )
    _add_scale(capture)

    replay = sub.add_parser("replay", help="run traces/benchmarks under evaluation schemes")
    replay.add_argument(
        "targets", nargs="+", metavar="TRACE|BENCHMARK",
        help=f"{TRACE_SUFFIX} files and/or registered benchmark names",
    )
    replay.add_argument(
        "--schemes", default="gto", metavar="LIST",
        help=f"comma-separated schemes (default: gto; e.g. {DEFAULT_SCHEMES})",
    )
    replay.add_argument("--cache-dir", default=None, metavar="DIR")
    _add_scale(replay)

    info = sub.add_parser("info", help="print trace header, stats and content hash")
    info.add_argument("traces", nargs="+", type=Path, metavar="TRACE")
    info.add_argument(
        "--per-warp", action="store_true", help="also print the per-warp breakdown"
    )
    return parser


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    out_dir = args.out or _default_out_dir()
    wanted = set(args.family or [])
    known = {benchmark.name for benchmark in trace_benchmarks()}
    unknown = sorted(wanted - known)
    if unknown:
        print(
            f"error: unknown trace famil{'ies' if len(unknown) > 1 else 'y'} "
            f"{', '.join(unknown)} (known: {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    table = Table(title=f"Trace suite — {out_dir}", columns=["kernel", "family", "warps", "instructions", "hash", "file"])
    written = 0
    for benchmark in trace_benchmarks():
        if wanted and benchmark.name not in wanted:
            continue
        for spec in benchmark.kernels:
            programs = generate_kernel_programs(spec)
            path = out_dir / default_trace_filename(spec.name)
            content_hash = write_trace(
                path,
                programs,
                meta={
                    "kernel": spec.name,
                    "source": "family",
                    "family": spec.family,
                    "num_warps": len(programs),
                },
            )
            table.add_row(
                spec.name, spec.family, len(programs),
                sum(len(program) for program in programs), content_hash[:16], str(path),
            )
            written += 1
    print(table.to_text())
    print(f"\n{written} trace file(s) written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------


def _cmd_capture(args: argparse.Namespace) -> int:
    from repro.experiments.common import preset_config
    from repro.gpu.config import baseline_config
    from repro.gpu.gpu import GPU

    out_dir = args.out or _default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    # The scale preset bounds how many kernels per benchmark get captured
    # (fast: 1, full: 2 — the same limit the experiments evaluate).
    config = preset_config("fast" if args.fast else "full")
    specs: List[KernelSpec] = []
    for name in args.benchmarks:
        benchmark = get_benchmark(name)
        # An explicit --kernel overrides the scale limit (any kernel is
        # addressable by name); otherwise capture the limited set.
        candidates = benchmark.kernels if args.kernel else config.limited_kernels(benchmark)
        for spec in candidates:
            if args.kernel is None or spec.name == args.kernel:
                specs.append(spec)
    if not specs:
        print(f"error: no kernel named {args.kernel!r} in {args.benchmarks}", file=sys.stderr)
        return 2
    table = Table(
        title=f"Captured traces — {out_dir}",
        columns=["kernel", "cycles", "instructions", "hash", "verified", "file"],
    )
    for spec in specs:
        path = out_dir / default_trace_filename(spec.name)
        programs = generate_kernel_programs(spec)
        content_hash = write_trace(
            path,
            programs,
            meta={
                "kernel": spec.name,
                "source": "capture",
                "num_warps": len(programs),
                "captured_from": dataclasses.asdict(spec),
            },
        )
        instructions = sum(len(program) for program in programs)
        cycles, verified = "-", "-"
        if args.verify:
            # Every instruction takes >= 1 issue slot and stalls inflate
            # that; a run the budget truncates still replays bit-identically.
            budget = args.max_cycles or 50_000 + 16 * instructions
            gpu = GPU(baseline_config(max_cycles=budget))
            live = gpu.run_kernel(programs)
            replayed = gpu.run_kernel(generate_kernel_programs(trace_kernel_from_file(path)))
            if replayed.counters != live.counters:
                print(
                    f"error: {spec.name}: replay counters diverged from the live run",
                    file=sys.stderr,
                )
                return 1
            cycles, verified = live.cycles, "bit-identical"
        table.add_row(spec.name, cycles, instructions, content_hash[:16], verified, str(path))
    print(table.to_text())
    return 0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _resolve_replay_kernels(targets: Sequence[str], limit) -> List[KernelSpec]:
    kernels: List[KernelSpec] = []
    registered = all_benchmarks()
    for target in targets:
        # Registered names win over bare files so a stray local file named
        # like a benchmark cannot shadow it; trace files are addressed by
        # their suffix or an explicit path.
        if target in registered:
            kernels.extend(limit(registered[target]))
        elif target.endswith(TRACE_SUFFIX) or Path(target).is_file():
            kernels.append(trace_kernel_from_file(Path(target)))
        else:
            raise KeyError(
                f"{target!r} is neither a registered benchmark nor a trace file "
                f"(known benchmarks: {sorted(registered)})"
            )
    return kernels


def _cmd_replay(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.experiments.common import (
        preset_config,
        run_scheme_on_kernel,
        train_or_load_model,
    )

    config = preset_config("fast" if args.fast else "full")
    if args.cache_dir:
        config = replace(config, cache_dir=Path(args.cache_dir))
    schemes = [scheme.strip() for scheme in args.schemes.split(",") if scheme.strip()]
    known_schemes = _known_schemes()
    unknown = sorted(set(schemes) - known_schemes)
    if unknown:
        print(
            f"error: unknown scheme(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known_schemes))})",
            file=sys.stderr,
        )
        return 2
    try:
        kernels = _resolve_replay_kernels(args.targets, config.limited_kernels)
    except (KeyError, TraceFormatError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    model = None
    if any(scheme.startswith("poise") for scheme in schemes):
        model = train_or_load_model(config)
    table = Table(
        title=f"Trace replay ({config.label} configuration)",
        columns=["kernel", "scheme", "cycles", "instructions", "ipc", "l1_hit", "warp_tuple", "source"],
    )
    for spec in kernels:
        source = (
            getattr(spec, "family", "") or "file"
            if isinstance(spec, TraceKernelSpec)
            else "synthetic"
        )
        for scheme in schemes:
            result = run_scheme_on_kernel(scheme, spec, config, model=model)
            table.add_row(
                spec.name, scheme, result.cycles, result.counters.instructions,
                result.ipc, result.l1_hit_rate, str(result.warp_tuple), source,
            )
    print(table.to_text())
    print(f"\n{len(kernels)} kernel(s) x {len(schemes)} scheme(s) replayed")
    return 0


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------


def _cmd_info(args: argparse.Namespace) -> int:
    status = 0
    for path in args.traces:
        try:
            stats = trace_stats(path)
        except TraceFormatError as error:
            print(f"{path}: INVALID — {error}", file=sys.stderr)
            status = 1
            continue
        meta = stats["meta"]
        print(f"{path}")
        print(f"  kernel:       {meta.get('kernel', '?')}")
        print(f"  source:       {meta.get('source', '?')}"
              + (f" ({meta['family']})" if meta.get("family") else ""))
        print(f"  warps:        {stats['num_warps']}")
        print(f"  instructions: {stats['instructions']:,} ({stats['loads']:,} loads)")
        print(f"  unique lines: {stats['unique_lines']:,}")
        print(f"  content hash: {stats['content_hash']}")
        if args.per_warp:
            for row in stats["per_warp"]:
                print(
                    f"    warp {row['warp_id']:>3}: {row['instructions']:>8,} instructions, "
                    f"{row['loads']:>7,} loads"
                )
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trace_command == "gen":
        return _cmd_gen(args)
    if args.trace_command == "capture":
        try:
            return _cmd_capture(args)
        except KeyError as error:
            print(f"error: {error.args[0] if error.args else error}", file=sys.stderr)
            return 2
    if args.trace_command == "replay":
        return _cmd_replay(args)
    if args.trace_command == "info":
        return _cmd_info(args)
    raise AssertionError(f"unhandled subcommand {args.trace_command!r}")


if __name__ == "__main__":
    sys.exit(main())
