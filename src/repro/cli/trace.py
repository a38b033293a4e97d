"""``repro trace`` — capture, replay and inspect per-warp address traces.

Subcommands::

    repro trace capture BENCHMARK... [--kernel NAME] [--out DIR] [--verify]
    repro trace replay  TRACE_OR_BENCHMARK... [--schemes LIST] [--fast|--full]
    repro trace info    TRACE...

``capture`` writes each benchmark kernel's warp programs as a
``<kernel>.trc`` file — a completed run issues exactly its programs, so the
file is what a run of the kernel issues.  Capturing the ``trace`` suite's
benchmarks (``stencil transpose gather treereduce phasemix``) exports the
trace-native families, and each file's header names its family.
``--verify`` runs each kernel live and from its trace under the same cycle
budget, asserts the counters are bit-identical and marks a run the budget
stops ``truncated``.  ``replay`` accepts ``.trc`` paths and/or registered
benchmark names (the ``trace`` suite included) and runs them under any of
the evaluation schemes — through exactly the same profiling, caching and
model machinery the experiments use.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Sequence

from repro.analysis.tables import Table
from repro.cli.main import experiment_config
from repro.experiments.common import KNOWN_SCHEMES, run_scheme_on_kernel, train_or_load_model
from repro.gpu.config import baseline_config
from repro.gpu.gpu import GPU
from repro.trace.adapter import TraceKernelSpec, default_trace_filename, trace_kernel_from_file
from repro.trace.codec import TRACE_SUFFIX, TraceFormatError, trace_stats, write_trace
from repro.workloads.generator import generate_kernel_programs
from repro.workloads.registry import all_benchmarks, get_benchmark
from repro.workloads.spec import KernelSpec


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------


def _cmd_capture(args: argparse.Namespace) -> int:
    # The scale preset bounds how many kernels per benchmark get captured
    # (fast: 1, full: 2 — the same limit the experiments evaluate).
    config = experiment_config(args)
    out_dir = args.out or config.cache_dir / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
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
        meta = {
            "kernel": spec.name,
            "source": "capture",
            "num_warps": len(programs),
            "captured_from": dataclasses.asdict(spec),
        }
        if getattr(spec, "family", ""):
            meta["family"] = spec.family  # `trace info` names it
        content_hash = write_trace(path, programs, meta=meta)
        instructions = sum(len(program) for program in programs)
        cycles, verified = "-", "-"
        if args.verify:
            # Every instruction takes >= 1 issue slot and stalls inflate
            # that: stencil and transpose need ~16.5 and ~18.5 cycles each,
            # so 64 leaves headroom.
            budget = args.max_cycles or 50_000 + 64 * instructions
            gpu = GPU(baseline_config(max_cycles=budget))
            live = gpu.run_kernel(programs)
            replayed = gpu.run_kernel(generate_kernel_programs(trace_kernel_from_file(path)))
            if replayed.counters != live.counters:
                print(
                    f"error: {spec.name}: replay counters diverged from the live run",
                    file=sys.stderr,
                )
                return 1
            cycles = live.cycles
            verified = "bit-identical" if live.completed else "truncated"
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
    config = experiment_config(args)
    schemes = [scheme.strip() for scheme in args.schemes.split(",") if scheme.strip()]
    # Checked before any heavy work, so `--schemes poise,typo` fails fast
    # instead of after training.
    unknown = sorted(set(schemes) - set(KNOWN_SCHEMES))
    if unknown:
        print(
            f"error: unknown scheme(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(KNOWN_SCHEMES))})",
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


def run(args: argparse.Namespace) -> int:
    if args.trace_command == "capture":
        try:
            return _cmd_capture(args)
        except KeyError as error:
            print(f"error: {error.args[0] if error.args else error}", file=sys.stderr)
            return 2
    if args.trace_command == "replay":
        return _cmd_replay(args)
    return _cmd_info(args)
