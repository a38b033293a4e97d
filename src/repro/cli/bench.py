"""``repro bench`` — simulator throughput microbenchmarks.

Appends one entry to ``BENCH_throughput.json`` (a JSON list, by default in
the current directory) with:

* hot-loop throughput (simulated cycles per wall-clock second) on the
  memory-divergent, compute-intensive and memory-stall bracket kernels,
  measured **per engine** (``fast`` and ``legacy``),
* a trace-replay row (decode + replay of a stencil-family trace),
* the full bench **matrix** — every evaluation scheme
  (gto/swl/pcal/poise/static_best) × representative synthetic and
  trace-family kernels × every engine — so the perf trajectory accumulates
  comparable data points,
* the fast-profile sweep wall-clock (cold serial vs. warm persistent-cache
  vs. parallel).

Every record carries ``engine``, ``python_version`` and ``cpu_count``; all
timing is ``time.perf_counter``.  Unless ``--dry-run`` is given, the
history is read with the strict reader of :mod:`repro.obs.schema` before
anything is measured: a file that is not a valid v2 history makes the
command exit 2 and is left untouched.  The new entry is checked against
the v2 schema (exit 1 if it fails) and appended atomically.

``--gate RATIO`` turns the run into a CI perf gate: it fails (exit 1) when
the fast engine's throughput drops below ``RATIO`` × a **live legacy run on
the same host** on either bracket kernel — a host-speed-independent
regression signal (both engines pay the same slowdown on a throttled
runner) — or below 10x live legacy on the MSHR-saturating memory-stall
bracket, where the fast engine jumps the MSHR-full retry spans the oracle
ticks.  The host-normalized trend across entries is what ``repro analyze
trajectory`` reports.

Usage::

    python -m repro bench [--output PATH] [--jobs N] [--max-cycles N]
                          [--engines fast,legacy] [--skip-matrix]
                          [--matrix-cycles N] [--gate RATIO] [--dry-run]
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.gpu.engine import resolve_engine
from repro.obs.schema import (
    BENCH_SCHEMA_VERSION,
    BenchSchemaError,
    append_bench_entry,
    load_bench_history,
    validate_bench_entry,
)
from repro.obs.telemetry import telemetry_delta, telemetry_snapshot
from repro.runtime.bench import (
    BENCH_ROUNDS,
    GATE_KERNELS,
    MSHR_GATE_KERNEL,
    MSHR_GATE_RATIO,
    compute_intensive_kernel,
    host_environment,
    measure_matrix,
    measure_sweep,
    measure_throughput,
    measure_trace_replay,
    memory_divergent_kernel,
    memory_stall_config,
    memory_stall_kernel,
)
from repro.runtime.executor import jobs_arg, resolve_jobs
from repro.version import __version__

DEFAULT_OUTPUT = Path("BENCH_throughput.json")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro bench", description=__doc__)
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="trajectory file to append to (default: ./BENCH_throughput.json)",
    )
    parser.add_argument(
        "--jobs", type=jobs_arg, default=4,
        help="worker count for the parallel sweep measurement; 0 or 'auto' = "
        "one per CPU core (default 4)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=80_000,
        help="cycle budget per throughput kernel (default 80000)",
    )
    parser.add_argument(
        "--engines", default="fast,legacy",
        help="comma-separated engines to benchmark (default: fast,legacy)",
    )
    parser.add_argument(
        "--skip-matrix", action="store_true",
        help="skip the scheme × kernel × engine matrix",
    )
    parser.add_argument(
        "--matrix-cycles", type=int, default=40_000,
        help="cycle budget per matrix cell (default 40000; CI uses a tiny budget)",
    )
    parser.add_argument(
        "--skip-sweep", action="store_true",
        help="skip the cold/warm/parallel profile-sweep measurement",
    )
    parser.add_argument(
        "--gate", type=float, default=None, metavar="RATIO",
        help="fail unless fast-engine throughput is at least RATIO x a live "
             "legacy run on this host for both bracket kernels, and "
             f"{MSHR_GATE_RATIO:g}x on the memory-stall bracket",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="print the entry instead of appending it (the history is not read)",
    )
    args = parser.parse_args(argv)

    try:
        engines = [resolve_engine(name) for name in args.engines.split(",") if name.strip()]
    except ValueError as error:
        parser.error(f"--engines: {error}")
    if not engines:
        parser.error("--engines must name at least one engine")

    if not args.dry_run:
        # Read the history before measuring anything: a file the strict
        # reader rejects is reported and left as it is, never replaced.
        try:
            load_bench_history(args.output)
        except (BenchSchemaError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    # Bracket the whole measurement with the run-telemetry layer: the entry
    # records what the bench run itself cost (cache behaviour, per-phase
    # wall-clock, per-stage wall-clock).
    telemetry_before = telemetry_snapshot()
    stages: Dict[str, float] = {}
    stage_start = time.perf_counter()

    def stage_done(name: str) -> None:
        nonlocal stage_start
        now = time.perf_counter()
        stages[name] = now - stage_start
        stage_start = now

    throughput: Dict[str, dict] = {}
    stall_config = memory_stall_config(max_cycles=args.max_cycles)
    for engine in engines:
        rows = {}
        for spec, config in (
            (memory_divergent_kernel(), None),
            (compute_intensive_kernel(), None),
            (memory_stall_kernel(), stall_config),
        ):
            result = measure_throughput(
                spec, max_cycles=args.max_cycles, engine=engine, rounds=BENCH_ROUNDS,
                config=config,
            )
            rows[spec.name] = result
            print(
                f"[{engine}] {spec.name}: {result['cycles_per_second']:,.0f} cycles/s "
                f"({result['cycles']:,} cycles in {result['wall_seconds']:.3f}s)"
            )
        throughput[engine] = rows
    stage_done("throughput")

    # Trace replay: decode a stencil-family trace file and simulate it — the
    # file-to-counters path the trace subsystem adds.
    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        result = measure_trace_replay(Path(tmp), max_cycles=args.max_cycles)
    throughput["trace_replay"] = result
    print(
        f"trace_replay ({result['kernel']}, {result['engine']}): "
        f"{result['cycles_per_second']:,.0f} cycles/s "
        f"({result['cycles']:,} cycles in {result['wall_seconds']:.3f}s, "
        f"decode {result['decode_seconds']:.3f}s)"
    )
    stage_done("trace_replay")

    matrix: List[dict] = []
    if not args.skip_matrix:
        matrix = measure_matrix(engines=engines, max_cycles=args.matrix_cycles)
        print(f"matrix: {len(matrix)} rows "
              f"({len(set(r['kernel'] for r in matrix))} kernels x "
              f"{len(set(r['scheme'] for r in matrix))} schemes x {len(engines)} engines)")
        for row in matrix:
            print(
                f"  {row['kernel']:<24} {row['scheme']:<12} [{row['engine']}] "
                f"{row['cycles_per_second']:,.0f} cycles/s"
            )
        stage_done("matrix")

    sweep: dict = {}
    if not args.skip_sweep:
        # A fresh temp directory keeps the cold sweep honest.
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            sweep = measure_sweep(Path(tmp), parallel_jobs=args.jobs)
        print(
            f"fast-profile sweep ({sweep['points']} points): "
            f"cold {sweep['cold_seconds']:.2f}s, warm {sweep['warm_seconds']:.3f}s "
            f"({sweep['warm_speedup']:.0f}x), "
            f"parallel({sweep['parallel_jobs']}) {sweep['parallel_seconds']:.2f}s, "
            f"identical counters: {sweep['parallel_matches_serial']}"
        )
        stage_done("sweep")

    telemetry = telemetry_delta(telemetry_before)
    telemetry["stages"] = stages
    entry = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
        "bench_schema": BENCH_SCHEMA_VERSION,
        "jobs_env": resolve_jobs(),
        "environment": host_environment(),
        "telemetry": telemetry,
        "throughput": throughput,
        "matrix": matrix,
        "sweep": sweep,
    }
    # The append-time schema gate: shape drift stops at the writer, before
    # the strict reader would have to refuse the whole history.
    try:
        validate_bench_entry(entry)
    except BenchSchemaError as error:
        print(
            f"error: refusing to append a schema-invalid bench entry: {error}",
            file=sys.stderr,
        )
        return 1

    gate_failed = False
    if args.gate is not None:
        fast_rows = throughput.get("fast")
        legacy_rows = throughput.get("legacy")
        if fast_rows is None or legacy_rows is None:
            print("gate: FAIL — the gate needs both engines benchmarked "
                  "(run with --engines fast,legacy)")
            gate_failed = True
        else:
            # The gate itself is host-independent: fast vs a live legacy run
            # on this machine, both paying the same host slowdown.  On the
            # memory-stall bracket the bar is higher: it fails if the
            # MSHR-retry jump stops firing.
            gates = [(kernel, args.gate) for kernel in GATE_KERNELS]
            gates.append((MSHR_GATE_KERNEL, MSHR_GATE_RATIO))
            for kernel, need in gates:
                fast_cps = float(fast_rows[kernel]["cycles_per_second"])
                legacy_cps = float(legacy_rows[kernel]["cycles_per_second"])
                ratio = fast_cps / legacy_cps if legacy_cps else float("inf")
                verdict = "ok" if ratio >= need else "FAIL"
                print(
                    f"gate [{kernel}]: fast {fast_cps:,.0f} vs live legacy "
                    f"{legacy_cps:,.0f} -> {ratio:.2f}x (need >= {need:.2f}x) {verdict}"
                )
                if ratio < need:
                    gate_failed = True

    if args.dry_run:
        print(json.dumps(entry, indent=2))
        return 1 if gate_failed else 0

    try:
        count = append_bench_entry(args.output, entry)
    except (BenchSchemaError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"appended entry #{count} to {args.output}")
    return 1 if gate_failed else 0


if __name__ == "__main__":
    sys.exit(main())
