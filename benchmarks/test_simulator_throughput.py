"""Bench: simulator hot-loop throughput and sweep wall-clock.

Unlike the figure benchmarks, this module tracks the *speed* of the
reproduction itself: simulated cycles per wall-clock second on a
memory-divergent and a compute-intensive kernel, and the wall-clock of the
fast-profile warp-tuple sweep cold (every point simulated — the seed's
serial path) versus warm (served from the persistent result cache).

Acceptance (hard gates are live same-host comparisons only — absolute
ratios against the committed ``BENCH_throughput.json`` baseline proved
host-load-flaky and are reported as trends, never asserted):

* the fast core must beat a live legacy run by at least 2× (the same
  ratio the CI perf gate enforces, robust to host speed), and by at least
  **10×** (``MSHR_GATE_RATIO``) on the MSHR-saturating memory-stall
  bracket, where it jumps the MSHR-full retry spans the oracle ticks,
* the cached sweep must be at least 3× faster than the cold serial sweep,
  and a parallel sweep must reproduce the serial grid bit-for-bit.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from repro.gpu.gpu import GPU
from repro.runtime import serialization
from repro.runtime.bench import (
    MSHR_GATE_RATIO,
    committed_legacy_baseline,
    compute_intensive_kernel,
    load_trajectory,
    measure_sweep,
    measure_throughput,
    memory_divergent_kernel,
    memory_stall_config,
    memory_stall_kernel,
)
from repro.workloads.generator import generate_kernel_programs

#: Sanity floor for the hot loop, far below what any machine measures (the
#: reference box clears ~1M cycles/s); it exists to catch a pathological
#: slowdown, not to benchmark the host.
MIN_CYCLES_PER_SECOND = 100_000.0

#: Historical fast-over-committed-legacy ratio on the idle reference box.
#: Trend-only: dropping below it prints a warning, never a failure (the
#: ratio is host-speed/load dependent — 1.97x–3.32x measured on an
#: unchanged tree — so the live same-host gates are the authority).
MIN_SPEEDUP_OVER_COMMITTED_BASELINE = 3.0

#: Fast vs a live legacy run on the same host (the CI gate ratio).
MIN_LIVE_SPEEDUP_OVER_LEGACY = 2.0

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def committed_baseline_cps(kernel_name: str) -> float:
    """The committed (earliest legacy entry) cycles/second for ``kernel_name``."""
    baseline = committed_legacy_baseline(load_trajectory(TRAJECTORY_PATH))
    if kernel_name not in baseline:
        pytest.skip(
            f"no committed legacy baseline for {kernel_name!r} in "
            f"{TRAJECTORY_PATH.name} (fresh trajectory)"
        )
    return baseline[kernel_name]


def test_memory_divergent_throughput(benchmark):
    result = benchmark.pedantic(
        measure_throughput, args=(memory_divergent_kernel(),), rounds=1, iterations=1
    )
    print()
    print(
        f"memory-divergent: {result['cycles_per_second']:,.0f} cycles/s "
        f"({result['cycles']:,} cycles in {result['wall_seconds']:.3f}s)"
    )
    assert result["cycles"] > 0
    assert result["cycles_per_second"] > MIN_CYCLES_PER_SECOND


def test_compute_intensive_throughput(benchmark):
    result = benchmark.pedantic(
        measure_throughput, args=(compute_intensive_kernel(),), rounds=1, iterations=1
    )
    print()
    print(
        f"compute-intensive: {result['cycles_per_second']:,.0f} cycles/s "
        f"({result['cycles']:,} cycles in {result['wall_seconds']:.3f}s)"
    )
    assert result["cycles"] > 0
    assert result["cycles_per_second"] > MIN_CYCLES_PER_SECOND


@pytest.mark.parametrize(
    "make_spec", [memory_divergent_kernel, compute_intensive_kernel]
)
def test_fast_core_trend_over_committed_baseline(benchmark, make_spec):
    """Trend report (never a gate): fast-core cycles/s vs the committed PR 1
    legacy baseline.

    The committed baseline is absolute cycles/s from the reference
    container, so this ratio measures host speed and load as much as code —
    measured 1.97x–3.32x on an *unchanged* tree under host load.  The hard
    perf gates are the live same-host comparisons next door
    (``test_fast_core_speedup_over_live_legacy`` and friends); this test only
    prints the trend and warns when it drops below the historical floor, so
    a real cross-release drift still surfaces in the bench logs without a
    flaky assert.
    """
    spec = make_spec()
    baseline_cps = committed_baseline_cps(spec.name)
    result = benchmark.pedantic(
        measure_throughput,
        args=(spec,),
        kwargs={"engine": "fast", "rounds": 5},
        rounds=1,
        iterations=1,
    )
    speedup = result["cycles_per_second"] / baseline_cps
    print()
    print(
        f"{spec.name} [fast]: {result['cycles_per_second']:,.0f} cycles/s vs "
        f"committed legacy {baseline_cps:,.0f} -> {speedup:.2f}x (trend only)"
    )
    if speedup < MIN_SPEEDUP_OVER_COMMITTED_BASELINE:
        warnings.warn(
            f"fast core measured {speedup:.2f}x the committed legacy baseline "
            f"on {spec.name} (historical floor {MIN_SPEEDUP_OVER_COMMITTED_BASELINE}x) "
            f"— host speed/load dependent; the live-legacy gates are authoritative",
            stacklevel=1,
        )
    assert result["cycles"] > 0
    assert result["cycles_per_second"] > MIN_CYCLES_PER_SECOND


def test_fast_core_speedup_over_live_legacy(benchmark):
    """Fast vs legacy on the same host, same kernels — the CI gate ratio."""

    def measure_both():
        results = {}
        for make_spec in (memory_divergent_kernel, compute_intensive_kernel):
            spec = make_spec()
            fast = measure_throughput(spec, engine="fast", rounds=3)
            legacy = measure_throughput(spec, engine="legacy", rounds=3)
            results[spec.name] = (
                fast["cycles_per_second"],
                legacy["cycles_per_second"],
            )
        return results

    results = benchmark.pedantic(measure_both, rounds=1, iterations=1)
    print()
    for kernel, (fast_cps, legacy_cps) in results.items():
        ratio = fast_cps / legacy_cps
        print(
            f"{kernel}: fast {fast_cps:,.0f} vs legacy {legacy_cps:,.0f} "
            f"cycles/s -> {ratio:.2f}x"
        )
        assert ratio >= MIN_LIVE_SPEEDUP_OVER_LEGACY, (
            f"fast core only {ratio:.2f}x a live legacy run on {kernel} "
            f"(need >= {MIN_LIVE_SPEEDUP_OVER_LEGACY}x)"
        )


def test_fast_core_speedup_over_live_legacy_on_memory_stall(benchmark):
    """The MSHR-retry jump gate: on the congested memory-stall bracket (24
    warps of streaming DRAM misses, congestion_factor 4.0 — nearly every
    issue attempt an MSHR-full retry) the fast core must clear >= 10x a
    live legacy run, because each ~112-cycle retry span the oracle ticks
    collapses into one jump.  Without the jump the fast core measures only
    3-4x here, so the gate fails if the jump stops firing."""
    spec = memory_stall_kernel()
    config = memory_stall_config()
    programs = generate_kernel_programs(spec)

    def counters(engine):
        result = GPU(config, engine=engine).run_kernel(programs)
        return serialization.counters_to_dict(result.counters)

    def measure_both():
        fast = measure_throughput(spec, engine="fast", rounds=3, config=config)
        legacy = measure_throughput(spec, engine="legacy", rounds=3, config=config)
        return fast, legacy

    fast, legacy = benchmark.pedantic(measure_both, rounds=1, iterations=1)
    ratio = fast["cycles_per_second"] / legacy["cycles_per_second"]
    print()
    print(
        f"{spec.name}: fast {fast['cycles_per_second']:,.0f} vs legacy "
        f"{legacy['cycles_per_second']:,.0f} cycles/s -> {ratio:.2f}x"
    )
    assert counters("fast") == counters("legacy"), (
        "the throughput comparison is only meaningful if both engines "
        "simulate identical counters"
    )
    assert ratio >= MSHR_GATE_RATIO, (
        f"fast core only {ratio:.2f}x a live legacy run on {spec.name} "
        f"(need >= {MSHR_GATE_RATIO}x)"
    )


def test_fast_profile_sweep_speedup(benchmark, tmp_path):
    """Cold vs warm fast-profile sweep: the persistent cache must buy ≥3×."""
    result = benchmark.pedantic(
        measure_sweep, args=(tmp_path,), rounds=1, iterations=1
    )
    print()
    print(
        f"sweep over {result['points']} grid points: "
        f"cold {result['cold_seconds']:.2f}s, warm {result['warm_seconds']:.3f}s "
        f"({result['warm_speedup']:.0f}x), "
        f"parallel({result['parallel_jobs']}) {result['parallel_seconds']:.2f}s"
    )
    assert result["parallel_matches_serial"], (
        "parallel sweep must produce counters identical to the serial path"
    )
    assert result["warm_speedup"] >= 3.0, (
        f"cached sweep only {result['warm_speedup']:.1f}x faster than the "
        f"cold serial path (need >= 3x)"
    )
