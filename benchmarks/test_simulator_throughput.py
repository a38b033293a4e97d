"""Bench: simulator hot-loop throughput and sweep wall-clock.

Unlike the figure benchmarks, this module tracks the *speed* of the
reproduction itself: simulated cycles per wall-clock second on a
memory-divergent and a compute-intensive kernel, and the wall-clock of the
fast-profile warp-tuple sweep cold (every point simulated — the seed's
serial path) versus warm (served from the persistent result cache).

Acceptance (hard gates are live same-host comparisons only — absolute
cycles/s depend on host speed and load; the host-normalized trend across
``BENCH_throughput.json`` entries is what ``repro analyze trajectory``
reports):

* the fast core must beat a live legacy run by at least 2× (the same
  ratio the CI perf gate enforces, robust to host speed), and by at least
  **10×** (``MSHR_GATE_RATIO``) on the MSHR-saturating memory-stall
  bracket, where it jumps the MSHR-full retry spans the oracle ticks,
* the cached sweep must be at least 3× faster than the cold serial sweep,
  and a parallel sweep must reproduce the serial grid bit-for-bit.
"""

from __future__ import annotations

from repro.gpu.gpu import GPU
from repro.runtime import serialization
from repro.runtime.bench import (
    MSHR_GATE_RATIO,
    compute_intensive_kernel,
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

#: Fast vs a live legacy run on the same host (the CI gate ratio).
MIN_LIVE_SPEEDUP_OVER_LEGACY = 2.0


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
