"""Simulator-throughput microbenchmarks (shared by pytest and the CLI).

Three workloads bracket the simulator's behaviour:

* a *memory-divergent* kernel (frequent loads, large working set) that
  exercises the MSHR/response machinery and the stall fast-forward path,
* a *compute-intensive* kernel (rare loads) that exercises the issue loop
  and the scheduler's greedy path, and
* a *memory-stall* kernel (streaming load bursts under a bandwidth-starved
  memory) that saturates the MSHR file so almost every cycle is an
  MSHR-full retry — the dead-cycle class the ``fast`` engine jumps and the
  ``legacy`` oracle ticks, and therefore the bracket of the ≥10x perf gate
  that proves the jump happens.

``measure_throughput`` reports simulated cycles per wall-clock second —
the BENCH trajectory metric for the hot loop — for either engine.
``measure_matrix`` expands that to the full scheme matrix: every evaluation
scheme (gto/swl/pcal/poise/static_best) × representative synthetic and
trace-family kernels × both engines, one row per combination, so the
committed trajectory accumulates comparable data points instead of a single
snapshot.  ``measure_sweep`` times the fast-profile warp-tuple sweep cold
(every point simulated, the seed's serial path) and warm (served from the
persistent result cache), plus a parallel re-sweep used to check counter
equivalence.

All wall-clock measurement uses ``time.perf_counter`` and every record
carries the ``engine`` that produced it plus the host ``python_version``
and ``cpu_count`` for cross-run comparability.
"""

from __future__ import annotations

import gc
import os
import platform
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.gpu.config import GPUConfig, MemoryConfig, baseline_config
from repro.gpu.engine import resolve_engine
from repro.gpu.gpu import GPU, RunResult
from repro.obs.telemetry import phase
from repro.profiling.profiler import KernelProfiler
from repro.runtime.executor import SweepExecutor, jobs_budget
from repro.workloads.generator import fill_programs, generate_kernel_programs
from repro.workloads.spec import KernelSpec

#: The scheme matrix benchmarked by ``measure_matrix`` / ``repro bench``.
MATRIX_SCHEMES = ("gto", "swl", "pcal", "poise", "static_best")

#: Timed rounds behind every hot-loop row and matrix cell ``repro bench``
#: records; each keeps its fastest round.
BENCH_ROUNDS = 3

#: The two bracket kernels perf gates compare across engines/baselines.
GATE_KERNELS = ("bench_memory_divergent", "bench_compute_intensive")

#: The MSHR-saturating bracket whose perf gate proves the MSHR-retry jump
#: happens, and the minimum cycles/second ratio ``fast`` must hold over a
#: live ``legacy`` run on it: the 2x fast-over-legacy floor of the other
#: brackets times the 5x the jump bought over per-cycle retries.
MSHR_GATE_KERNEL = "bench_memory_stall"
MSHR_GATE_RATIO = 10.0


def host_environment() -> Dict[str, object]:
    """Host metadata for cross-run comparability (no engine: a trajectory
    entry can mix rows from several engines; the per-row field is
    authoritative)."""
    return {
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


def bench_environment(engine: Optional[str] = None) -> Dict[str, object]:
    """Host/engine metadata folded into every bench record."""
    record = {"engine": resolve_engine(engine)}
    record.update(host_environment())
    return record


def memory_divergent_kernel() -> KernelSpec:
    """Every third instruction is a load and the footprint thrashes the L1."""
    return KernelSpec(
        name="bench_memory_divergent",
        num_warps=24,
        instructions_per_warp=6_000,
        instructions_per_load=3,
        dep_distance=2,
        intra_warp_fraction=0.5,
        inter_warp_fraction=0.3,
        private_lines=300,
        shared_lines=1_024,
        seed=7,
    )


def compute_intensive_kernel() -> KernelSpec:
    """Loads are rare; the issue loop and scheduler dominate."""
    return KernelSpec(
        name="bench_compute_intensive",
        num_warps=24,
        instructions_per_warp=6_000,
        instructions_per_load=50,
        dep_distance=8,
        intra_warp_fraction=0.6,
        inter_warp_fraction=0.2,
        private_lines=64,
        shared_lines=256,
        seed=3,
    )


@dataclass(frozen=True)
class MemoryStallKernelSpec(KernelSpec):
    """Streaming load bursts that keep the MSHR file pinned at capacity.

    Every instruction is a load of a fresh line (no reuse, so every access
    misses and every miss needs a new MSHR entry) and the dependency
    distances are shaped so no warp ever blocks on a pending load: the
    first-dependent index of the ``i``-th load is ``2n - i + 1`` — always
    beyond the program counter, and *decreasing* in issue order so the
    pending-load minimum is maintained by the cheap issue-side update
    rather than a completion-side rescan.  The scheduler therefore always
    has a warp that *wants* to issue, the memory system drains one line per
    DRAM service interval, and essentially every simulated cycle in between
    is an MSHR-full retry — the dead-cycle class the ``fast`` engine jumps
    and the ``legacy`` oracle ticks.
    """

    def materialise_programs(self) -> Tuple[Tuple, ...]:
        from repro.gpu.isa import load

        programs = []
        line = 1 << 44  # streaming region: never aliases the synthetic kernels
        n = self.instructions_per_warp
        for _ in range(self.num_warps):
            program = tuple(
                load(line + index, dep_distance=2 * (n - index), pc=1200)
                for index in range(n)
            )
            line += n
            programs.append(program)
        return tuple(programs)


def memory_stall_kernel() -> KernelSpec:
    """Every instruction is a streaming load; the MSHR file is the limiter."""
    return MemoryStallKernelSpec(
        name="bench_memory_stall",
        num_warps=24,
        instructions_per_warp=4_000,
        instructions_per_load=1,
        dep_distance=8,
        intra_warp_fraction=0.0,
        inter_warp_fraction=0.0,
        seed=11,
    )


def memory_stall_config(max_cycles: int = 80_000) -> GPUConfig:
    """The bandwidth-starved memory the memory-stall bracket runs under.

    ``congestion_factor`` (the sensitivity-study knob) scales the L2/DRAM
    service intervals 4x, widening the gap between consecutive MSHR fills
    to ~112 cycles — long retry spans for the fast engine to jump while
    the legacy oracle pays for every one of them.
    """
    return baseline_config(
        max_cycles=max_cycles, memory=MemoryConfig(congestion_factor=4.0)
    )


def _fastest_round(rounds: int, run: Callable[[], RunResult]) -> Tuple[RunResult, float]:
    """Call ``run`` ``rounds`` times (at least once) and return its last
    result with the fastest round's wall-clock seconds.

    Simulated counters are deterministic, so extra rounds only reduce timer
    noise.  A cyclic-GC pass triggered by unrelated live heaps (e.g. earlier
    tests in the same process) can land inside the timed region and dominate
    a ~20 ms run, so the collector runs up front and stays paused while
    timing.
    """
    elapsed = None
    result = None
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        # The phase timer brackets the whole rounds loop — never the timed
        # region itself, whose cycles/s feed absolute-threshold gates.
        with phase("simulate"):
            for _ in range(max(1, rounds)):
                start = time.perf_counter()
                result = run()
                round_elapsed = max(time.perf_counter() - start, 1e-9)
                if elapsed is None or round_elapsed < elapsed:
                    elapsed = round_elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    return result, elapsed


def measure_throughput(
    spec: KernelSpec,
    max_cycles: int = 80_000,
    engine: Optional[str] = None,
    rounds: int = 1,
    config: Optional[GPUConfig] = None,
) -> Dict[str, float]:
    """Run one kernel and report simulated cycles per wall-clock second.

    ``rounds`` > 1 repeats the run and keeps the fastest round — simulated
    counters are deterministic, so extra rounds only reduce timer noise.
    ``config`` overrides the baseline architecture (the memory-stall bracket
    passes its bandwidth-starved memory); ``max_cycles`` still bounds the
    run either way.
    """
    config = config if config is not None else baseline_config(max_cycles=max_cycles)
    gpu = GPU(config, engine=engine)
    programs = generate_kernel_programs(spec)
    fill_programs(programs)  # time the cycle loop, not lazy generation
    result, elapsed = _fastest_round(
        rounds, lambda: gpu.run_kernel(programs, max_cycles=max_cycles)
    )
    record = {
        "kernel": spec.name,
        "cycles": result.counters.cycles,
        "instructions": result.counters.instructions,
        "wall_seconds": elapsed,
        "cycles_per_second": result.counters.cycles / elapsed,
        "instructions_per_second": result.counters.instructions / elapsed,
    }
    record.update(bench_environment(engine))
    return record


def trace_replay_kernel(trace_dir: Path) -> "KernelSpec":
    """Export the stencil trace family to ``trace_dir`` and return a
    file-backed spec for it — the trace-replay half of the BENCH trajectory
    exercises the full decode-then-simulate path."""
    from repro.trace.adapter import TraceKernelSpec
    from repro.trace.codec import write_trace
    from repro.trace.families import family_kernel
    from repro.workloads.generator import generate_kernel_programs

    spec = family_kernel("stencil", "bench_trace_replay", seed=13,
                         params=(("width", 96), ("rows_per_warp", 4)))
    programs = generate_kernel_programs(spec)
    path = Path(trace_dir) / "bench_trace_replay.trc"
    content_hash = write_trace(path, programs, meta={"kernel": spec.name, "source": "family"})
    # Build the file-backed spec from the writer's own hash so the benchmark
    # does not pay a verify decode before the decode it is trying to time.
    return TraceKernelSpec(
        name=spec.name,
        num_warps=len(programs),
        instructions_per_warp=max(len(program) for program in programs),
        intra_warp_fraction=0.0,
        inter_warp_fraction=0.0,
        source="file",
        trace_path=str(path),
        trace_hash=content_hash,
    )


def measure_trace_replay(
    trace_dir: Path, max_cycles: int = 80_000, engine: Optional[str] = None
) -> Dict[str, float]:
    """Trace-replay throughput: decode wall-clock plus replay cycles/second."""
    from repro.workloads.generator import generate_kernel_programs

    spec = trace_replay_kernel(Path(trace_dir))
    start = time.perf_counter()
    programs = generate_kernel_programs(spec)  # decode only (replay bypasses the cache)
    decode_seconds = max(time.perf_counter() - start, 1e-9)
    decoded_instructions = sum(len(program) for program in programs)
    result = measure_throughput(spec, max_cycles=max_cycles, engine=engine)
    result["decode_seconds"] = decode_seconds
    result["instructions_decoded_per_second"] = decoded_instructions / decode_seconds
    return result


# ---------------------------------------------------------------------------
# The scheme × kernel × engine matrix
# ---------------------------------------------------------------------------


def matrix_kernels() -> List[Dict[str, object]]:
    """Representative kernels for the bench matrix: the two synthetic
    bracket kernels, two structured trace families (regular stencil reuse
    and dependent-gather pointer chasing), and a 2-SM chip bracket — the
    memory-divergent kernel on two SMs sharing one L2/DRAM, so the chip
    interleave loop's throughput is tracked per engine like any other
    bracket.  An entry's optional ``num_sms`` widens the architecture for
    that bracket only."""
    from repro.trace.families import family_kernel

    return [
        {"kind": "synthetic", "spec": memory_divergent_kernel()},
        {"kind": "synthetic", "spec": compute_intensive_kernel()},
        {
            "kind": "trace",
            "spec": family_kernel(
                "stencil", "bench_stencil", seed=13,
                params=(("width", 96), ("rows_per_warp", 4)),
            ),
        },
        {
            "kind": "trace",
            "spec": family_kernel("gather", "bench_gather", seed=17),
        },
        {
            "kind": "multi_sm",
            "spec": replace(memory_divergent_kernel(), name="bench_multi_sm_divergent"),
            "num_sms": 2,
        },
    ]


def _matrix_model():
    """Fixed-weight Poise model so the matrix needs no training pipeline
    (the same weights the golden-counter fixture pins)."""
    from repro.core.training import TrainedModel

    return TrainedModel(
        alpha_weights=[0.02, -0.03, 0.05, 0.01, -0.02, 0.04, 0.60, 0.30],
        beta_weights=[0.01, -0.02, 0.03, 0.02, -0.01, 0.02, 0.30, 0.15],
        max_warps=24,
        dispersion_n=0.1,
        dispersion_p=0.1,
        num_training_kernels=0,
    )


def _matrix_controller(scheme: str, profile, model):
    from repro.core.inference import PoiseParameters
    from repro.core.poise import PoiseController
    from repro.schedulers import (
        GTOController,
        PCALController,
        StaticBestController,
        SWLController,
    )

    if scheme == "gto":
        return GTOController()
    if scheme == "swl":
        return SWLController(profile=profile)
    if scheme == "pcal":
        return PCALController(profile=profile)
    if scheme == "static_best":
        return StaticBestController(profile=profile)
    if scheme == "poise":
        return PoiseController(
            model,
            PoiseParameters(
                t_period=30_000, t_warmup=1_000, t_feature=4_000, t_search=1_200,
                threshold_cycles=2_000,
            ),
        )
    raise ValueError(f"unknown matrix scheme {scheme!r}")


def measure_matrix(
    engines: Sequence[str] = ("fast", "legacy"),
    schemes: Sequence[str] = MATRIX_SCHEMES,
    max_cycles: int = 40_000,
    kernels: Optional[Sequence[Dict[str, object]]] = None,
) -> List[Dict[str, object]]:
    """Benchmark every scheme × kernel × engine combination.

    Returns one record per combination with simulated cycles per wall-clock
    second and host metadata; like a hot-loop row, each cell keeps the
    fastest of :data:`BENCH_ROUNDS` rounds.  Profile-based schemes
    (swl/pcal/static_best) share one subsampled static profile per kernel,
    computed outside the timed region with the fast engine (profiles are
    engine-agnostic by bit-identity); Poise uses the fixed-weight model, so
    the matrix needs no training pipeline and is deterministic end to end.
    """
    kernels = list(kernels if kernels is not None else matrix_kernels())
    engines = [resolve_engine(engine) for engine in engines]
    model = _matrix_model()
    rows: List[Dict[str, object]] = []
    profile_schemes = {"swl", "pcal", "static_best"}
    for entry in kernels:
        spec = entry["spec"]
        num_sms = int(entry.get("num_sms", 1))
        config = baseline_config(max_cycles=max_cycles, num_sms=num_sms)
        programs = generate_kernel_programs(spec)
        fill_programs(programs)  # the first timed cell must not pay generation
        profile = None
        if profile_schemes.intersection(schemes):
            profiler = KernelProfiler(
                config=config,
                cycles_per_point=2_000,
                warmup_cycles=2_000,
                n_step=6,
                p_step=6,
                engine="fast",
            )
            with phase("profile"):
                profile = profiler.profile(spec)
        for scheme in schemes:
            for engine in engines:
                gpu = GPU(config, engine=engine)
                # A controller is stateful: every round runs a fresh one.
                controllers = iter(
                    [_matrix_controller(scheme, profile, model) for _ in range(BENCH_ROUNDS)]
                )
                result, elapsed = _fastest_round(
                    BENCH_ROUNDS,
                    lambda: gpu.run_kernel(
                        programs, controller=next(controllers), max_cycles=max_cycles
                    ),
                )
                row = {
                    "kernel": spec.name,
                    "kind": entry["kind"],
                    "num_sms": num_sms,
                    "scheme": scheme,
                    "cycles": result.counters.cycles,
                    "instructions": result.counters.instructions,
                    "wall_seconds": elapsed,
                    "cycles_per_second": result.counters.cycles / elapsed,
                    "instructions_per_second": result.counters.instructions / elapsed,
                    "warp_tuple": list(result.warp_tuple),
                    "completed": result.completed,
                }
                row.update(bench_environment(engine))
                rows.append(row)
    return rows


def measure_sweep(
    cache_dir: Path,
    spec: Optional[KernelSpec] = None,
    parallel_jobs: int = 4,
) -> Dict[str, object]:
    """Time the fast-profile warp-tuple sweep cold, warm and in parallel.

    ``cache_dir`` must be fresh for the cold number to be honest.  Returns
    wall-clock timings plus whether the parallel re-sweep reproduced the
    serial grid bit-for-bit.
    """
    # Imported here: experiments.common pulls in the whole scheme zoo, which
    # the throughput-only path doesn't need.
    from repro.experiments.common import ExperimentConfig, clear_caches, get_profile

    spec = spec or memory_divergent_kernel()
    config = replace(ExperimentConfig.fast(), cache_dir=Path(cache_dir))

    # The cold pass must be the serial path, whatever the ambient
    # environment exports.
    with jobs_budget(1):
        clear_caches()
        start = time.perf_counter()
        cold_profile = get_profile(spec, config)
        cold_seconds = time.perf_counter() - start

        clear_caches()  # memory layer only; the disk layer persists
        start = time.perf_counter()
        warm_profile = get_profile(spec, config)
        warm_seconds = max(time.perf_counter() - start, 1e-9)

    start = time.perf_counter()
    profiler = config.profiler()
    profiler.executor = SweepExecutor(jobs=parallel_jobs)
    parallel_profile = profiler.profile(spec)
    parallel_seconds = time.perf_counter() - start

    clear_caches()
    return {
        "kernel": spec.name,
        "points": len(cold_profile.ipc),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": cold_seconds / warm_seconds,
        "parallel_jobs": parallel_jobs,
        "parallel_seconds": parallel_seconds,
        "parallel_matches_serial": (
            parallel_profile.ipc == cold_profile.ipc == warm_profile.ipc
        ),
    }
