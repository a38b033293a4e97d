"""Static profiling of kernels over the ``{N, p}`` warp-tuple plane."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: F401  (Sequence used in hints)

from repro.gpu.config import GPUConfig, baseline_config
from repro.gpu.gpu import GPU, RunResult
from repro.runtime.executor import SweepExecutor
from repro.workloads.generator import generate_kernel_programs
from repro.workloads.spec import KernelSpec


@dataclass
class StaticProfile:
    """The result of sweeping one kernel over the warp-tuple plane.

    ``ipc`` maps each profiled ``(N, p)`` point to the throughput measured
    there; ``baseline_ipc`` is the throughput at maximum warps (the GTO
    baseline), so ``speedup(n, p)`` is normalised the same way the paper's
    scatter plots are.
    """

    kernel: KernelSpec
    max_warps: int
    baseline_ipc: float
    ipc: Dict[Tuple[int, int], float] = field(default_factory=dict)
    baseline_counters: Optional[object] = None

    def speedup(self, n: int, p: int) -> float:
        if self.baseline_ipc == 0:
            return 0.0
        return self.ipc.get((n, p), 0.0) / self.baseline_ipc

    def speedup_grid(self) -> Dict[Tuple[int, int], float]:
        if self.baseline_ipc == 0:
            return {point: 0.0 for point in self.ipc}
        return {point: value / self.baseline_ipc for point, value in self.ipc.items()}

    def points(self) -> List[Tuple[int, int]]:
        return sorted(self.ipc)

    def best_point(self, min_gain: float = 0.005) -> Tuple[int, int]:
        """The statically optimal warp-tuple (the Static-Best oracle).

        A non-baseline point is chosen only when it beats the baseline by at
        least ``min_gain`` — an offline profiler would never deploy a tuple
        whose measured benefit is within noise of the default.
        """
        best = max(self.ipc, key=lambda point: (self.ipc[point], -point[0], -point[1]))
        baseline_point = (self.max_warps, self.max_warps)
        if self.baseline_ipc > 0 and self.ipc[best] < self.baseline_ipc * (1.0 + min_gain):
            return baseline_point
        return best

    def best_speedup(self) -> float:
        n, p = self.best_point(min_gain=0.0)
        return self.speedup(n, p)

    def best_diagonal_point(self, min_gain: float = 0.005) -> Tuple[int, int]:
        """The best point restricted to N == p (what SWL/CCWS can reach)."""
        diagonal = [point for point in self.ipc if point[0] == point[1]]
        if not diagonal:
            return (self.max_warps, self.max_warps)
        best = max(diagonal, key=lambda point: (self.ipc[point], -point[0]))
        if self.baseline_ipc > 0 and self.ipc[best] < self.baseline_ipc * (1.0 + min_gain):
            return (self.max_warps, self.max_warps)
        return best

    def contains(self, n: int, p: int) -> bool:
        return (n, p) in self.ipc


class KernelProfiler:
    """Sweeps kernels over the warp-tuple plane.

    Sweeping every one of the 300 valid ``{N, p}`` points with full kernel
    executions is what the paper does offline on a farm of simulations; here
    each point is measured over a bounded cycle window (IPC is the metric) to
    keep profiling tractable on one machine.  ``n_step``/``p_step`` allow the
    grid to be subsampled further for the fast test configurations.
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        cycles_per_point: int = 12_000,
        warmup_cycles: int = 4_000,
        n_step: int = 1,
        p_step: int = 1,
        executor: Optional[SweepExecutor] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.config = config or baseline_config()
        self.cycles_per_point = cycles_per_point
        self.warmup_cycles = warmup_cycles
        self.n_step = max(1, n_step)
        self.p_step = max(1, p_step)
        self.executor = executor
        # Simulator-core selection; ``None`` defers to REPRO_ENGINE at build
        # time.  Both engines are bit-identical, so a profile never records
        # which one measured it.
        self.engine = engine

    def _grid_points(self, max_warps: int) -> List[Tuple[int, int]]:
        points: List[Tuple[int, int]] = []
        n_values = list(range(1, max_warps + 1, self.n_step))
        if max_warps not in n_values:
            n_values.append(max_warps)
        for n in n_values:
            p_values = [p for p in range(1, n + 1, self.p_step)]
            if n not in p_values:
                p_values.append(n)
            for p in p_values:
                points.append((n, p))
        return points

    def measure_point(
        self,
        spec: KernelSpec,
        n: int,
        p: int,
        programs: Optional[Sequence[Sequence]] = None,
    ) -> RunResult:
        """Run the kernel pinned at ``(n, p)`` and measure a warm window.

        The kernel first runs for ``warmup_cycles`` to populate the caches,
        then the counters are measured over ``cycles_per_point`` cycles —
        the same warm-up/sample structure the hardware inference engine uses
        at runtime (Section VI-A).  ``programs`` may be supplied to avoid
        regenerating the kernel's traces for every grid point.
        """
        gpu = GPU(self.config, engine=self.engine)
        if programs is None:
            programs = generate_kernel_programs(spec)
        sm = gpu.build_sm(programs)
        sm.set_warp_tuple(n, p)
        if self.warmup_cycles:
            sm.run_cycles(self.warmup_cycles)
        before = sm.snapshot()
        sm.run_cycles(self.cycles_per_point)
        counters = sm.counters - before
        return RunResult(
            counters=counters,
            cycles=counters.cycles,
            energy=gpu.energy_model.estimate(counters),
            warp_tuple=(n, p),
            completed=sm.done,
        )

    def profile(self, spec: KernelSpec) -> StaticProfile:
        """Profile one kernel over the (possibly subsampled) warp-tuple grid.

        Every grid point is an independent simulation, so when the resolved
        executor has more than one worker the points are fanned out over a
        process pool; results are keyed by their ``(n, p)`` point, so the
        profile is identical to a serial sweep.
        """
        max_warps = min(self.config.max_warps, spec.num_warps)
        programs = generate_kernel_programs(spec)
        baseline = self.measure_point(spec, max_warps, max_warps, programs=programs)
        profile = StaticProfile(
            kernel=spec,
            max_warps=max_warps,
            baseline_ipc=baseline.ipc,
            baseline_counters=baseline.counters,
        )
        profile.ipc[(max_warps, max_warps)] = baseline.ipc
        points = list(
            dict.fromkeys(
                point for point in self._grid_points(max_warps) if point not in profile.ipc
            )
        )
        executor = self.executor or SweepExecutor()
        # Trace-backed kernels stay on the serial path: each worker would
        # otherwise re-decode the whole trace file per grid point, while the
        # serial loop shares the one decoded ``programs`` across all points.
        trace_backed = hasattr(spec, "materialise_programs")
        if executor.parallel and len(points) > 1 and not trace_backed:
            results = executor.map(
                _measure_point_job,
                [
                    (
                        self.config,
                        spec,
                        n,
                        p,
                        self.cycles_per_point,
                        self.warmup_cycles,
                        self.engine,
                    )
                    for n, p in points
                ],
            )
            for (n, p), result in zip(points, results):
                profile.ipc[(n, p)] = result.ipc
        else:
            for n, p in points:
                result = self.measure_point(spec, n, p, programs=programs)
                profile.ipc[(n, p)] = result.ipc
        return profile


def _measure_point_job(
    config: GPUConfig,
    spec: KernelSpec,
    n: int,
    p: int,
    cycles_per_point: int,
    warmup_cycles: int,
    engine: Optional[str] = None,
) -> RunResult:
    """Module-level worker for one grid point (must be picklable).

    The worker regenerates the kernel's programs from the spec — generation
    is seeded, so the traces (and therefore the counters) are identical to
    the ones a serial sweep uses.
    """
    profiler = KernelProfiler(
        config=config,
        cycles_per_point=cycles_per_point,
        warmup_cycles=warmup_cycles,
        engine=engine,
    )
    return profiler.measure_point(spec, n, p)


def profile_kernel(
    spec: KernelSpec,
    config: Optional[GPUConfig] = None,
    cycles_per_point: int = 12_000,
    n_step: int = 1,
    p_step: int = 1,
) -> StaticProfile:
    """Convenience wrapper over :class:`KernelProfiler`."""
    profiler = KernelProfiler(
        config=config, cycles_per_point=cycles_per_point, n_step=n_step, p_step=p_step
    )
    return profiler.profile(spec)


def measure_pbest(
    spec: KernelSpec,
    config: Optional[GPUConfig] = None,
    cycles: int = 12_000,
    warmup_cycles: int = 20_000,
    l1_scale: int = 64,
) -> float:
    """Memory sensitivity metric: speedup with an ``l1_scale``× larger L1.

    The paper calls an application memory-sensitive when this exceeds 1.4.
    Both configurations are warmed up before measurement so the much larger
    cache gets a chance to capture the kernel's working set.
    """
    config = config or baseline_config()
    programs = generate_kernel_programs(spec)
    max_warps = min(config.max_warps, spec.num_warps)

    def run(cfg: GPUConfig) -> float:
        sm = GPU(cfg).build_sm(programs)
        sm.set_warp_tuple(max_warps, max_warps)
        if warmup_cycles:
            sm.run_cycles(warmup_cycles)
        before = sm.snapshot()
        sm.run_cycles(cycles)
        window = sm.counters - before
        return window.ipc

    base_ipc = run(config)
    big_ipc = run(config.with_l1_scale(l1_scale))
    if base_ipc == 0:
        return 1.0
    return big_ipc / base_ipc
