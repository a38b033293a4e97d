"""Static profiling of kernels over the ``{N, p}`` warp-tuple plane."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: F401  (Sequence used in hints)

from repro.gpu.config import GPUConfig, baseline_config
from repro.gpu.counters import measure_window
from repro.gpu.gpu import GPU, RunResult
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
    keep profiling tractable on one machine.  ``step`` subsamples both axes
    of the grid further for the fast test configurations.
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        cycles_per_point: int = 12_000,
        warmup_cycles: int = 4_000,
        step: int = 1,
        engine: Optional[str] = None,
    ) -> None:
        self.config = config or baseline_config()
        self.cycles_per_point = cycles_per_point
        self.warmup_cycles = warmup_cycles
        self.step = max(1, step)
        # Simulator-core selection; ``None`` defers to REPRO_ENGINE at build
        # time.  Both engines are bit-identical, so a profile never records
        # which one measured it.
        self.engine = engine

    def _grid_points(self, max_warps: int) -> List[Tuple[int, int]]:
        points: List[Tuple[int, int]] = []
        n_values = list(range(1, max_warps + 1, self.step))
        if max_warps not in n_values:
            n_values.append(max_warps)
        for n in n_values:
            p_values = [p for p in range(1, n + 1, self.step)]
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
        counters = measure_window(sm, n, p, self.warmup_cycles, self.cycles_per_point)
        return RunResult(
            counters=counters,
            cycles=counters.cycles,
            energy=gpu.energy_model.estimate(counters),
            warp_tuple=(n, p),
            completed=sm.done,
        )

    def grid(self, spec: KernelSpec) -> List[Tuple[int, int]]:
        """The points :meth:`profile` measures, the baseline ``(max, max)`` first."""
        max_warps = min(self.config.max_warps, spec.num_warps)
        return list(dict.fromkeys([(max_warps, max_warps)] + self._grid_points(max_warps)))

    def measure_points(
        self, spec: KernelSpec, points: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], RunResult]:
        """Measure each of ``points``, simulating one set of generated programs."""
        programs = generate_kernel_programs(spec)
        return {(n, p): self.measure_point(spec, n, p, programs=programs) for n, p in points}

    def profile(
        self,
        spec: KernelSpec,
        measured: Optional[Dict[Tuple[int, int], RunResult]] = None,
    ) -> StaticProfile:
        """Profile one kernel over the (possibly subsampled) warp-tuple grid.

        ``measured`` holds every :meth:`grid` point's result when they were
        measured elsewhere (a plan deals a profile's points over its
        workers); by default :meth:`measure_points` measures them here.
        """
        points = self.grid(spec)
        if measured is None:
            measured = self.measure_points(spec, points)
        baseline = measured[points[0]]
        profile = StaticProfile(
            kernel=spec,
            max_warps=points[0][0],
            baseline_ipc=baseline.ipc,
            baseline_counters=baseline.counters,
        )
        profile.ipc.update((point, measured[point].ipc) for point in points)
        return profile


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
        return measure_window(sm, max_warps, max_warps, warmup_cycles, cycles).ipc

    base_ipc = run(config)
    big_ipc = run(config.with_l1_scale(l1_scale))
    if base_ipc == 0:
        return 1.0
    return big_ipc / base_ipc
