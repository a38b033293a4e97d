#!/usr/bin/env python
"""Profile a kernel over the {N, p} warp-tuple plane and visualise it.

Reproduces the workflow behind Fig. 2 / Fig. 5 of the paper for any kernel
in the benchmark registry: sweep the plane, print an ASCII heat-map of the
speedup over the GTO baseline, and show where the raw performance peak, the
neighbourhood-scored training target (Eq. 12), the best diagonal point
(what SWL/CCWS can reach) and the baseline sit.

Run with::

    python examples/profile_solution_space.py [--benchmark ii] [--kernel 0] [--step 2]
"""

from __future__ import annotations

import argparse

from repro.core.scoring import best_raw_point, select_training_target
from repro.gpu.config import baseline_config
from repro.profiling.profiler import KernelProfiler
from repro.workloads.registry import get_benchmark

#: Buckets for the ASCII heat-map (speedup -> glyph).
GLYPHS = [(1.15, "#"), (1.05, "+"), (0.95, "."), (0.80, "-"), (0.0, " ")]


def glyph(speedup: float) -> str:
    for threshold, symbol in GLYPHS:
        if speedup >= threshold:
            return symbol
    return " "


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="ii")
    parser.add_argument("--kernel", type=int, default=0, help="kernel index in the benchmark")
    parser.add_argument("--step", type=int, default=2, help="grid sub-sampling step")
    parser.add_argument("--cycles", type=int, default=8000, help="sampling window per point")
    parser.add_argument("--warmup", type=int, default=18000, help="warm-up cycles per point")
    args = parser.parse_args()

    benchmark = get_benchmark(args.benchmark)
    spec = benchmark.kernels[min(args.kernel, len(benchmark.kernels) - 1)]
    print(f"profiling {spec.name} ({benchmark.suite}/{benchmark.name}) ...")

    profiler = KernelProfiler(
        baseline_config(),
        cycles_per_point=args.cycles,
        warmup_cycles=args.warmup,
        step=args.step,
    )
    profile = profiler.profile(spec)
    grid = profile.speedup_grid()

    peak = best_raw_point(grid)
    scored = select_training_target(grid)
    diagonal = profile.best_diagonal_point()

    n_values = sorted({point[0] for point in grid})
    p_values = sorted({point[1] for point in grid}, reverse=True)
    print("\nspeedup over GTO ( # >=1.15, + >=1.05, . ~1.0, - <=0.95 )")
    print("p\\N " + " ".join(f"{n:>2d}" for n in n_values))
    for p in p_values:
        row = [f"{p:>3d} "]
        for n in n_values:
            row.append(f" {glyph(grid[(n, p)])} " if (n, p) in grid else "   ")
        print("".join(row))

    print(f"\nbaseline point      : ({profile.max_warps}, {profile.max_warps})  speedup 1.000")
    print(f"best diagonal (SWL) : {diagonal}  speedup {grid.get(diagonal, 1.0):.3f}")
    print(f"raw peak            : {peak.point}  speedup {peak.speedup:.3f}")
    print(f"scored target (Eq12): {scored.point}  speedup {scored.speedup:.3f} "
          f"(score {scored.score:.3f})")


if __name__ == "__main__":
    main()
