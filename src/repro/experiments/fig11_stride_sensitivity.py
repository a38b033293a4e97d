"""Fig. 11 — sensitivity of Poise to the local-search stride (εN, εp).

The paper sweeps the stride pairs (0,0), (1,1), (2,2), (2,4) and (4,4):
with no search at all Poise still beats SWL (harmonic-mean 1.23), and the
speedup grows and then saturates as the stride increases, with (2,4) the
best at 1.466.  The reproduction declares the sweep as a
:class:`~repro.scenarios.grid.ScenarioGrid` (``fig11-strides``) and reports
the per-benchmark and harmonic-mean speedups of its points.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import (
    ArtifactSchema,
    ExperimentBase,
    ExperimentConfig,
    evaluation_benchmark_names,
)
from repro.profiling.metrics import harmonic_mean
from repro.scenarios.library import FIG11_STRIDES, fig11_grid
from repro.scenarios.runner import evaluate_grid, plan_grid

DEFAULT_STRIDES: Tuple[Tuple[int, int], ...] = FIG11_STRIDES


class Fig11StrideSensitivity(ExperimentBase):
    experiment_id = "fig11"
    artifact = "Figure 11"
    title = "Sensitivity to local-search stride (εN, εp)"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=tuple(f"hmean_{n}_{p}" for n, p in DEFAULT_STRIDES),
        required_tables=("per stride",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return plan_grid(fig11_grid(), config)

    def build(
        self,
        config: ExperimentConfig,
        strides: Optional[List[Tuple[int, int]]] = None,
        benchmarks: Optional[List[str]] = None,
    ) -> ExperimentResult:
        strides = [tuple(stride) for stride in (strides or DEFAULT_STRIDES)]
        benchmarks = list(benchmarks or evaluation_benchmark_names())
        grid = fig11_grid(strides=strides, benchmarks=benchmarks)
        speedup = {
            (point.benchmark, point.poise_strides): metrics["speedup"]
            for point, metrics in evaluate_grid(grid, config).items()
        }

        experiment = ExperimentResult(
            experiment_id="fig11",
            description="Sensitivity to local-search stride (εN, εp)",
        )
        table = experiment.add_table(
            Table(
                title="Fig. 11 — IPC normalised to GTO per stride",
                columns=["benchmark"] + [f"({n},{p})" for n, p in strides],
            )
        )
        per_stride: dict = {stride: [] for stride in strides}
        for name in benchmarks:
            row = [name]
            for stride in strides:
                value = speedup[(name, stride)]
                row.append(value)
                per_stride[stride].append(max(value, 1e-6))
            table.add_row(*row)
        hmean_row = ["H-Mean"] + [harmonic_mean(per_stride[stride]) for stride in strides]
        table.add_row(*hmean_row)
        for stride, value in zip(strides, hmean_row[1:]):
            experiment.scalars[f"hmean_{stride[0]}_{stride[1]}"] = value
        experiment.add_note(
            "Paper harmonic means: (0,0) 1.23, (1,1) 1.436, (2,2) 1.457, (2,4) 1.466, (4,4) 1.45."
        )
        return experiment


def run(
    config: Optional[ExperimentConfig] = None,
    strides: Optional[List[Tuple[int, int]]] = None,
) -> ExperimentResult:
    return Fig11StrideSensitivity().run(config, strides=strides)


def main() -> None:
    Fig11StrideSensitivity.cli()


if __name__ == "__main__":
    main()
