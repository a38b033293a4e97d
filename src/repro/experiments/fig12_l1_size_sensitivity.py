"""Fig. 12 — sensitivity to the L1 cache size (16/32/64 KB, linear indexing).

The paper's robustness study: the regression model is trained once on the
16 KB hash-indexed baseline, then deployed unchanged on evaluation platforms
with a *linear* set-index function and L1 capacities of 16, 32 and 64 KB.
Poise keeps delivering speedups (48%, then 36.7% at 64 KB), showing both
that the learned mapping transfers across architectural changes and that
cache thrashing persists even with much larger caches.  The sweep is
declared as the ``fig12-l1-size`` :class:`~repro.scenarios.grid.ScenarioGrid`
(an ``l1_scale`` × ``l1_indexing`` architecture axis), and the point
evaluator trains the model on the base platform exactly as the paper does.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import ExperimentConfig, evaluation_benchmark_names
from repro.experiments.registry import ArtifactSchema, Experiment
from repro.profiling.metrics import harmonic_mean
from repro.scenarios.library import FIG12_SCALES, fig12_grid
from repro.scenarios.runner import evaluate_grid, plan_grid

DEFAULT_SCALES = FIG12_SCALES  # 16 KB, 32 KB, 64 KB


class Fig12L1SizeSensitivity(Experiment):
    experiment_id = "fig12"
    artifact = "Figure 12"
    title = "Sensitivity to L1 cache size (linear indexing, pre-trained model)"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=tuple(f"hmean_{16 * scale}KB" for scale in DEFAULT_SCALES),
        required_tables=("same-size GTO baseline",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return plan_grid(fig12_grid(), config)

    def build(
        self,
        config: ExperimentConfig,
        scales: Optional[List[int]] = None,
        benchmarks: Optional[List[str]] = None,
    ) -> ExperimentResult:
        scales = list(scales or DEFAULT_SCALES)
        benchmarks = list(benchmarks or evaluation_benchmark_names())
        grid = fig12_grid(scales=scales, benchmarks=benchmarks)
        speedup = {
            (point.benchmark, point.l1_scale): metrics["speedup"]
            for point, metrics in evaluate_grid(grid, config).items()
        }

        experiment = ExperimentResult(
            experiment_id="fig12",
            description="Sensitivity to L1 cache size (linear indexing, pre-trained model)",
        )
        size_labels = [f"Poise+{16 * scale}KB" for scale in scales]
        table = experiment.add_table(
            Table(
                title="Fig. 12 — IPC normalised to the same-size GTO baseline",
                columns=["benchmark"] + size_labels,
            )
        )
        per_scale: dict = {scale: [] for scale in scales}
        for name in benchmarks:
            row = [name]
            for scale in scales:
                value = speedup[(name, scale)]
                row.append(value)
                per_scale[scale].append(max(value, 1e-6))
            table.add_row(*row)
        hmean_row = ["H-Mean"] + [harmonic_mean(per_scale[scale]) for scale in scales]
        table.add_row(*hmean_row)
        for scale, value in zip(scales, hmean_row[1:]):
            experiment.scalars[f"hmean_{16 * scale}KB"] = value
        experiment.add_note(
            "Paper harmonic means: 1.48 at 16 KB, declining to 1.367 at 64 KB — Poise keeps "
            "helping on larger linearly-indexed caches despite being trained elsewhere."
        )
        return experiment
