"""Fig. 13 — sensitivity to removing one feature from the feature vector.

For each removed feature the regression is retrained on the reduced vector
and deployed with *no local search*, so the change in raw prediction quality
is visible.  The paper reports slowdowns (relative to training with all
features) between 1.5% (removing x7) and 21.7% (removing x6), with highly
memory-sensitive benchmarks hurt the most; the expected shape here is that
every ablated model is at best as good as the full model on the harmonic
mean.  x1/x2 are omitted from the sweep, as in the paper, because their
information is largely carried by x7.  The sweep is the ``fig13-ablation``
:class:`~repro.scenarios.grid.ScenarioGrid`: a ``feature_mask`` axis whose
``None`` value is the all-features reference column.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import (
    ArtifactSchema,
    ExperimentBase,
    ExperimentConfig,
    evaluation_benchmark_names,
)
from repro.profiling.metrics import harmonic_mean
from repro.scenarios.library import FIG13_ABLATIONS, fig13_grid
from repro.scenarios.runner import evaluate_grid, plan_grid

#: Feature indices (0-based into Table II's x1..x8) removed one at a time.
DEFAULT_ABLATIONS = FIG13_ABLATIONS  # x7, x6, x5, x4, x3


class Fig13FeatureAblation(ExperimentBase):
    experiment_id = "fig13"
    artifact = "Figure 13"
    title = "Sensitivity to removing a feature from X (retrained, no local search)"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=tuple(f"hmean_minus_x{index + 1}" for index in DEFAULT_ABLATIONS),
        required_tables=("all-features",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return plan_grid(fig13_grid(), config)

    def build(
        self,
        config: ExperimentConfig,
        ablations: Optional[List[int]] = None,
        benchmarks: Optional[List[str]] = None,
    ) -> ExperimentResult:
        ablations = list(ablations if ablations is not None else DEFAULT_ABLATIONS)
        benchmarks = list(benchmarks or evaluation_benchmark_names())
        grid = fig13_grid(ablations=ablations, benchmarks=benchmarks)
        speedup = {
            (point.benchmark, point.feature_mask): metrics["speedup"]
            for point, metrics in evaluate_grid(grid, config).items()
        }

        experiment = ExperimentResult(
            experiment_id="fig13",
            description="Sensitivity to removing a feature from X (retrained, no local search)",
        )
        columns = ["benchmark", "all"] + [f"-x{index + 1}" for index in ablations]
        table = experiment.add_table(
            Table(title="Fig. 13 — IPC normalised to the all-features model", columns=columns)
        )

        # Reference: all features, no local search (so the comparison isolates
        # prediction accuracy exactly as the paper does).
        per_column: dict = {"all": []}
        for index in ablations:
            per_column[index] = []
        for name in benchmarks:
            reference = speedup[(name, None)]
            row = [name, 1.0]
            per_column["all"].append(1.0)
            for index in ablations:
                normalised = speedup[(name, (index,))] / reference if reference else 0.0
                row.append(normalised)
                per_column[index].append(max(normalised, 1e-6))
            table.add_row(*row)
        hmean_row = ["H-Mean", 1.0] + [harmonic_mean(per_column[index]) for index in ablations]
        table.add_row(*hmean_row)
        for index, value in zip(ablations, hmean_row[2:]):
            experiment.scalars[f"hmean_minus_x{index + 1}"] = value
        experiment.add_note(
            "Paper: harmonic-mean slowdown from 1.5% (-x7) to 21.7% (-x6); all-features "
            "training is best."
        )
        return experiment


def run(
    config: Optional[ExperimentConfig] = None,
    ablations: Optional[List[int]] = None,
) -> ExperimentResult:
    return Fig13FeatureAblation().run(config, ablations=ablations)


def main() -> None:
    Fig13FeatureAblation.cli()


if __name__ == "__main__":
    main()
