"""Fig. 10 — displacement between predicted and locally-searched warp-tuples.

For every Poise inference epoch the engine records the warp-tuple predicted
by the regression and the tuple the local search converges to.  The paper
reports average displacements of 1.02 warps along N, 0.87 along p and an
average Euclidean distance of 1.59 — i.e. the search typically moves by
about one warp in each axis, evidence that the prediction lands near the
final answer and the search overhead is small.
"""

from __future__ import annotations

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import (
    ExperimentConfig,
    evaluation_benchmark_names,
    plan_schemes,
    run_scheme_on_benchmark,
    train_or_load_model,
)
from repro.experiments.registry import ArtifactSchema, Experiment
from repro.profiling.metrics import arithmetic_mean


class Fig10Displacement(Experiment):
    experiment_id = "fig10"
    artifact = "Figure 10"
    title = "Displacement between predicted and converged warp-tuples"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=(
            "mean_displacement_n",
            "mean_displacement_p",
            "mean_displacement_euclidean",
        ),
        required_tables=("displacement",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return plan_schemes(("poise",), config)

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        model = train_or_load_model(config)
        benchmarks = evaluation_benchmark_names()

        experiment = ExperimentResult(
            experiment_id="fig10",
            description="Displacement between predicted and converged warp-tuples",
        )
        table = experiment.add_table(
            Table(
                title="Fig. 10 — absolute displacement",
                columns=["benchmark", "N-axis", "p-axis", "Euclidean"],
            )
        )
        means_n, means_p, means_e = [], [], []
        for name in benchmarks:
            outcome = run_scheme_on_benchmark("poise", name, config, model=model)
            per_kernel_n, per_kernel_p, per_kernel_e = [], [], []
            for telemetry in outcome.telemetry.values():
                per_kernel_n.append(telemetry.get("mean_displacement_n", 0.0))
                per_kernel_p.append(telemetry.get("mean_displacement_p", 0.0))
                per_kernel_e.append(telemetry.get("mean_displacement_euclidean", 0.0))
            row_n = arithmetic_mean(per_kernel_n) if per_kernel_n else 0.0
            row_p = arithmetic_mean(per_kernel_p) if per_kernel_p else 0.0
            row_e = arithmetic_mean(per_kernel_e) if per_kernel_e else 0.0
            means_n.append(row_n)
            means_p.append(row_p)
            means_e.append(row_e)
            table.add_row(name, row_n, row_p, row_e)
        table.add_row(
            "A-Mean",
            arithmetic_mean(means_n),
            arithmetic_mean(means_p),
            arithmetic_mean(means_e),
        )
        experiment.scalars["mean_displacement_n"] = arithmetic_mean(means_n)
        experiment.scalars["mean_displacement_p"] = arithmetic_mean(means_p)
        experiment.scalars["mean_displacement_euclidean"] = arithmetic_mean(means_e)
        experiment.add_note(
            "Paper averages: 1.02 (N-axis), 0.87 (p-axis), 1.59 (Euclidean)."
        )
        return experiment
