"""Section VII-B — offline prediction accuracy on unseen kernels.

The trained model is applied to profiled kernels from the *evaluation* set
(never seen during training) and the predicted warp-tuples are compared with
each kernel's scored best tuple.  The paper reports mean errors of 16% for N
and 26% for p; the reproduction reports the same two numbers plus the
per-kernel detail.
"""

from __future__ import annotations

from repro.analysis.tables import ExperimentResult, Table
from repro.core.scoring import select_training_target
from repro.experiments.common import (
    ExperimentConfig,
    get_features,
    get_profile,
    measurement,
    model_entry,
    train_or_load_model,
)
from repro.experiments.registry import ArtifactSchema, Experiment
from repro.profiling.metrics import arithmetic_mean
from repro.workloads.registry import evaluation_benchmarks


class Sec7bPredictionError(Experiment):
    experiment_id = "sec7b"
    artifact = "Section VII-B"
    title = "Offline prediction error on unseen (evaluation) kernels"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=("mean_error_n", "mean_error_p"),
        required_tables=("prediction error",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return [model_entry(config)] + [
            measurement(read, spec, config)
            for benchmark in evaluation_benchmarks()
            for spec in config.limited_kernels(benchmark)
            for read in (get_profile, get_features)
        ]

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        model = train_or_load_model(config)

        experiment = ExperimentResult(
            experiment_id="sec7b",
            description="Offline prediction error on unseen (evaluation) kernels",
        )
        table = experiment.add_table(
            Table(
                title="Sec. VII-B — per-kernel prediction error",
                columns=["kernel", "target (N,p)", "predicted (N,p)", "error N", "error p"],
            )
        )
        errors_n, errors_p = [], []
        for benchmark in evaluation_benchmarks():
            for spec in config.limited_kernels(benchmark):
                profile = get_profile(spec, config)
                target = select_training_target(
                    profile.speedup_grid(), config.poise_params.scoring_weights
                )
                features = get_features(spec, config)
                predicted = model.predict(features, max_warps=profile.max_warps)
                error_n = abs(predicted[0] - target.point[0]) / max(1, target.point[0])
                error_p = abs(predicted[1] - target.point[1]) / max(1, target.point[1])
                errors_n.append(error_n)
                errors_p.append(error_p)
                table.add_row(spec.name, str(target.point), str(predicted), error_n, error_p)
        table.add_row(
            "MEAN", "", "", arithmetic_mean(errors_n), arithmetic_mean(errors_p)
        )
        experiment.scalars["mean_error_n"] = arithmetic_mean(errors_n)
        experiment.scalars["mean_error_p"] = arithmetic_mean(errors_p)
        experiment.add_note("Paper: mean prediction error 16% for N and 26% for p.")
        return experiment
