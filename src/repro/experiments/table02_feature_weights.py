"""Table II — the feature vector and the learned feature weights (α, β).

The reproduction retrains (or loads) the regression and reports the fitted
weight for every feature and both targets.  Absolute weight values depend on
the substrate, so the comparison with the paper is qualitative: eight
features, one α and one β weight each, produced by a Negative Binomial fit
on the training split only.
"""

from __future__ import annotations

from repro.analysis.tables import ExperimentResult, Table
from repro.core.features import FEATURE_NAMES
from repro.experiments.common import ExperimentConfig, model_entry, train_or_load_model
from repro.experiments.registry import ArtifactSchema, Experiment


class Table02FeatureWeights(Experiment):
    experiment_id = "table02"
    artifact = "Table II"
    title = "Feature vector X and learned weights (alpha for N, beta for p)"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=("num_training_kernels", "dispersion_n", "dispersion_p"),
        required_tables=("features and weights",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return [model_entry(config)]

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        model = train_or_load_model(config)

        experiment = ExperimentResult(
            experiment_id="table02",
            description="Feature vector X and learned weights (alpha for N, beta for p)",
        )
        table = experiment.add_table(
            Table(
                title="Table II — features and weights",
                columns=["feature", "alpha (N)", "beta (p)"],
                precision=6,
            )
        )
        for name, alpha, beta in zip(FEATURE_NAMES, model.alpha_weights, model.beta_weights):
            table.add_row(name, alpha, beta)
        experiment.scalars["num_training_kernels"] = float(model.num_training_kernels)
        experiment.scalars["dispersion_n"] = model.dispersion_n
        experiment.scalars["dispersion_p"] = model.dispersion_p
        experiment.add_note(
            "Weights are substrate-specific; the paper's Table II values were fitted on "
            "GPGPU-Sim profiles.  The structural property reproduced is the 8-feature "
            "log-linear mapping trained once, offline, on the training split."
        )
        return experiment
