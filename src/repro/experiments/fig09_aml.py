"""Fig. 9 — average memory latency (AML) normalised to GTO.

The paper reports Poise increasing AML by only 1.1% over GTO while PCAL-SWL
increases it by 32.4% and SWL decreases it by 10.7%; Static-Best tolerates a
14.1% increase.  The shape to reproduce: SWL below 1.0, Poise near or below
1.0, PCAL-SWL above Poise.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import (
    EVALUATION_SCHEMES,
    ArtifactSchema,
    ExperimentBase,
    ExperimentConfig,
    evaluate_schemes,
    evaluation_benchmark_names,
    plan_schemes,
)
from repro.experiments.fig07_performance import SCHEME_LABELS
from repro.profiling.metrics import arithmetic_mean


class Fig09AML(ExperimentBase):
    experiment_id = "fig09"
    artifact = "Figure 9"
    title = "Average memory latency normalised to GTO"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=tuple(f"mean_aml_{scheme}" for scheme in EVALUATION_SCHEMES),
        required_tables=("AML",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return plan_schemes(EVALUATION_SCHEMES, config)

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        benchmarks = evaluation_benchmark_names()
        results = evaluate_schemes(EVALUATION_SCHEMES, config, benchmarks=benchmarks)

        experiment = ExperimentResult(
            experiment_id="fig09",
            description="Average memory latency normalised to GTO",
        )
        table = experiment.add_table(
            Table(
                title="Fig. 9 — AML (normalised to GTO)",
                columns=["benchmark"] + [SCHEME_LABELS[s] for s in EVALUATION_SCHEMES],
            )
        )
        for name in benchmarks:
            table.add_row(
                name, *[results[scheme][name].aml_ratio for scheme in EVALUATION_SCHEMES]
            )
        mean_row = ["A-Mean"]
        for scheme in EVALUATION_SCHEMES:
            mean_row.append(
                arithmetic_mean([results[scheme][name].aml_ratio for name in benchmarks])
            )
        table.add_row(*mean_row)
        for index, scheme in enumerate(EVALUATION_SCHEMES):
            experiment.scalars[f"mean_aml_{scheme}"] = mean_row[1 + index]
        experiment.add_note(
            "Paper averages: Poise +1.1%, PCAL-SWL +32.4%, SWL -10.7%, Static-Best +14.1% vs GTO."
        )
        return experiment


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    return Fig09AML().run(config)


def main() -> None:
    Fig09AML.cli()


if __name__ == "__main__":
    main()
