"""Fig. 8 — absolute L1 hit rate per scheme.

The paper reports average L1 hit rates of 20.6% (GTO), 37.7% (SWL), 27.1%
(PCAL-SWL), 40.1% (Poise) and 43.6% (Static-Best).  The shape to reproduce:
Poise and Static-Best highest, SWL close behind (it trades performance for
hit rate), PCAL-SWL noticeably lower, GTO lowest.
"""

from __future__ import annotations

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import (
    EVALUATION_SCHEMES,
    ExperimentConfig,
    evaluate_schemes,
    evaluation_benchmark_names,
    plan_schemes,
)
from repro.experiments.registry import ArtifactSchema, Experiment
from repro.experiments.fig07_performance import SCHEME_LABELS
from repro.profiling.metrics import arithmetic_mean


class Fig08L1HitRate(Experiment):
    experiment_id = "fig08"
    artifact = "Figure 8"
    title = "Absolute L1 hit rate (%) per scheme"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=tuple(f"mean_hit_{scheme}" for scheme in EVALUATION_SCHEMES),
        required_tables=("L1 hit rate",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return plan_schemes(EVALUATION_SCHEMES, config)

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        benchmarks = evaluation_benchmark_names()
        results = evaluate_schemes(EVALUATION_SCHEMES, config, benchmarks=benchmarks)

        experiment = ExperimentResult(
            experiment_id="fig08",
            description="Absolute L1 hit rate (%) per scheme",
        )
        table = experiment.add_table(
            Table(
                title="Fig. 8 — L1 hit rate (%)",
                columns=["benchmark"] + [SCHEME_LABELS[s] for s in EVALUATION_SCHEMES],
                precision=1,
            )
        )
        for name in benchmarks:
            table.add_row(
                name,
                *[
                    100.0 * results[scheme][name].l1_hit_rate
                    for scheme in EVALUATION_SCHEMES
                ],
            )
        mean_row = ["A-Mean"]
        for scheme in EVALUATION_SCHEMES:
            mean_row.append(
                arithmetic_mean(
                    [100.0 * results[scheme][name].l1_hit_rate for name in benchmarks]
                )
            )
        table.add_row(*mean_row)
        for index, scheme in enumerate(EVALUATION_SCHEMES):
            experiment.scalars[f"mean_hit_{scheme}"] = mean_row[1 + index]
        experiment.add_note(
            "Paper averages: GTO 20.6%, SWL 37.7%, PCAL-SWL 27.1%, Poise 40.1%, Static-Best 43.6%."
        )
        return experiment
