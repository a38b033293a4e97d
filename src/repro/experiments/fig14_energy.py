"""Fig. 14 — energy consumption of Poise normalised to GTO.

The paper reports an average energy reduction of 51.6% (up to 79.4% on
``mm``), driven by shorter execution (less leakage) and fewer off-chip
accesses.  The shape to reproduce: Poise's normalised energy below 1.0 for
every memory-sensitive benchmark, with the largest savings on the largest
speedups.
"""

from __future__ import annotations

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import (
    ExperimentConfig,
    evaluate_schemes,
    evaluation_benchmark_names,
    plan_schemes,
)
from repro.experiments.registry import ArtifactSchema, Experiment
from repro.profiling.metrics import arithmetic_mean


class Fig14Energy(Experiment):
    experiment_id = "fig14"
    artifact = "Figure 14"
    title = "Energy consumption normalised to GTO"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=("mean_energy_ratio", "min_energy_ratio"),
        required_tables=("Energy",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return plan_schemes(("gto", "poise"), config)

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        benchmarks = evaluation_benchmark_names()
        results = evaluate_schemes(("gto", "poise"), config, benchmarks=benchmarks)

        experiment = ExperimentResult(
            experiment_id="fig14",
            description="Energy consumption normalised to GTO",
        )
        table = experiment.add_table(
            Table(
                title="Fig. 14 — Energy (normalised to GTO)",
                columns=["benchmark", "GTO", "Poise"],
            )
        )
        ratios = []
        for name in benchmarks:
            ratio = results["poise"][name].energy_ratio
            ratios.append(ratio)
            table.add_row(name, 1.0, ratio)
        table.add_row("A-Mean", 1.0, arithmetic_mean(ratios))
        experiment.scalars["mean_energy_ratio"] = arithmetic_mean(ratios)
        experiment.scalars["min_energy_ratio"] = min(ratios)
        experiment.add_note(
            "Paper: Poise reduces energy by 51.6% on average (ratio 0.484), up to 79.4% on mm."
        )
        return experiment
