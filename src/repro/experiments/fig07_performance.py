"""Fig. 7 — IPC of SWL, PCAL-SWL, Poise and Static-Best normalised to GTO.

The paper reports a harmonic-mean speedup of 46.6% for Poise (up to 2.94x on
``mm``), 31.5% for PCAL-SWL, 21.8% for SWL and 52.8% for Static-Best.  The
reproduction regenerates the same per-benchmark bars and the harmonic mean
row; the expected *shape* is Poise > PCAL-SWL > SWL > GTO with Static-Best a
few percent above Poise.
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
from repro.profiling.metrics import harmonic_mean

SCHEME_LABELS = {
    "gto": "GTO",
    "swl": "SWL",
    "pcal": "PCAL-SWL",
    "poise": "Poise",
    "static_best": "Static-Best",
}


class Fig07Performance(ExperimentBase):
    experiment_id = "fig07"
    artifact = "Figure 7"
    title = "Performance improvement (IPC normalised to GTO)"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=tuple(f"hmean_{scheme}" for scheme in EVALUATION_SCHEMES)
        + ("max_poise",),
        required_tables=("IPC normalised to GTO",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return plan_schemes(EVALUATION_SCHEMES, config)

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        benchmarks = evaluation_benchmark_names()
        results = evaluate_schemes(EVALUATION_SCHEMES, config, benchmarks=benchmarks)

        experiment = ExperimentResult(
            experiment_id="fig07",
            description="Performance improvement (IPC normalised to GTO)",
        )
        table = experiment.add_table(
            Table(
                title="Fig. 7 — IPC normalised to GTO",
                columns=["benchmark"] + [SCHEME_LABELS[s] for s in EVALUATION_SCHEMES],
            )
        )
        for name in benchmarks:
            table.add_row(
                name, *[results[scheme][name].speedup for scheme in EVALUATION_SCHEMES]
            )
        hmean_row = ["H-Mean"]
        for scheme in EVALUATION_SCHEMES:
            speedups = [results[scheme][name].speedup for name in benchmarks]
            hmean_row.append(harmonic_mean([max(s, 1e-6) for s in speedups]))
        table.add_row(*hmean_row)

        for scheme in EVALUATION_SCHEMES:
            experiment.scalars[f"hmean_{scheme}"] = hmean_row[
                1 + EVALUATION_SCHEMES.index(scheme)
            ]
        experiment.scalars["max_poise"] = max(
            results["poise"][name].speedup for name in benchmarks
        )
        experiment.add_note(
            "Paper: Poise H-mean 1.466 (max 2.94x on mm), PCAL-SWL 1.315, SWL 1.218, "
            "Static-Best 1.528."
        )
        return experiment


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    return Fig07Performance().run(config)


def main() -> None:
    Fig07Performance.cli()


if __name__ == "__main__":
    main()
