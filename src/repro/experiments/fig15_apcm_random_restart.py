"""Fig. 15 — Poise vs an APCM-style bypass scheme and random-restart search.

Two alternative families the paper compares against (Section VII-J):

* an instruction-locality-based cache bypass/protect scheme (APCM), which
  manages the cache but never reduces multithreading — Poise outperforms it
  by 39.5% on average in the paper;
* random-restart stochastic search with the same local search Poise uses,
  which avoids local optima but starts from arbitrary points — Poise wins by
  22.4% on average in the paper.

The shape to reproduce: Poise above both alternatives on the harmonic mean.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import (
    ArtifactSchema,
    ExperimentBase,
    ExperimentConfig,
    evaluate_schemes,
    evaluation_benchmark_names,
    plan_schemes,
)
from repro.profiling.metrics import harmonic_mean

SCHEMES = ("gto", "apcm", "random_restart", "poise")
LABELS = {
    "gto": "GTO",
    "apcm": "APCM",
    "random_restart": "Random-restart",
    "poise": "Poise",
}


class Fig15ApcmRandomRestart(ExperimentBase):
    experiment_id = "fig15"
    artifact = "Figure 15"
    title = "Poise vs APCM and random-restart search"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=tuple(f"hmean_{scheme}" for scheme in SCHEMES),
        required_tables=("IPC normalised to GTO",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return plan_schemes(SCHEMES, config)

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        benchmarks = evaluation_benchmark_names()
        results = evaluate_schemes(SCHEMES, config, benchmarks=benchmarks)

        experiment = ExperimentResult(
            experiment_id="fig15",
            description="Poise vs APCM and random-restart search",
        )
        table = experiment.add_table(
            Table(
                title="Fig. 15 — IPC normalised to GTO",
                columns=["benchmark"] + [LABELS[s] for s in SCHEMES],
            )
        )
        for name in benchmarks:
            table.add_row(name, *[results[scheme][name].speedup for scheme in SCHEMES])
        hmean_row = ["H-Mean"]
        for scheme in SCHEMES:
            hmean_row.append(
                harmonic_mean(
                    [max(results[scheme][name].speedup, 1e-6) for name in benchmarks]
                )
            )
        table.add_row(*hmean_row)
        for scheme, value in zip(SCHEMES, hmean_row[1:]):
            experiment.scalars[f"hmean_{scheme}"] = value
        experiment.add_note(
            "Paper: Poise outperforms APCM by 39.5% and random-restart search by 22.4% on average."
        )
        return experiment


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    return Fig15ApcmRandomRestart().run(config)


def main() -> None:
    Fig15ApcmRandomRestart.cli()


if __name__ == "__main__":
    main()
