"""Fig. 5 — scoring performance peaks to avoid performance cliffs.

For two kernels the paper contrasts the raw performance peak with the
best-*scoring* point (Eq. 12): the scored target sits in a safer
neighbourhood even if its raw speedup is slightly lower.  The reproduction
profiles two kernels, applies the same scoring, and reports both points and
their speedups; the property to reproduce is ``score-selected speedup <=
peak speedup`` with the scored point never lying next to a cliff
(neighbourhood mean higher than the peak's neighbourhood mean).
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.tables import ExperimentResult, Table
from repro.core.scoring import best_raw_point, select_training_target
from repro.experiments.common import ExperimentConfig, get_profile, measurement
from repro.experiments.registry import ArtifactSchema, Experiment
from repro.workloads.registry import get_benchmark

KERNELS: Tuple[Tuple[str, int], ...] = (("ii", 0), ("ii", 1))


def _kernel(benchmark_name: str, kernel_index: int):
    benchmark = get_benchmark(benchmark_name)
    return benchmark.kernels[min(kernel_index, len(benchmark.kernels) - 1)]


def _neighbourhood_mean(grid, point) -> float:
    values = []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            neighbour = (point[0] + di, point[1] + dj)
            if neighbour in grid:
                values.append(grid[neighbour])
    return sum(values) / len(values) if values else 0.0


class Fig05Scoring(Experiment):
    experiment_id = "fig05"
    artifact = "Figure 5"
    title = "Scoring performance peaks vs cliffs (Eq. 12)"
    schema = ArtifactSchema(min_tables=1, required_tables=("raw peak",))

    def plan(self, config: ExperimentConfig) -> list:
        return [measurement(get_profile, _kernel(*kernel), config) for kernel in KERNELS]

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        experiment = ExperimentResult(
            experiment_id="fig05",
            description="Scoring performance peaks vs cliffs (Eq. 12)",
        )
        table = experiment.add_table(
            Table(
                title="Fig. 5 — raw peak vs best score",
                columns=[
                    "kernel",
                    "peak (N,p)",
                    "peak speedup",
                    "scored (N,p)",
                    "scored speedup",
                    "peak nbhd mean",
                    "scored nbhd mean",
                ],
            )
        )
        for benchmark_name, kernel_index in KERNELS:
            spec = _kernel(benchmark_name, kernel_index)
            profile = get_profile(spec, config)
            grid = profile.speedup_grid()
            peak = best_raw_point(grid)
            scored = select_training_target(grid, config.poise_params.scoring_weights)
            table.add_row(
                spec.name,
                str(peak.point),
                peak.speedup,
                str(scored.point),
                scored.speedup,
                _neighbourhood_mean(grid, peak.point),
                _neighbourhood_mean(grid, scored.point),
            )
            experiment.scalars[f"{spec.name}_peak_speedup"] = peak.speedup
            experiment.scalars[f"{spec.name}_scored_speedup"] = scored.speedup
        experiment.add_note(
            "Paper: ii kernel#34 peak (6,5) 1.08x vs scored (8,8) 1.06x; kernel#35 peak "
            "(11,4) 1.15x vs scored (7,6) 1.14x — the scored target trades a little speedup "
            "for distance from cliffs."
        )
        return experiment
