"""Fig. 17 — case study: static profile of ``bfs`` vs Poise's runtime choices.

The paper overlays (a) the offline speedup profile of ``bfs`` with (b) the
warp-tuples Poise predicts and then converges to at runtime, showing that the
predictions land in the high-performance region and avoid the low-performance
zones.  The reproduction reports the profile's best region, every predicted
and searched tuple, and how each visited tuple ranks within the static
profile (percentile of its speedup).
"""

from __future__ import annotations

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import (
    ExperimentConfig,
    get_profile,
    measurement,
    plan_benchmark,
    run_scheme_on_benchmark,
    train_or_load_model,
)
from repro.experiments.registry import ArtifactSchema, Experiment
from repro.workloads.registry import get_benchmark

#: The case-study benchmark; its first kernel is profiled.
BENCHMARK = "bfs"


def _percentile_of(grid: dict, point) -> float:
    """Fraction of profiled points whose speedup is below the given point's."""
    if point not in grid:
        # Rank against the nearest profiled point.
        point = min(grid, key=lambda q: (q[0] - point[0]) ** 2 + (q[1] - point[1]) ** 2)
    value = grid[point]
    below = sum(1 for other in grid.values() if other < value)
    return below / max(1, len(grid) - 1)


class Fig17CaseStudy(Experiment):
    experiment_id = "fig17"
    artifact = "Figure 17"
    title = "Case study: static profile vs Poise runtime warp-tuples"
    schema = ArtifactSchema(
        min_tables=2,
        required_scalars=("best_speedup",),
        required_tables=("static profile summary", "runtime warp-tuples"),
    )

    def plan(self, config: ExperimentConfig) -> list:
        spec = get_benchmark(BENCHMARK).kernels[0]
        return [measurement(get_profile, spec, config)] + plan_benchmark("poise", BENCHMARK, config)

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        model = train_or_load_model(config)
        spec = get_benchmark(BENCHMARK).kernels[0]
        profile = get_profile(spec, config)
        grid = profile.speedup_grid()

        outcome = run_scheme_on_benchmark("poise", BENCHMARK, config, model=model)

        experiment = ExperimentResult(
            experiment_id="fig17",
            description=f"Case study: static profile vs Poise runtime tuples ({BENCHMARK})",
        )
        profile_table = experiment.add_table(
            Table(title="Fig. 17a — static profile summary", columns=["quantity", "value"])
        )
        best = profile.best_point()
        profile_table.add_row("best point", str(best))
        profile_table.add_row("best speedup", profile.speedup(*best))
        profile_table.add_row("profiled points", len(grid))

        runtime_table = experiment.add_table(
            Table(
                title="Fig. 17b — Poise runtime warp-tuples",
                columns=["kernel", "epoch", "predicted", "searched", "profile percentile"],
            )
        )
        percentiles = []
        for kernel_name, telemetry in outcome.telemetry.items():
            predicted = telemetry.get("predicted_tuples", [])
            searched = telemetry.get("searched_tuples", [])
            for epoch, (pred, found) in enumerate(zip(predicted, searched)):
                percentile = _percentile_of(grid, tuple(found))
                percentiles.append(percentile)
                runtime_table.add_row(
                    kernel_name, epoch, str(tuple(pred)), str(tuple(found)), percentile
                )

        if percentiles:
            experiment.scalars["mean_percentile"] = sum(percentiles) / len(percentiles)
        experiment.scalars["best_speedup"] = profile.speedup(*best)
        experiment.add_note(
            "Paper: bfs's best tuple is (5,5); Poise's predictions cluster near the "
            "high-performance zone and avoid the slow region at high N and moderate-to-high p."
        )
        return experiment
