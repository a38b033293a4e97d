"""Fig. 16 — Poise on compute-intensive (memory-insensitive) applications.

Poise detects compute-intensive kernels through the ``In > Imax`` cut-off and
falls back to maximum warps, so the paper measures only a 1.6% average
overhead (3.5% worst case) on seven memory-insensitive applications.  The
shape to reproduce: Poise within a few percent of GTO on every benchmark,
with the compute-intensive detector firing in (nearly) every epoch; Pbest
(the 64x-L1 speedup) is also reported to confirm these workloads are indeed
memory-insensitive.
"""

from __future__ import annotations

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import (
    ExperimentConfig,
    compute_benchmark_names,
    get_pbest,
    measurement,
    plan_schemes,
    run_scheme_on_benchmark,
    train_or_load_model,
)
from repro.experiments.registry import ArtifactSchema, Experiment
from repro.profiling.metrics import harmonic_mean
from repro.workloads.registry import get_benchmark


class Fig16ComputeIntensive(Experiment):
    experiment_id = "fig16"
    artifact = "Figure 16"
    title = "Poise on memory-insensitive applications"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=("hmean_poise", "min_poise"),
        required_tables=("compute-intensive",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        benchmarks = compute_benchmark_names()
        return plan_schemes(("poise",), config, benchmarks) + [
            measurement(get_pbest, get_benchmark(name).kernels[0], config) for name in benchmarks
        ]

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        model = train_or_load_model(config)
        benchmarks = compute_benchmark_names()

        experiment = ExperimentResult(
            experiment_id="fig16",
            description="Poise on memory-insensitive applications",
        )
        table = experiment.add_table(
            Table(
                title="Fig. 16 — IPC normalised to GTO (compute-intensive apps)",
                columns=[
                    "benchmark",
                    "GTO",
                    "Poise",
                    "Pbest (64x L1)",
                    "compute-intensive epochs",
                ],
            )
        )
        speedups = []
        for name in benchmarks:
            outcome = run_scheme_on_benchmark("poise", name, config, model=model)
            spec = get_benchmark(name).kernels[0]
            pbest = get_pbest(spec, config)
            bypassed = sum(
                telemetry.get("compute_intensive_epochs", 0)
                for telemetry in outcome.telemetry.values()
            )
            speedups.append(max(outcome.speedup, 1e-6))
            table.add_row(name, 1.0, outcome.speedup, pbest, bypassed)
        table.add_row("H-Mean", 1.0, harmonic_mean(speedups), float("nan"), 0)
        experiment.scalars["hmean_poise"] = harmonic_mean(speedups)
        experiment.scalars["min_poise"] = min(speedups)
        experiment.add_note(
            "Paper: 1.6% average overhead, 3.5% worst case (sradv2); Poise reverts to "
            "maximum warps when In exceeds the Imax cut-off."
        )
        return experiment
