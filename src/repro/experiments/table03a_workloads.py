"""Table IIIa — training and evaluation workloads with their Pbest.

``Pbest`` is the speedup observed with a 64x larger L1 cache; the paper uses
``Pbest > 1.4`` as the memory-sensitivity criterion and sorts the evaluation
set by it.  The reproduction measures Pbest for every benchmark (averaged
over its kernels) and reports the training/evaluation split, kernel counts
and memory-sensitivity classification.
"""

from __future__ import annotations

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import ExperimentConfig, get_pbest, measurement
from repro.experiments.registry import ArtifactSchema, Experiment
from repro.profiling.metrics import arithmetic_mean
from repro.workloads.registry import (
    compute_intensive_benchmarks,
    evaluation_benchmarks,
    training_benchmarks,
)


def _kernels(config: ExperimentConfig):
    """(role, benchmark, its limited kernels) for every row of the table."""
    groups = (
        ("training", training_benchmarks()),
        ("evaluation", evaluation_benchmarks()),
        ("compute", compute_intensive_benchmarks()),
    )
    for role, benchmarks in groups:
        for benchmark in benchmarks:
            yield role, benchmark, config.limited_kernels(benchmark, training=(role == "training"))


class Table03aWorkloads(Experiment):
    experiment_id = "table03a"
    artifact = "Table IIIa"
    title = "Training and evaluation workloads (Pbest = speedup with 64x L1)"
    schema = ArtifactSchema(
        min_tables=1,
        required_scalars=("pbest_ii", "pbest_bfs"),
        required_tables=("workloads",),
    )

    def plan(self, config: ExperimentConfig) -> list:
        return [
            measurement(get_pbest, spec, config)
            for _, _, kernels in _kernels(config)
            for spec in kernels
        ]

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        experiment = ExperimentResult(
            experiment_id="table03a",
            description="Training and evaluation workloads (Pbest = speedup with 64x L1)",
        )
        table = experiment.add_table(
            Table(
                title="Table IIIa — workloads",
                columns=["role", "suite", "benchmark", "kernels", "Pbest", "memory-sensitive"],
            )
        )
        for role, benchmark, kernels in _kernels(config):
            pbest = arithmetic_mean([get_pbest(spec, config) for spec in kernels])
            table.add_row(
                role,
                benchmark.suite,
                benchmark.name,
                benchmark.num_kernels,
                pbest,
                "yes" if pbest > 1.4 else "no",
            )
            experiment.scalars[f"pbest_{benchmark.name}"] = pbest
        experiment.add_note(
            "Paper Pbest ranges from 1.42x (kmeans) to 14.13x (syr2k) for the evaluation set "
            "and 1.49-3.43x for training; compute-intensive applications are below 1.2x."
        )
        return experiment
