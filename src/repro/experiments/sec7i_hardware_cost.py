"""Section VII-I — hardware storage cost of Poise (~41 bytes per SM)."""

from __future__ import annotations

from repro.analysis.tables import ExperimentResult, Table
from repro.core.hardware_cost import HardwareCostModel
from repro.experiments.common import ExperimentConfig
from repro.experiments.registry import ArtifactSchema, Experiment


class Sec7iHardwareCost(Experiment):
    experiment_id = "sec7i"
    artifact = "Section VII-I"
    title = "Hardware storage overhead of Poise"
    schema = ArtifactSchema(
        min_tables=2,
        required_scalars=("bytes_per_sm", "bytes_total"),
        required_tables=("storage inventory", "totals"),
    )

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        cost = HardwareCostModel()
        experiment = ExperimentResult(
            experiment_id="sec7i",
            description="Hardware storage overhead of Poise",
        )
        table = experiment.add_table(
            Table(title="Sec. VII-I — storage inventory per SM", columns=["item", "bits"])
        )
        table.add_row("performance counters (7 x 32b)", cost.counter_bits_total)
        table.add_row("inference FSM state (2 x 3b)", cost.fsm_bits_total)
        table.add_row("vital + pollute bits (48 warps x 2b)", cost.warp_bits_total)
        table.add_row("total bits per SM", cost.bits_per_sm)

        summary = experiment.add_table(
            Table(title="Sec. VII-I — totals", columns=["quantity", "value"], precision=2)
        )
        summary.add_row("bytes per SM", cost.bytes_per_sm)
        summary.add_row("bytes chip-wide (32 SMs)", cost.bytes_total)
        experiment.scalars["bytes_per_sm"] = cost.bytes_per_sm
        experiment.scalars["bytes_total"] = cost.bytes_total
        experiment.add_note("Paper: 40.75 bytes per SM, 1,304 bytes total, <0.01% of chip area.")
        return experiment
