"""Table IIIb — baseline architecture parameters.

Reports the simulated architecture side by side with the paper's GPGPU-Sim
configuration, including the single-SM scaling decisions that
:mod:`repro.gpu.config` documents (per-scheduler view, L2 slice, per-SM
DRAM bandwidth share).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import ArtifactSchema, ExperimentBase, ExperimentConfig


class Table03bArchitecture(ExperimentBase):
    experiment_id = "table03b"
    artifact = "Table IIIb"
    title = "Baseline architecture parameters"
    schema = ArtifactSchema(min_tables=1, required_tables=("architecture",))

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        gpu = config.gpu

        experiment = ExperimentResult(
            experiment_id="table03b",
            description="Baseline architecture parameters",
        )
        table = experiment.add_table(
            Table(
                title="Table IIIb — architecture",
                columns=["parameter", "paper", "this model"],
            )
        )
        simulated = (
            f"{gpu.num_sms} simulated, sharing L2/DRAM"
            if gpu.num_sms > 1
            else f"{gpu.num_sms} simulated (symmetric single-SM view)"
        )
        rows = [
            ("SMs", "32", simulated),
            ("Schedulers per SM", "2 x GTO", "1 x GTO (per-scheduler view)"),
            ("Max warps per scheduler", "24", str(gpu.sm.max_warps)),
            ("Max threads per SM", "1536", str(gpu.sm.max_warps * gpu.sm.warp_size * 2)),
            ("SIMD width", "32", str(gpu.sm.warp_size)),
            (
                "L1 data cache",
                "16KB, 32 sets, 4-way, 128B, hashed, 32 MSHRs",
                f"{gpu.l1.size_bytes // 1024}KB, {gpu.l1.num_sets} sets, {gpu.l1.assoc}-way, "
                f"{gpu.l1.line_size}B, {gpu.l1.indexing}, {gpu.l1.mshr_entries} MSHRs",
            ),
            (
                "L2 cache",
                "2.25 MB, 24 banks, 8-way, 128B",
                f"{gpu.memory.l2.size_bytes // 1024}KB per-SM slice, {gpu.memory.l2.assoc}-way, "
                f"{gpu.memory.l2.line_size}B",
            ),
            (
                "DRAM",
                "GDDR5 @ 924 MHz, 6 partitions, 384-bit",
                f"{gpu.memory.dram_latency}-cycle latency, one line per "
                f"{gpu.memory.dram_service_interval} cycles per SM share",
            ),
            ("L2 latency", "(interconnect + L2)", f"{gpu.memory.l2_latency} cycles"),
        ]
        for parameter, paper_value, ours in rows:
            table.add_row(parameter, paper_value, ours)
        return experiment


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    return Table03bArchitecture().run(config)


def main() -> None:
    Table03bArchitecture.cli()


if __name__ == "__main__":
    main()
