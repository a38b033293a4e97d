"""Table IV — Poise's timing, search and threshold parameters.

Reports the paper's values (``PoiseParameters.paper()``) and the scaled
values actually used by the reproduction's experiment configuration, with
the scaling rationale and the share of each epoch that sampling takes under
both.
"""

from __future__ import annotations

from repro.analysis.tables import ExperimentResult, Table
from repro.core.inference import PoiseParameters
from repro.experiments.common import ExperimentConfig
from repro.experiments.registry import ArtifactSchema, Experiment


class Table04Parameters(Experiment):
    experiment_id = "table04"
    artifact = "Table IV"
    title = "Poise parameters (paper values vs reproduction values)"
    schema = ArtifactSchema(min_tables=1, required_tables=("Poise parameters",))

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        paper = PoiseParameters.paper()
        used = config.poise_params

        experiment = ExperimentResult(
            experiment_id="table04",
            description="Poise parameters (paper values vs reproduction values)",
        )
        table = experiment.add_table(
            Table(
                title="Table IV — Poise parameters",
                columns=["parameter", "paper", "this run"],
            )
        )
        rows = [
            (
                "scoring weights (w0, w1, w2)",
                str(paper.scoring_weights),
                str(used.scoring_weights),
            ),
            ("T_period (cycles)", paper.t_period, used.t_period),
            ("T_warmup (cycles)", paper.t_warmup, used.t_warmup),
            ("T_feature (cycles)", paper.t_feature, used.t_feature),
            ("T_search (cycles)", paper.t_search, used.t_search),
            ("I_max (instructions between loads)", paper.i_max, used.i_max),
            ("epsilon_N (search stride)", paper.stride_n, used.stride_n),
            ("epsilon_p (search stride)", paper.stride_p, used.stride_p),
            ("threshold speedup", paper.threshold_speedup, used.threshold_speedup),
            ("threshold cycles", paper.threshold_cycles, used.threshold_cycles),
            ("threshold hit rate", paper.threshold_hit_rate, used.threshold_hit_rate),
        ]
        for parameter, paper_value, ours in rows:
            table.add_row(parameter, paper_value, ours)
        sampling = [(p.t_warmup + p.t_feature) / p.t_period for p in (paper, used)]
        search = [p.t_search / p.t_period for p in (paper, used)]
        experiment.add_note(
            "Timing parameters are scaled down because the reproduction's synthetic kernels "
            "are far shorter than the paper's 4-billion-instruction runs. Shares of T_period, "
            f"paper vs this run: (T_warmup + T_feature) {sampling[0]:.1%} vs {sampling[1]:.1%}, "
            f"T_search {search[0]:.1%} vs {search[1]:.1%}."
        )
        return experiment
