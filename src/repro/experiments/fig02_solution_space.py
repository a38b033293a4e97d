"""Fig. 2 — the {N, p} solution space of an ``ii`` kernel.

The figure that motivates the whole paper: a static profile of one kernel
over the warp-tuple plane, the point CCWS/SWL converges to (restricted to
the diagonal), the point PCAL's search converges to, and the global optimum.
The reproduction regenerates:

* the full speedup grid (Fig. 2a),
* the two one-dimensional cuts ``p = N`` and ``p = 1`` (Fig. 2b), and
* the CCWS / PCAL / MAX summary points with their speedups.

The expected shape: CCWS's diagonal point is a small win, PCAL improves on
it by decoupling p, and the global optimum sits at a larger N with a small p
that neither prior scheme reaches.
"""

from __future__ import annotations

from repro.analysis.tables import ExperimentResult, Table
from repro.experiments.common import (
    ExperimentConfig,
    get_profile,
    measurement,
    run_entry,
    run_scheme_on_kernel,
)
from repro.experiments.registry import ArtifactSchema, Experiment
from repro.workloads.registry import get_benchmark

#: The kernel Fig. 2 profiles: the first kernel of ``ii``.
BENCHMARK = "ii"
KERNEL_INDEX = 0


class Fig02SolutionSpace(Experiment):
    experiment_id = "fig02"
    artifact = "Figure 2"
    title = "{N, p} solution space of one kernel (grid, cuts, summary points)"
    schema = ArtifactSchema(
        min_tables=3,
        required_scalars=("ccws_speedup", "max_speedup"),
        required_tables=("speedup grid", "summary points"),
    )

    def plan(self, config: ExperimentConfig) -> list:
        spec = get_benchmark(BENCHMARK).kernels[KERNEL_INDEX]
        return [measurement(get_profile, spec, config), run_entry("pcal", spec, config)]

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        spec = get_benchmark(BENCHMARK).kernels[KERNEL_INDEX]
        profile = get_profile(spec, config)
        grid = profile.speedup_grid()

        experiment = ExperimentResult(
            experiment_id="fig02",
            description=f"{{N, p}} solution space of {spec.name}",
        )

        grid_table = experiment.add_table(
            Table(title="Fig. 2a — speedup grid", columns=["N", "p", "speedup"])
        )
        for (n, p), speedup in sorted(grid.items()):
            grid_table.add_row(n, p, speedup)

        cuts = experiment.add_table(
            Table(
                title="Fig. 2b — cuts p=N and p=1",
                columns=["N", "speedup_p_eq_N", "speedup_p_eq_1"],
            )
        )
        for n in sorted({point[0] for point in grid}):
            diag = grid.get((n, n), float("nan"))
            p1 = grid.get((n, 1), float("nan"))
            cuts.add_row(n, diag, p1)

        # Summary points: CCWS (best diagonal), PCAL (dynamic search), MAX (global optimum).
        ccws_point = profile.best_diagonal_point()
        max_point = profile.best_point()
        pcal_point = run_scheme_on_kernel("pcal", spec, config).telemetry["warp_tuple"]

        summary = experiment.add_table(
            Table(title="Fig. 2 — summary points", columns=["scheme", "N", "p", "speedup"])
        )
        summary.add_row("CCWS/SWL", ccws_point[0], ccws_point[1], grid.get(ccws_point, 1.0))
        summary.add_row(
            "PCAL", pcal_point[0], pcal_point[1], grid.get(tuple(pcal_point), float("nan"))
        )
        summary.add_row("MAX", max_point[0], max_point[1], grid.get(max_point, 1.0))

        experiment.scalars["ccws_speedup"] = grid.get(ccws_point, 1.0)
        experiment.scalars["max_speedup"] = grid.get(max_point, 1.0)
        experiment.add_note(
            "Paper (ii kernel #112): CCWS reaches (2,2) at 1.07x, PCAL (2,1) at 1.35x, "
            "global optimum (15,1) at 1.45x."
        )
        return experiment
