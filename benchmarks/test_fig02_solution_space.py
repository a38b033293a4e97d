"""Bench: regenerate Fig. 2 (the {N, p} solution space of an ii kernel)."""

from benchmarks.conftest import run_and_print


def test_fig02_solution_space(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig02", experiment_config)
    grid = result.table("speedup grid")
    # The decoupled optimum must be at least as good as anything CCWS/SWL can
    # reach on the diagonal (the motivation of the paper).
    assert result.scalars["max_speedup"] >= result.scalars["ccws_speedup"] - 1e-9
    assert len(grid.rows) > 10
