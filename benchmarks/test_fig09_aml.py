"""Bench: regenerate Fig. 9 (average memory latency normalised to GTO)."""

from benchmarks.conftest import run_and_print


def test_fig09_aml(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig09", experiment_config)
    # Shape: warp throttling relieves memory congestion, so no scheme should
    # inflate AML wildly beyond the GTO baseline on average.
    for scheme in ("swl", "poise", "static_best"):
        assert result.scalars[f"mean_aml_{scheme}"] <= 1.3
