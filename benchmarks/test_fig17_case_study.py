"""Bench: regenerate Fig. 17 (bfs case study: profile vs runtime tuples)."""

from benchmarks.conftest import run_and_print


def test_fig17_case_study(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig17", experiment_config)
    # Shape: Poise's runtime tuples land in the upper part of the static
    # profile's speedup distribution (it avoids the low-performance zones).
    if "mean_percentile" in result.scalars:
        assert result.scalars["mean_percentile"] >= 0.25
