"""Bench: regenerate Fig. 15 (Poise vs APCM and random-restart search)."""

from benchmarks.conftest import run_and_print


def test_fig15_apcm_random_restart(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig15", experiment_config)
    # Shape: Poise is competitive with both alternative families (the paper
    # reports wins of 39.5% over APCM and 22.4% over random-restart).
    assert result.scalars["hmean_poise"] >= result.scalars["hmean_apcm"] - 0.10
    assert result.scalars["hmean_poise"] >= result.scalars["hmean_random_restart"] - 0.10
