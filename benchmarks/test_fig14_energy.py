"""Bench: regenerate Fig. 14 (energy consumption normalised to GTO)."""

from benchmarks.conftest import run_and_print


def test_fig14_energy(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig14", experiment_config)
    # Shape: Poise does not increase energy on average (the paper reports a
    # ~52% reduction; the reproduction's saving tracks its speedup).
    assert result.scalars["mean_energy_ratio"] <= 1.05
    assert result.scalars["min_energy_ratio"] <= 1.0
