"""Bench: regenerate Fig. 10 (prediction vs searched warp-tuple displacement)."""

from benchmarks.conftest import run_and_print


def test_fig10_displacement(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig10", experiment_config)
    # Shape: the local search converges within a few warps of the prediction
    # (the paper reports ~1 warp per axis, ~1.6 Euclidean).
    assert result.scalars["mean_displacement_euclidean"] <= 8.0
    assert result.scalars["mean_displacement_n"] >= 0.0
