"""Bench: regenerate Fig. 16 (Poise on memory-insensitive applications)."""

from benchmarks.conftest import run_and_print


def test_fig16_compute_intensive(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig16", experiment_config)
    # Shape: Poise is benign on compute-intensive kernels (paper: 1.6% mean
    # overhead, 3.5% worst case) because the In > Imax cut-off reverts it to
    # maximum warps.
    assert result.scalars["hmean_poise"] >= 0.90
    assert result.scalars["min_poise"] >= 0.85
