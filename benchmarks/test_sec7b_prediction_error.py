"""Bench: regenerate the Section VII-B offline prediction-error numbers."""

from benchmarks.conftest import run_and_print


def test_sec7b_prediction_error(benchmark, experiment_config):
    result = run_and_print(benchmark, "sec7b", experiment_config)
    # Shape: prediction errors on unseen kernels are bounded (the paper
    # reports 16% for N and 26% for p on its substrate).
    assert result.scalars["mean_error_n"] <= 1.5
    assert result.scalars["mean_error_p"] <= 3.0
