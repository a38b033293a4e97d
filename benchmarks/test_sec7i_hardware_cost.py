"""Bench: regenerate the Section VII-I hardware cost accounting."""

from benchmarks.conftest import run_and_print


def test_sec7i_hardware_cost(benchmark, experiment_config):
    result = run_and_print(benchmark, "sec7i", experiment_config)
    assert abs(result.scalars["bytes_per_sm"] - 40.75) < 0.01
    assert abs(result.scalars["bytes_total"] - 1304) < 1.0
