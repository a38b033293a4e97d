"""Bench: regenerate Table II (the learned feature weights)."""

from benchmarks.conftest import run_and_print


def test_table02_feature_weights(benchmark, experiment_config):
    result = run_and_print(benchmark, "table02", experiment_config)
    table = result.table("features and weights")
    assert len(table.rows) == 8  # the eight features of Table II
    assert result.scalars["num_training_kernels"] >= 8
