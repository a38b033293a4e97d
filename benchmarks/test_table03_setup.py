"""Bench: regenerate Table IIIa (workloads + Pbest) and Table IIIb (architecture)."""

from benchmarks.conftest import run_and_print


def test_table03a_workloads(benchmark, experiment_config):
    result = run_and_print(benchmark, "table03a", experiment_config)
    # Shape: evaluation benchmarks are memory-sensitive, compute ones are not.
    assert result.scalars["pbest_mm"] > 1.4
    assert result.scalars["pbest_ii"] > 1.4
    assert result.scalars["pbest_hotspot"] < 1.4


def test_table03b_architecture(benchmark, experiment_config):
    result = run_and_print(benchmark, "table03b", experiment_config)
    table = result.table("architecture")
    assert table.row_by_key("SMs") is not None
    assert table.row_by_key("L1 data cache") is not None
