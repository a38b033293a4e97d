"""Bench: regenerate Table IV (Poise parameters)."""

from benchmarks.conftest import run_and_print


def test_table04_parameters(benchmark, experiment_config):
    result = run_and_print(benchmark, "table04", experiment_config)
    table = result.table("Poise parameters")
    paper_column = table.column("paper")
    # Table IV headline values.
    assert 200000 in paper_column
    assert 49.0 in paper_column
