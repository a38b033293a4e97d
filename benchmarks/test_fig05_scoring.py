"""Bench: regenerate Fig. 5 (scoring performance peaks vs cliffs)."""

from benchmarks.conftest import run_and_print


def test_fig05_scoring(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig05", experiment_config)
    table = result.table("raw peak vs best score")
    for row in table.as_dict_rows():
        # The scored target never claims more speedup than the raw peak.
        assert row["scored speedup"] <= row["peak speedup"] + 1e-9
