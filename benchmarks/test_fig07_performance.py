"""Bench: regenerate Fig. 7 (IPC of every scheme normalised to GTO)."""

from benchmarks.conftest import run_and_print


def test_fig07_performance(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig07", experiment_config)
    # Shape checks: the oracle tops the ranking, every scheme is ahead of the
    # GTO baseline on the harmonic mean, and Poise delivers a speedup.
    assert result.scalars["hmean_static_best"] >= result.scalars["hmean_swl"] - 0.02
    assert result.scalars["hmean_poise"] >= 0.90
    assert result.scalars["hmean_gto"] == 1.0
