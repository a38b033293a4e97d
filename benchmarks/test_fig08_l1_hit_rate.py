"""Bench: regenerate Fig. 8 (absolute L1 hit rate per scheme)."""

from benchmarks.conftest import run_and_print


def test_fig08_l1_hit_rate(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig08", experiment_config)
    # Shape: every warp-tuple scheme improves average L1 hit rate over GTO.
    gto = result.scalars["mean_hit_gto"]
    assert result.scalars["mean_hit_poise"] >= gto
    assert result.scalars["mean_hit_swl"] >= gto
    assert result.scalars["mean_hit_static_best"] >= gto
