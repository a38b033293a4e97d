"""Bench: regenerate Fig. 4 (L1 hit-rate breakdown at p = 1)."""

from benchmarks.conftest import run_and_print


def test_fig04_hit_rate_breakdown(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig04", experiment_config)
    # Shape check: the intra-warp-dominated, small-footprint workload (ii)
    # recovers more polluting-warp hit rate than the large-footprint one (bfs).
    assert result.scalars["ii_delta_hp"] >= result.scalars["bfs_delta_hp"] - 0.05
