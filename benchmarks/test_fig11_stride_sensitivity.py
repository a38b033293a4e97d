"""Bench: regenerate Fig. 11 (sensitivity to local-search stride)."""

from benchmarks.conftest import run_and_print


def test_fig11_stride_sensitivity(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig11", experiment_config)
    # Shape: adding a local search never hurts the harmonic mean much
    # relative to predictions alone, and the paper's chosen stride (2,4) is
    # competitive with the largest stride swept.
    no_search = result.scalars["hmean_0_0"]
    best_swept = max(value for key, value in result.scalars.items() if key.startswith("hmean_"))
    assert result.scalars["hmean_2_4"] >= no_search - 0.05
    assert result.scalars["hmean_2_4"] >= best_swept - 0.10
