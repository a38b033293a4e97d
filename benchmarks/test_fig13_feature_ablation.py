"""Bench: regenerate Fig. 13 (sensitivity to removing one feature)."""

from benchmarks.conftest import run_and_print


def test_fig13_feature_ablation(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig13", experiment_config)
    # Shape: no ablated model beats the all-features model by a wide margin
    # (the paper finds all-features training is best overall).
    for key, value in result.scalars.items():
        if key.startswith("hmean_minus_"):
            assert value <= 1.15
