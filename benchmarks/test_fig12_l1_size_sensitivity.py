"""Bench: regenerate Fig. 12 (L1 size sensitivity with a pre-trained model)."""

from benchmarks.conftest import run_and_print


def test_fig12_l1_size_sensitivity(benchmark, experiment_config):
    result = run_and_print(benchmark, "fig12", experiment_config)
    # Shape: Poise, trained on the 16 KB hashed baseline, still behaves
    # sanely when deployed on larger linearly-indexed caches (no collapse).
    for scale in (1, 2, 4):
        assert result.scalars[f"hmean_{16 * scale}KB"] >= 0.85
