"""Pre/post-refactor artifact regression for the sensitivity figures.

PR 5 refactored fig11/fig12/fig13 from bespoke nested loops onto the
declarative :mod:`repro.scenarios` grid subsystem.  These tests pin the
refactor's contract: the emitted artifact JSON — tables, scalars, notes,
every float bit — is identical to what the pre-refactor loops produced.

The committed fixtures under ``tests/data/prerefactor_*.json`` were
generated *before* the refactor (same commit, loop implementation) on a
reduced ``--fast`` budget: two evaluation benchmarks and a two-value axis
per figure, so the whole file runs in well under a minute while still
exercising the model/stride/L1-scale/feature-mask paths.

To regenerate after an *intentional* behaviour change::

    REPRO_REGEN_FIG_FIXTURES=1 PYTHONPATH=src \
        python -m pytest tests/test_fig_refactor_regression.py -q
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import (
    fig11_stride_sensitivity,
    fig12_l1_size_sensitivity,
    fig13_feature_ablation,
)
from repro.experiments import common
from repro.experiments.common import ExperimentConfig
from repro.runtime.cache import content_key

DATA_DIR = Path(__file__).resolve().parent / "data"

#: Reduced axes: enough to exercise every code path the full figures use
#: (reference + swept value, model reuse across points) at test-budget cost.
REGRESSION_BENCHMARKS = ["syr2k", "syrk"]

CASES = {
    "fig11": (
        fig11_stride_sensitivity.Fig11StrideSensitivity,
        {"strides": [(0, 0), (1, 1)], "benchmarks": REGRESSION_BENCHMARKS},
    ),
    "fig12": (
        fig12_l1_size_sensitivity.Fig12L1SizeSensitivity,
        {"scales": [1, 2], "benchmarks": REGRESSION_BENCHMARKS},
    ),
    "fig13": (
        fig13_feature_ablation.Fig13FeatureAblation,
        {"ablations": [6], "benchmarks": REGRESSION_BENCHMARKS},
    ),
}


def fixture_path(experiment_id: str) -> Path:
    return DATA_DIR / f"prerefactor_{experiment_id}_fast.json"


@pytest.fixture()
def regression_config(tmp_path, tiny_model) -> ExperimentConfig:
    """The fast configuration on a throwaway cache, with the session-trained
    model primed so ``train_or_load_model`` never retrains inside the test."""
    config = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    common._MEMO.setdefault(content_key(common._model_key_payload(config, None)), tiny_model)
    return config


@pytest.mark.parametrize("experiment_id", sorted(CASES))
def test_artifact_identical_to_prerefactor(regression_config, experiment_id):
    cls, overrides = CASES[experiment_id]
    payload = cls().build(regression_config, **overrides).to_dict()
    path = fixture_path(experiment_id)
    if os.environ.get("REPRO_REGEN_FIG_FIXTURES") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert path.exists(), (
        f"fixture {path.name} missing — regenerate with REPRO_REGEN_FIG_FIXTURES=1"
    )
    expected = json.loads(path.read_text())
    # Compare piecewise so a drift names what moved before the full diff.
    assert payload["scalars"] == expected["scalars"]
    assert payload["notes"] == expected["notes"]
    actual_tables = {table["title"]: table for table in payload["tables"]}
    expected_tables = {table["title"]: table for table in expected["tables"]}
    assert sorted(actual_tables) == sorted(expected_tables)
    for title, table in expected_tables.items():
        assert actual_tables[title]["columns"] == table["columns"], title
        assert actual_tables[title]["rows"] == table["rows"], title
    assert payload == expected


@pytest.mark.parametrize("experiment_id", sorted(CASES))
def test_schema_still_validates_defaults(experiment_id):
    """The declared artifact schemas (full default axes) survived the
    refactor: required scalar/table names still match the default grids."""
    cls, _ = CASES[experiment_id]
    schema = cls.schema
    assert schema.required_scalars, experiment_id
    assert schema.required_tables, experiment_id
