"""Trained models in the result cache.

Static profiles, scheme runs, graph runs and trained models all go through
``repro.experiments.common._cached``: the memo is keyed by ``content_key``
of the payload that names the disk entry.  These tests pin that trained
models follow the same rules as every other kind: keyed by what training
reads, named by that payload alone, and recomputed when the entry on disk
is corrupt.  (``tests/test_graph_workloads.py`` guards which
``ExperimentConfig`` fields each payload reads.)
"""

from __future__ import annotations

import shutil
from dataclasses import replace

import pytest

from repro.core.model_store import save_model
from repro.core.training import TrainedModel
from repro.experiments import common
from repro.experiments.common import ExperimentConfig, clear_caches, train_or_load_model
from repro.runtime.cache import cache_stats, reset_cache_stats


def _model(weight: float) -> TrainedModel:
    return TrainedModel(alpha_weights=[weight], beta_weights=[weight], max_warps=24)


@pytest.fixture
def trainings(monkeypatch):
    """Training replaced by a stand-in whose n-th call returns weights of n."""
    calls = []

    def fake_train(config, feature_mask=None):
        calls.append(config)
        return _model(float(len(calls)))

    monkeypatch.setattr(common, "train_model", fake_train)
    clear_caches()
    yield calls
    clear_caches()


def test_model_path_is_honoured_after_the_config_model_is_cached(tmp_path, trainings):
    config = replace(ExperimentConfig.fast(), cache_dir=tmp_path / "cache")
    assert train_or_load_model(config).alpha_weights == [1.0]
    named = save_model(_model(99.0), tmp_path / "named.json")
    assert train_or_load_model(replace(config, model_path=named)).alpha_weights == [99.0]
    assert len(trainings) == 1


@pytest.mark.parametrize(
    "knob,value",
    [
        ("training_kernels_per_benchmark", 2),
        ("training_min_speedup", 1.2),
        ("training_min_hit_rate", 0.5),
    ],
)
def test_each_training_knob_gives_its_own_model(tmp_path, trainings, knob, value):
    config = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    variant = replace(config, **{knob: value})
    assert train_or_load_model(config).alpha_weights == [1.0]
    assert train_or_load_model(variant).alpha_weights == [2.0]
    clear_caches()  # the memo only: both models come back from disk
    assert train_or_load_model(variant).alpha_weights == [2.0]
    assert train_or_load_model(config).alpha_weights == [1.0]
    assert len(trainings) == 2


def test_a_truncated_cached_model_is_retrained_and_counted_corrupt(tmp_path, trainings):
    config = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    train_or_load_model(config)
    (entry,) = tmp_path.glob("model-*.json")
    entry.write_text(entry.read_text()[:20])
    clear_caches()
    reset_cache_stats()
    assert train_or_load_model(config).alpha_weights == [2.0]
    assert cache_stats().corrupt == 1
    assert len(trainings) == 2
    clear_caches()
    assert train_or_load_model(config).alpha_weights == [2.0]  # the rewritten entry
    assert len(trainings) == 2


def test_a_model_entry_is_named_by_its_payload_alone(tmp_path, trainings):
    """A fresh cache dir seeded with only the ``model-*.json`` files of
    another one serves the same model without retraining."""
    first = replace(ExperimentConfig.fast(), cache_dir=tmp_path / "first")
    second = replace(first, cache_dir=tmp_path / "second")
    train_or_load_model(first)
    (entry,) = first.cache_dir.glob("model-*.json")
    second.cache_dir.mkdir()
    shutil.copy(entry, second.cache_dir / entry.name)
    clear_caches()
    assert train_or_load_model(second).alpha_weights == [1.0]
    assert len(trainings) == 1


def test_clear_caches_with_a_config_drops_its_models(tmp_path, trainings):
    config = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    train_or_load_model(config)
    clear_caches(config)
    assert not list(tmp_path.glob("model-*.json"))
    assert train_or_load_model(config).alpha_weights == [2.0]
