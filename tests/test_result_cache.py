"""Trained models and one-kernel measurements in the result cache.

Static profiles, scheme runs, graph runs, one-kernel measurements and
trained models all go through ``repro.experiments.common._cached``: the
memo is keyed by ``content_key`` of the payload that names the disk entry.
These tests pin that trained models follow the same rules as every other
kind: keyed by what training reads, named by that payload alone, and
recomputed when the entry on disk is corrupt; and that the experiments
measuring kernels outside the scheme runs re-run warm without simulating.
(``tests/test_graph_workloads.py`` guards which ``ExperimentConfig``
fields each payload reads.)
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import replace

import pytest

from repro.cli.main import main as repro_main
from repro.core.model_store import load_model, model_to_dict, save_model
from repro.core.training import TrainedModel
from repro.experiments import common
from repro.experiments.common import ExperimentConfig, clear_caches, train_or_load_model
from repro.gpu.gpu import GPU
from repro.runtime.cache import cache_stats, reset_cache_stats
from repro.workloads.generator import WarpProgram


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


@pytest.mark.parametrize("copy", [False, True], ids=["cache-only", "output-copy"])
def test_pretrain_stores_the_preset_model_and_leaves_full_alone(
    tmp_path, monkeypatch, trainings, capsys, copy
):
    """``repro pretrain --fast`` (README's quick-start form, and with
    ``--output``) stores its model as the fast preset's cache entry: a later
    fast resolution reads it without training, and the full preset still
    trains its own."""
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    output = tmp_path / "copy.json"
    argv = ["pretrain", "--fast"] + (["--output", str(output)] if copy else [])
    assert repro_main(argv) == 0
    assert "model stored in the result cache" in capsys.readouterr().out
    assert output.exists() == copy
    (entry,) = cache_dir.glob("model-*.json")
    clear_caches()
    pretrained = train_or_load_model(ExperimentConfig.fast())
    assert trainings == []
    assert json.loads(entry.read_text())["result"] == model_to_dict(pretrained)
    if copy:
        assert model_to_dict(load_model(output)) == model_to_dict(pretrained)
    assert train_or_load_model(ExperimentConfig.full()).alpha_weights == [1.0]
    assert len(trainings) == 1


def test_a_warm_run_of_the_measuring_experiments_simulates_nothing(
    tmp_path, monkeypatch, capsys
):
    """fig04, fig16, table03a and sec7b measure kernels outside the scheme
    runs (hit-rate breakdowns, Pbest, feature vectors).  Re-run with an
    empty memo, as in a new process, they read all of it from disk: no
    miss, no ``phases:`` line, no program fill and no SM built."""
    argv = ["run", "fig04", "fig16", "table03a", "sec7b", "--fast", "--cache-dir", str(tmp_path)]
    clear_caches()
    assert repro_main(argv) == 0
    assert "\nphases: " in capsys.readouterr().out

    def simulate(*args, **kwargs):
        raise AssertionError("the warm run simulated")

    monkeypatch.setattr(GPU, "build_sm", simulate)
    monkeypatch.setattr(WarpProgram, "fill", simulate)
    clear_caches()
    try:
        assert repro_main(argv) == 0
    finally:
        clear_caches()
    lines = capsys.readouterr().out.splitlines()
    assert any(re.match(r"cache: \d+ hits, 0 misses", line) for line in lines)
    assert not any(line.startswith("phases:") for line in lines)
