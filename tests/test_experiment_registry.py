"""Registry discovery + unified-CLI smoke tests.

The expensive part — ``python -m repro run-all --fast`` — happens once per
session in a module fixture; the parametrized smoke test then validates the
emitted artifact of **every** registered experiment against its declared
schema.  A new ``fig*/table*/sec*`` module that forgets to subclass
``Experiment`` breaks discovery itself (see
``test_every_experiment_module_registers``), so the suite fails before the
experiment is silently dropped from the catalogue.
"""

from __future__ import annotations

import json
import re
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import repro.experiments.common as common
from repro.cli import runner
from repro.cli.main import main as cli_main
from repro.experiments import registry
from repro.experiments.common import default_cache_dir, preset_config, run_plan
from repro.experiments.registry import ArtifactSchema, Experiment
from repro.runtime.cache import content_key
from repro.runtime.executor import SweepExecutor

EXPERIMENTS_DIR = Path(__file__).resolve().parents[1] / "src" / "repro" / "experiments"


class TestDiscovery:
    def test_every_experiment_module_registers(self):
        """Every fig*/table*/sec* file on disk yields exactly one experiment."""
        on_disk = sorted(
            path.stem
            for path in EXPERIMENTS_DIR.glob("*.py")
            if registry.EXPERIMENT_MODULE_PATTERN.match(path.stem)
        )
        assert on_disk == registry.experiment_module_names()
        modules = {type(experiment).__module__ for experiment in registry.all_experiments()}
        assert modules == {f"repro.experiments.{name}" for name in on_disk}

    def test_ids_unique_and_sorted(self):
        ids = registry.experiment_ids()
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)
        assert len(ids) >= 20

    def test_get_unknown_id_suggests(self):
        with pytest.raises(KeyError, match="fig07"):
            registry.get("nonsense")

    def test_experiments_are_complete(self):
        for experiment in registry.all_experiments():
            assert experiment.experiment_id and experiment.artifact and experiment.title
            assert isinstance(experiment, Experiment)
            assert registry.get(experiment.experiment_id) is experiment
            assert isinstance(experiment.schema, ArtifactSchema)
            config = preset_config("fast")
            assert config.label == "fast"

    def test_module_without_subclass_is_rejected(self, monkeypatch):
        fake = types.ModuleType("repro.experiments.fig99_unregistered")
        monkeypatch.setitem(sys.modules, "repro.experiments.fig99_unregistered", fake)
        with pytest.raises(registry.RegistryError, match="exactly one"):
            registry._harvest("fig99_unregistered")

    def test_subclass_without_id_is_rejected(self, monkeypatch):
        fake = types.ModuleType("repro.experiments.fig98_anonymous")

        class Anonymous(Experiment):
            pass

        Anonymous.__module__ = "repro.experiments.fig98_anonymous"
        fake.Anonymous = Anonymous
        monkeypatch.setitem(sys.modules, "repro.experiments.fig98_anonymous", fake)
        with pytest.raises(registry.RegistryError, match="experiment_id"):
            registry._harvest("fig98_anonymous")


class TestArtifactSchema:
    def test_catches_missing_scalar(self):
        schema = ArtifactSchema(required_scalars=("hmean",))
        with pytest.raises(ValueError, match="hmean"):
            schema.validate({"tables": [{"title": "t", "columns": ["a"], "rows": []}], "scalars": {}})

    def test_catches_missing_table(self):
        schema = ArtifactSchema(min_tables=2)
        with pytest.raises(ValueError, match="at least 2"):
            schema.validate({"tables": [{"title": "t", "columns": ["a"], "rows": []}], "scalars": {}})

    def test_catches_ragged_rows(self):
        schema = ArtifactSchema()
        with pytest.raises(ValueError, match="width"):
            schema.validate(
                {"tables": [{"title": "t", "columns": ["a", "b"], "rows": [[1]]}], "scalars": {}}
            )


@pytest.fixture(scope="module")
def cli_artifacts_dir() -> Path:
    """Run the full suite once through the real CLI path (fast config)."""
    exit_code = cli_main(["run-all", "--fast"])
    assert exit_code == 0
    return runner.artifacts_dir(default_cache_dir(), "fast")


@pytest.mark.parametrize("experiment_id", registry.experiment_ids())
def test_cli_smoke_artifact_validates(cli_artifacts_dir, experiment_id):
    """Every registered experiment runs via the CLI and satisfies its schema."""
    path = cli_artifacts_dir / f"{experiment_id}.json"
    assert path.exists(), f"run-all emitted no artifact for {experiment_id}"
    payload = json.loads(path.read_text())
    registry.get(experiment_id).validate_artifact(payload)
    assert payload["config"]["label"] == "fast"
    assert payload["version"]


@pytest.mark.parametrize("experiment_id", registry.experiment_ids())
def test_plan_names_exactly_what_the_build_reads(cli_artifacts_dir, experiment_id, monkeypatch):
    """An experiment's plan names every result-cache entry its build reads,
    and nothing more: once the plan has run (all disk hits after the run-all
    above), the build finds every read in the memo, so it computes nothing."""
    experiment = registry.get(experiment_id)
    config = replace(preset_config("fast"), cache_dir=default_cache_dir())
    common.clear_caches()
    run_plan(experiment.plan(config), SweepExecutor(jobs=1))
    planned = set(common._MEMO)
    read = set()
    cached = common._cached

    def reading(payload, config, compute):
        key = content_key(payload)
        assert key in common._MEMO, (
            f"{experiment_id}'s build reads a {payload['kind']} entry its plan misses"
        )
        read.add(key)
        return cached(payload, config, compute)

    monkeypatch.setattr(common, "_cached", reading)
    experiment.run(config)
    assert read == planned


def test_report_covers_all_artifacts(cli_artifacts_dir, capsys):
    assert cli_main(["report", "--fast"]) == 0
    out = capsys.readouterr().out
    for experiment_id in registry.experiment_ids():
        assert experiment_id in out
    assert "missing experiments" not in out
    # The artifacts time their builds only; the plan is timed by `repro run`.
    total = (
        rf"^{len(registry.experiment_ids())} artifacts, \d+\.\ds total build time "
        r"\(the plan's time is on `repro run`'s phases: line\)$"
    )
    assert re.search(total, out, re.MULTILINE), out


def test_print_tables_prints_each_result_verbatim(tmp_path, capsys):
    """``repro run --print-tables`` prints each experiment's result text as
    its ``run`` renders it.  Neither experiment here simulates."""
    ids = ["table04", "sec7i"]
    assert cli_main(["run", *ids, "--fast", "--print-tables", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    config = replace(preset_config("fast"), cache_dir=tmp_path)
    for experiment_id in ids:
        assert registry.get(experiment_id).run(config).to_text() in out
    assert "cache: 0 hits, 0 misses, 0 stores" in out


def test_list_names_every_experiment(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment in registry.all_experiments():
        assert experiment.experiment_id in out
        assert experiment.artifact in out
