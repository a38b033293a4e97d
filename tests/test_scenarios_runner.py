"""Tests for the sweep runner, per-point artifacts, resume and aggregation.

The cheap Hypothesis properties inject a deterministic stub evaluator so
hundreds of shard/union/resume cases run without simulating; the
acceptance tests at the bottom run the real simulator on the tiny ``smoke``
grid and pin the headline guarantees: shard unions are byte-identical to a
full run, ``--resume`` recomputes exactly the deleted point, and every
engine produces identical point metrics.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import ExperimentConfig
from repro.scenarios.grid import ScenarioError, ScenarioGrid, ScenarioPoint
from repro.scenarios.library import get_grid, named_grids
from repro.scenarios.report import (
    SweepSchema,
    aggregate,
    sweep_artifact_path,
    sweep_tables,
    write_sweep_artifact,
)
from repro.scenarios.runner import (
    POINT_METRICS,
    CorruptPointArtifact,
    SweepRunner,
    evaluate_point,
)

_dir_counter = itertools.count()


def stub_metrics(point):
    """Deterministic, point-dependent metrics (no simulation)."""
    weight = (hash(point.point_id) % 1000) / 1000.0
    metrics = {name: 1.0 + weight for name in POINT_METRICS}
    metrics["speedup"] = 1.0 + weight
    metrics["kernels"] = {}
    return metrics


def make_runner(grid, cache_dir, evaluate=stub_metrics):
    config = replace(ExperimentConfig.fast(), cache_dir=Path(cache_dir))
    return SweepRunner(grid, config, evaluate=evaluate)


def artifact_bytes(runner):
    directory = runner.root / "points"
    return {
        path.name: path.read_bytes() for path in sorted(directory.glob("*.json"))
    }


SMALL_AXES = st.fixed_dictionaries(
    {"benchmark": st.lists(st.sampled_from(("mvt", "bfs", "syr2k")), min_size=1,
                           max_size=2, unique=True)},
    optional={
        "scheme": st.lists(st.sampled_from(("gto", "ccws", "apcm")), min_size=1,
                           max_size=2, unique=True),
        "l1_scale": st.lists(st.sampled_from((1, 2)), min_size=1, max_size=2, unique=True),
    },
)


@settings(max_examples=25, deadline=None)
@given(axes=SMALL_AXES, num_shards=st.integers(min_value=1, max_value=4))
def test_shard_union_byte_identical_to_full_run(tmp_path_factory, axes, num_shards):
    base = tmp_path_factory.mktemp("sweep") / str(next(_dir_counter))
    grid = ScenarioGrid("prop-sweep", axes)
    sharded = make_runner(grid, base / "sharded")
    for shard_index in range(1, num_shards + 1):
        sharded.run(shard=(shard_index, num_shards))
    full = make_runner(grid, base / "full")
    full.run()
    assert artifact_bytes(sharded) == artifact_bytes(full)
    # And aggregation over either directory yields identical sweep payloads.
    config = replace(ExperimentConfig.fast(), cache_dir=base / "sharded")
    from_shards = aggregate(grid, config)
    config = replace(ExperimentConfig.fast(), cache_dir=base / "full")
    from_full = aggregate(grid, config)
    assert from_shards == from_full


def test_resume_recomputes_only_missing_points(tmp_path):
    grid = ScenarioGrid("resume", {"benchmark": ["mvt", "bfs"], "scheme": ["gto", "ccws"]})
    computed = []

    def counting(point):
        computed.append(point.point_id)
        return stub_metrics(point)

    runner = make_runner(grid, tmp_path, evaluate=counting)
    statuses = runner.run()
    assert [status.status for status in statuses] == ["computed"] * 4
    assert len(computed) == 4

    victim = statuses[2]
    victim.path.unlink()
    computed.clear()
    statuses = runner.run(resume=True)
    assert computed == [victim.point.point_id]
    assert {status.status for status in statuses} == {"computed", "skipped"}
    assert sum(status.status == "computed" for status in statuses) == 1
    # Without --resume everything recomputes.
    computed.clear()
    runner.run()
    assert len(computed) == 4


def test_resume_skips_are_byte_stable(tmp_path):
    grid = ScenarioGrid("stable", {"benchmark": ["mvt"], "scheme": ["gto", "ccws"]})
    runner = make_runner(grid, tmp_path)
    runner.run()
    before = artifact_bytes(runner)
    runner.run(resume=True)
    assert artifact_bytes(runner) == before


@pytest.mark.parametrize(
    "corruption, fragment",
    [
        (lambda path: path.write_text("{truncated"), "not valid JSON"),
        (lambda path: path.write_text(json.dumps({"format_version": 99})), "unsupported format"),
        (
            lambda path: path.write_text(
                json.dumps(dict(json.loads(path.read_text()), point={"scheme": "other"}))
            ),
            "different scenario",
        ),
        (
            lambda path: path.write_text(
                json.dumps({k: v for k, v in json.loads(path.read_text()).items()
                            if k != "metrics"})
            ),
            "no metrics object",
        ),
        (
            lambda path: path.write_text(
                json.dumps(dict(json.loads(path.read_text()), metrics={}))
            ),
            "missing metrics",
        ),
    ],
)
def test_corrupt_point_artifact_is_quarantined_and_recomputed_on_resume(
    tmp_path, corruption, fragment
):
    grid = ScenarioGrid("corrupt", {"benchmark": ["mvt"], "scheme": ["gto", "ccws"]})
    runner = make_runner(grid, tmp_path)
    statuses = runner.run()
    pristine = artifact_bytes(runner)
    corruption(statuses[0].path)
    corrupt_bytes = statuses[0].path.read_bytes()

    # Aggregation still refuses corrupt inputs — only a resumed *run* heals.
    config = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    with pytest.raises(CorruptPointArtifact, match=fragment):
        aggregate(grid, config)

    report = runner.run_report(resume=True)
    # Exactly the corrupt point was quarantined and recomputed.
    assert [record.point.point_id for record in report.quarantined] == [
        statuses[0].point.point_id
    ]
    assert report.computed == 1 and report.skipped == 1
    # The corrupt file was moved aside, not deleted: the quarantined copy is
    # byte-for-byte what the corruption produced.
    record = report.quarantined[0]
    assert record.destination.parent == runner.quarantine_root
    assert record.destination.read_bytes() == corrupt_bytes
    # The recomputed artifact restores the pristine bytes, so aggregation works.
    assert artifact_bytes(runner) == pristine
    aggregate(grid, config)


# ---------------------------------------------------------------------------
# aggregation / schema
# ---------------------------------------------------------------------------

def test_aggregate_requires_every_point(tmp_path):
    grid = ScenarioGrid("partial", {"benchmark": ["mvt", "bfs"], "scheme": ["gto", "ccws"]})
    runner = make_runner(grid, tmp_path)
    runner.run(shard=(1, 2))
    config = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    with pytest.raises(ScenarioError, match="missing 2 of 4 point artifacts"):
        aggregate(grid, config)


def test_aggregate_payload_structure(tmp_path):
    grid = ScenarioGrid(
        "agg", {"benchmark": ["mvt", "bfs"], "scheme": ["gto", "ccws"], "l1_scale": [1, 2]}
    )
    runner = make_runner(grid, tmp_path)
    runner.run()
    config = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    payload = aggregate(grid, config)
    SweepSchema().validate(payload)
    assert payload["num_points"] == grid.size == len(payload["points"])
    # Every swept axis gets a sensitivity table covering its values.
    assert set(payload["sensitivity"]) == {"benchmark", "scheme", "l1_scale"}
    for axis, rows in payload["sensitivity"].items():
        assert [row["value"] for row in rows] == list(payload["axes"][axis])
        assert all(row["points"] == grid.size // len(rows) for row in rows)
    # best_scheme: one winner per non-scheme combination, argmax by speedup.
    assert len(payload["best_scheme"]) == 4  # 2 benchmarks × 2 scales
    by_point = {
        (entry["point"]["benchmark"], entry["point"]["l1_scale"]): entry
        for entry in payload["best_scheme"]
    }
    for entry_point, winner in by_point.items():
        competitors = [
            point_entry["metrics"]["speedup"]
            for point_entry in payload["points"]
            if (point_entry["point"]["benchmark"], point_entry["point"]["l1_scale"]) == entry_point
        ]
        assert winner["speedup"] == max(competitors)
    tables = sweep_tables(payload)
    assert len(tables) == 4  # three sensitivity tables + best-scheme
    path = write_sweep_artifact(payload, tmp_path)
    assert path == sweep_artifact_path(tmp_path, "agg", "fast")
    assert json.loads(path.read_text()) == payload


def test_best_scheme_tie_breaks_toward_first_scheme(tmp_path):
    grid = ScenarioGrid("tie", {"benchmark": ["mvt"], "scheme": ["ccws", "gto"]})

    def tied(point):
        metrics = stub_metrics(point)
        metrics["speedup"] = 1.0
        return metrics

    runner = make_runner(grid, tmp_path, evaluate=tied)
    runner.run()
    config = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    payload = aggregate(grid, config)
    assert payload["best_scheme"][0]["scheme"] == "ccws"


def test_schema_rejects_malformed_payloads(tmp_path):
    grid = ScenarioGrid("schema", {"benchmark": ["mvt"], "scheme": ["gto", "ccws"]})
    runner = make_runner(grid, tmp_path)
    runner.run()
    config = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    payload = aggregate(grid, config)
    schema = SweepSchema()
    schema.validate(payload)

    def broken(**changes):
        mutated = json.loads(json.dumps(payload))
        mutated.update(changes)
        return mutated

    with pytest.raises(ValueError, match="missing the 'axes'"):
        schema.validate({k: v for k, v in payload.items() if k != "axes"})
    with pytest.raises(ValueError, match="unexpected artifact kind"):
        schema.validate(broken(kind="other"))
    with pytest.raises(ValueError, match="num_points"):
        schema.validate(broken(num_points=99))
    with pytest.raises(ValueError, match="unknown axes"):
        schema.validate(broken(axes={"bogus": [1]}))
    with pytest.raises(ValueError, match="no points"):
        schema.validate(broken(points=[]))
    with pytest.raises(ValueError, match="missing metrics"):
        schema.validate(
            broken(points=[{**payload["points"][0], "metrics": {}}] + payload["points"][1:])
        )
    with pytest.raises(ValueError, match="duplicate point id"):
        schema.validate(
            broken(points=[payload["points"][0]] * 2, num_points=2)
        )
    with pytest.raises(ValueError, match="no sensitivity table"):
        schema.validate(broken(sensitivity={}))
    with pytest.raises(ValueError, match="does not cover the axis"):
        schema.validate(
            broken(sensitivity={**payload["sensitivity"], "scheme": []})
        )
    with pytest.raises(ValueError, match="unknown scheme"):
        schema.validate(broken(best_scheme=[{"point": {}, "scheme": "bogus", "speedup": 1.0}]))


# ---------------------------------------------------------------------------
# named grids
# ---------------------------------------------------------------------------

def test_named_grids_are_valid_and_unique():
    grids = named_grids()
    assert {"fig11-strides", "fig12-l1-size", "fig13-ablation", "smoke"} <= set(grids)
    for name, grid in grids.items():
        assert grid.name == name
        assert grid.size == len(grid.points())
    assert grids["smoke"].size == 8  # the CI shard-check grid stays tiny


def test_get_grid_unknown_name():
    with pytest.raises(ScenarioError, match="unknown sweep grid"):
        get_grid("bogus")


# ---------------------------------------------------------------------------
# real-simulation acceptance (tiny budgets)
# ---------------------------------------------------------------------------

def tiny_config(cache_dir) -> ExperimentConfig:
    return replace(
        ExperimentConfig.fast(), run_max_cycles=20_000, cache_dir=Path(cache_dir)
    )


def test_real_shard_union_matches_full_run(tmp_path):
    grid = get_grid("smoke")
    sharded = SweepRunner(grid, tiny_config(tmp_path / "A"), cache_dir=tmp_path / "A")
    sharded.run(shard=(1, 2))
    sharded.run(shard=(2, 2))
    full = SweepRunner(grid, tiny_config(tmp_path / "B"), cache_dir=tmp_path / "B")
    full.run()
    union = artifact_bytes(sharded)
    assert union == artifact_bytes(full)
    assert len(union) == grid.size
    # --resume after deleting one artifact recomputes exactly that point.
    victim = sharded.point_path(grid.points()[1])
    victim.unlink()
    statuses = sharded.run(resume=True)
    recomputed = [status.point.point_id for status in statuses if status.status == "computed"]
    assert recomputed == [grid.points()[1].point_id]
    assert artifact_bytes(sharded) == union


def test_real_parallel_jobs_match_serial_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    grid = get_grid("smoke")
    serial = SweepRunner(grid, tiny_config(tmp_path / "serial"), cache_dir=tmp_path / "serial")
    serial.run()
    parallel = SweepRunner(
        grid, tiny_config(tmp_path / "parallel"), cache_dir=tmp_path / "parallel"
    )
    parallel.run(jobs=2)
    assert artifact_bytes(parallel) == artifact_bytes(serial)


def test_real_pooled_stop_checkpoints_and_resume_is_byte_identical(
    tmp_path, monkeypatch, no_children_left
):
    """A stop request under ``jobs=2`` starts no further point: the run
    reports ``interrupted``, every artifact it wrote is whole and equal to
    a clean run's, and a ``resume`` run finishes the grid byte-identically."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    grid = ScenarioGrid("stop", {"benchmark": ["mvt", "bfs"], "scheme": ["gto", "ccws"]})
    clean = SweepRunner(grid, tiny_config(tmp_path / "clean"), cache_dir=tmp_path / "clean")
    clean.run()
    reference = artifact_bytes(clean)
    assert len(reference) == grid.size == 4

    runner = SweepRunner(grid, tiny_config(tmp_path / "stopped"), cache_dir=tmp_path / "stopped")
    landed = []
    report = runner.run_report(jobs=2, progress=landed.append, stop=lambda: bool(landed))
    assert report.interrupted
    assert report.computed == len(landed) == 1
    partial = artifact_bytes(runner)
    assert list(partial) == [f"{landed[0].point.point_id}.json"]
    assert all(payload == reference[name] for name, payload in partial.items())
    assert not list(runner.root.rglob("*.tmp"))
    assert no_children_left()
    telemetry = json.loads((runner.root / "run_telemetry.json").read_text())
    assert telemetry["interrupted"] is True and telemetry["computed"] == 1

    resumed = runner.run_report(jobs=2, resume=True)
    assert not resumed.interrupted
    assert (resumed.skipped, resumed.computed) == (1, grid.size - 1)
    assert artifact_bytes(runner) == reference


@pytest.mark.parametrize("scheme", ["ccws", "swl"])
def test_point_metrics_are_engine_invariant(scheme, tmp_path, monkeypatch):
    """One scenario point evaluated on each registered engine — its runs
    and, under a profile-based scheme, its profiling sweep simulated afresh
    on that engine — yields identical metrics.  Enumerating ``ENGINES``
    covers a new engine the moment it is registered."""
    from engine_conformance import fresh_runs_on
    from repro.gpu.engine import ENGINES

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    point = ScenarioPoint(scheme=scheme, benchmark="mvt")
    metrics = {}
    for engine in ENGINES:
        config = replace(
            tiny_config(tmp_path / engine),
            profile_cycles=2_000,
            profile_warmup=2_000,
            profile_n_step=12,
            profile_p_step=12,
            run_max_cycles=10_000,
        )
        # The GTO baseline and the scheme's own run.
        with fresh_runs_on(engine, monkeypatch, runs=2):
            metrics[engine] = evaluate_point(point, config)
    for engine, engine_metrics in metrics.items():
        assert engine_metrics == metrics[ENGINES[0]], f"engine {engine} diverged"
