"""Tests for the run-telemetry layer: cache counters, phase timers, the
sweep telemetry sidecar and the bench entry's telemetry block."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentConfig
from repro.obs.telemetry import (
    describe_cache,
    describe_phases,
    phase,
    phase_totals,
    phases_delta,
    reset_phases,
    telemetry_delta,
    telemetry_snapshot,
)
from repro.runtime.cache import DiskCache, cache_stats, reset_cache_stats
from repro.runtime.executor import JobReport
from repro.scenarios.grid import ScenarioGrid
from repro.scenarios.runner import POINT_METRICS, SweepRunner


@pytest.fixture(autouse=True)
def fresh_counters():
    reset_cache_stats()
    reset_phases()
    yield
    reset_cache_stats()
    reset_phases()


# ---------------------------------------------------------------------------
# DiskCache counters
# ---------------------------------------------------------------------------


def test_cache_counters_track_miss_store_hit(tmp_path):
    cache = DiskCache(tmp_path)
    payload = {"kind": "test", "key": 1}
    assert cache.load(payload) is None
    assert cache.store(payload, {"value": 42}) is not None
    assert cache.load(payload) == {"value": 42}
    stats = cache_stats()
    assert (stats.hits, stats.misses, stats.corrupt, stats.stores,
            stats.store_failures) == (1, 1, 0, 1, 0)
    assert stats.lookups == 2


def test_cache_counters_track_corrupt_fallback(tmp_path):
    cache = DiskCache(tmp_path)
    payload = {"kind": "test", "key": 2}
    path = cache.path_for(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{truncated")
    assert cache.load(payload) is None  # corrupt entry degrades to a miss
    assert not path.exists()  # and is deleted so a recompute replaces it
    stats = cache_stats()
    assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)


def test_cache_counters_track_store_failures(tmp_path, monkeypatch):
    from repro.runtime.faults import reset_fault_state

    monkeypatch.setenv("REPRO_FAULTS", "cache.store:oserror:1:all")
    reset_fault_state()
    try:
        cache = DiskCache(tmp_path)
        assert cache.store({"kind": "test", "key": 3}, {"value": 1}) is None
        assert cache_stats().store_failures == 1
        assert cache_stats().stores == 0
    finally:
        monkeypatch.delenv("REPRO_FAULTS")
        reset_fault_state()


def test_cache_stats_snapshot_and_delta(tmp_path):
    cache = DiskCache(tmp_path)
    payload = {"kind": "test", "key": 4}
    cache.store(payload, {"value": 1})
    before = cache_stats().snapshot()
    cache.load(payload)
    delta = cache_stats().delta(before)
    assert (delta.hits, delta.stores) == (1, 0)


def test_describe_cache_reads_naturally():
    text = describe_cache(
        {"hits": 1, "misses": 2, "corrupt": 1, "stores": 2, "store_failures": 0})
    assert text == "1 hit, 2 misses (1 corrupt fallback), 2 stores"


# ---------------------------------------------------------------------------
# Phase timers
# ---------------------------------------------------------------------------


def test_phase_accumulates_seconds_and_calls():
    with phase("simulate"):
        pass
    with phase("simulate"):
        pass
    with phase("profile"):
        pass
    totals = phase_totals()
    assert totals["simulate"]["calls"] == 2
    assert totals["profile"]["calls"] == 1
    assert totals["simulate"]["seconds"] >= 0.0


def test_phase_records_even_when_the_body_raises():
    with pytest.raises(RuntimeError):
        with phase("simulate"):
            raise RuntimeError("boom")
    assert phase_totals()["simulate"]["calls"] == 1


def test_phases_delta_omits_idle_phases():
    with phase("profile"):
        pass
    before = phase_totals()
    with phase("simulate"):
        pass
    delta = phases_delta(before)
    assert set(delta) == {"simulate"}
    assert describe_phases(delta).startswith("simulate ")


def test_telemetry_snapshot_combines_cache_and_phases(tmp_path):
    before = telemetry_snapshot()
    DiskCache(tmp_path).store({"kind": "test", "key": 5}, {"value": 1})
    with phase("simulate"):
        pass
    delta = telemetry_delta(before)
    assert delta["cache"]["stores"] == 1
    assert delta["phases"]["simulate"]["calls"] == 1


# ---------------------------------------------------------------------------
# JobReport serialization
# ---------------------------------------------------------------------------


def test_job_report_to_dict_roundtrips():
    report = JobReport(jobs=3, attempts=4, retries=1, timeouts=1,
                       transient_errors=0, salvaged=0, escalated=1,
                       pool_restarts=0, injected=0)
    payload = report.to_dict()
    assert payload["jobs"] == 3 and payload["escalated"] == 1
    json.dumps(payload)
    assert JobReport(**payload) == report


# ---------------------------------------------------------------------------
# Sweep telemetry sidecar + summary lines
# ---------------------------------------------------------------------------


def stub_metrics(point):
    metrics = {name: 1.0 for name in POINT_METRICS}
    metrics["kernels"] = {}
    return metrics


def make_runner(tmp_path):
    grid = ScenarioGrid(
        "telemetry-grid", {"benchmark": ["mvt"], "scheme": ["gto", "swl"]}
    )
    config = replace(ExperimentConfig.fast(), cache_dir=Path(tmp_path))
    return SweepRunner(grid, config, evaluate=stub_metrics)


def test_sweep_run_writes_telemetry_sidecar_outside_points(tmp_path):
    runner = make_runner(tmp_path)
    report = runner.run_report()
    sidecar = runner.root / "run_telemetry.json"
    assert sidecar.exists()
    payload = json.loads(sidecar.read_text())
    assert payload["kind"] == "sweep-run-telemetry"
    assert payload["grid"] == "telemetry-grid"
    assert payload["computed"] == 2
    assert set(payload["telemetry"]) == {"phases", "cache"}
    # The content-stable tree stays content-stable: nothing new in points/.
    assert sorted(p.name for p in (runner.root / "points").glob("*")) == sorted(
        f"{point.point_id}.json" for point in runner.grid.points())
    # And the report surfaces the counters in its summary.
    assert report.telemetry is not None
    assert any(line.startswith("cache: ") for line in report.summary_lines())


def test_resumed_sweep_sidecar_reports_skips(tmp_path):
    runner = make_runner(tmp_path)
    runner.run_report()
    report = runner.run_report(resume=True)
    payload = json.loads((runner.root / "run_telemetry.json").read_text())
    assert payload["computed"] == 0 and payload["skipped"] == 2
    assert report.skipped == 2
