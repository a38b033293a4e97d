"""Tests for the deterministic fault-injection harness and the recovery
machinery it exists to prove.

The load-bearing guarantee mirrors the fast-engine story: a sweep executed
under injected faults (worker crashes, stalls past the per-job timeout,
torn artifact writes, flaky cache I/O) must produce artifacts *byte
identical* to a fault-free run — the chaos differential at the bottom pins
exactly that on the real simulator.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentConfig
from repro.runtime import faults
from repro.runtime.cache import DiskCache, atomic_write_json, sweep_stale_tmps
from repro.runtime.executor import SweepExecutor
from repro.runtime.faults import (
    FaultInjectedError,
    FaultSpec,
    FaultSpecError,
    active_spec,
    maybe_raise,
    reset_fault_state,
)
from repro.scenarios.library import get_grid
from repro.scenarios.report import aggregate, write_sweep_artifact
from repro.scenarios.runner import SweepRunner


@pytest.fixture(autouse=True)
def clean_fault_state(monkeypatch):
    """Every test starts (and ends) with no spec and no fired budgets."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_fault_state()
    yield
    reset_fault_state()


# ---------------------------------------------------------------------------
# spec parsing and deterministic targeting
# ---------------------------------------------------------------------------

class TestFaultSpec:
    def test_parse_full_grammar(self):
        spec = FaultSpec.parse(
            "seed=7, stall=2.5, crash_delay=0.1, executor:crash:2, "
            "executor:stall, runner.write:truncate:1:all, cache.store:oserror:3"
        )
        assert spec.seed == 7
        assert spec.stall_seconds == 2.5
        assert spec.crash_delay_seconds == 0.1
        assert spec.count("executor", "crash") == 2
        assert spec.count("executor", "stall") == 1  # COUNT defaults to 1
        assert spec.count("cache.store", "oserror") == 3
        assert spec.every_attempt("runner.write", "truncate")
        assert not spec.every_attempt("executor", "crash")

    def test_repeated_tokens_accumulate(self):
        spec = FaultSpec.parse("executor:oserror:1,executor:oserror:2:all")
        assert spec.count("executor", "oserror") == 3
        assert spec.every_attempt("executor", "oserror")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("bogus=1,executor:crash", "unknown REPRO_FAULTS parameter"),
            ("seed=x,executor:crash", "not numeric"),
            ("nowhere:crash", "unknown fault site"),
            ("serve.worker:crash", "unknown fault site"),
            ("serve.journal:torn", "unknown fault site"),
            ("executor:melt", "no mode 'melt'"),
            ("executor", "expected SITE:MODE"),
            ("executor:crash:zero", "neither a count nor 'all'"),
            ("executor:crash:0", "count must be >= 1"),
            ("seed=3", "names no faults"),
            ("", "names no faults"),
        ],
    )
    def test_malformed_specs_raise(self, text, fragment):
        with pytest.raises(FaultSpecError, match=fragment):
            FaultSpec.parse(text)

    def test_targets_are_deterministic(self):
        spec = FaultSpec.parse("seed=11,executor:crash:5")
        first = spec.targets("executor", "crash", 100)
        assert len(first) == 5
        # Pure function of (seed, site, mode, population): stable across
        # calls and across freshly parsed copies of the same spec.
        assert spec.targets("executor", "crash", 100) == first
        assert FaultSpec.parse("seed=11,executor:crash:5").targets(
            "executor", "crash", 100
        ) == first
        assert FaultSpec.parse("seed=12,executor:crash:5").targets(
            "executor", "crash", 100
        ) != first

    def test_targets_clamp_to_population(self):
        spec = FaultSpec.parse("executor:oserror:10")
        assert spec.targets("executor", "oserror", 3) == frozenset({0, 1, 2})
        assert spec.targets("executor", "oserror", 0) == frozenset()

    def test_site_plan_resolves_overlap_by_mode_priority(self):
        spec = FaultSpec.parse("runner.write:truncate:2,runner.write:corrupt:2")
        plan = spec.site_plan("runner.write", 2)
        # Both modes target both points; 'truncate' is declared first in
        # SITES and wins every overlap.
        assert plan == {0: "truncate", 1: "truncate"}

    def test_executor_action_fires_on_first_attempt_only(self):
        spec = FaultSpec.parse("seed=0,executor:crash:1")
        (target,) = spec.targets("executor", "crash", 6)
        assert spec.executor_action(target, 0, 6) == "crash"
        assert spec.executor_action(target, 1, 6) is None
        others = set(range(6)) - {target}
        assert all(spec.executor_action(i, 0, 6) is None for i in others)

    def test_executor_action_all_fires_every_attempt(self):
        spec = FaultSpec.parse("seed=0,executor:oserror:1:all")
        (target,) = spec.targets("executor", "oserror", 4)
        assert spec.executor_action(target, 0, 4) == "oserror"
        assert spec.executor_action(target, 3, 4) == "oserror"

    def test_describe_is_compact_and_sorted(self):
        spec = FaultSpec.parse("seed=3,cache.store:oserror:2,executor:crash:1:all")
        assert spec.describe() == "seed=3 cache.store:oserror×2 executor:crash×1:all"


class TestActivation:
    def test_unset_means_disabled(self):
        assert active_spec() is None
        maybe_raise("cache.store")  # no-op, must not raise

    def test_blank_means_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "   ")
        assert active_spec() is None

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "executor:melt")
        with pytest.raises(FaultSpecError):
            active_spec()

    def test_counter_based_sites_fire_first_n_then_pass(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache.store:oserror:2")
        with pytest.raises(FaultInjectedError):
            maybe_raise("cache.store")
        with pytest.raises(FaultInjectedError):
            maybe_raise("cache.store")
        maybe_raise("cache.store")  # budget exhausted
        maybe_raise("cache.load")  # other site untouched

    def test_reset_restores_budgets(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache.load:oserror:1")
        with pytest.raises(FaultInjectedError):
            maybe_raise("cache.load")
        maybe_raise("cache.load")
        reset_fault_state()
        with pytest.raises(FaultInjectedError):
            maybe_raise("cache.load")


# ---------------------------------------------------------------------------
# executor recovery: salvage, timeouts, escalation
# ---------------------------------------------------------------------------

def _marked_square(marker_dir: str, x: int) -> int:
    """Sleeps briefly, then records one marker file per *completed* call."""
    time.sleep(0.01)
    Path(marker_dir, f"{os.getpid()}-{uuid.uuid4().hex}.marker").touch()
    return x * x


class TestExecutorUnderFaults:
    def test_crash_salvages_completed_jobs(self, tmp_path, monkeypatch):
        # seed=0 crashes job 0 of 6 (computed above); crash_delay gives the
        # sibling worker time to finish jobs 1-5, so they are salvaged from
        # the broken pool and only the crashed job reruns.
        monkeypatch.setenv("REPRO_FAULTS", "seed=0,executor:crash:1,crash_delay=1.0")
        executor = SweepExecutor(jobs=2)
        args = [(str(tmp_path), i) for i in range(6)]
        results, report = executor.map_with_report(_marked_square, args)
        assert results == [i * i for i in range(6)]
        # Every job ran to completion exactly once — salvage kept the five
        # finished results instead of recomputing them after the pool broke.
        assert len(list(tmp_path.glob("*.marker"))) == 6
        assert report.jobs == 6
        assert report.salvaged == 5
        assert report.retries == 1
        assert report.pool_restarts == 1
        assert report.injected == 1
        assert not report.clean

    def test_stall_past_timeout_is_abandoned_and_retried(self, tmp_path, monkeypatch):
        # seed=0 stalls job 5 of 6 for 30s; the 0.75s per-job timeout fires,
        # the wedged pool is torn down and the job reruns cleanly.
        monkeypatch.setenv("REPRO_FAULTS", "seed=0,executor:stall:1,stall=30")
        executor = SweepExecutor(jobs=2, timeout=0.75, retries=2)
        start = time.monotonic()
        results, report = executor.map_with_report(
            _marked_square, [(str(tmp_path), i) for i in range(6)]
        )
        elapsed = time.monotonic() - start
        assert results == [i * i for i in range(6)]
        assert report.timeouts >= 1
        assert report.pool_restarts >= 1
        assert not report.clean
        # The stalled worker was killed, not joined: nowhere near 30s.
        assert elapsed < 15

    def test_repeated_faults_escalate_to_serial(self, monkeypatch):
        # ':all' re-injects on every pool attempt, so the target job can only
        # succeed on the in-parent escalation path.
        monkeypatch.setenv("REPRO_FAULTS", "seed=0,executor:oserror:1:all")
        executor = SweepExecutor(jobs=2, retries=1)
        results, report = executor.map_with_report(
            _square_job, [(i,) for i in range(4)]
        )
        assert results == [i * i for i in range(4)]
        assert report.escalated == 1
        assert report.transient_errors == 2  # retries + 1 pool attempts
        assert report.injected == 1

    def test_escalated_job_runs_under_a_serial_budget(self, monkeypatch):
        """An escalated job runs in the parent, under the jobs budget a pool
        worker gets: a nested fan-out of its own would run on a pool with
        none of this executor's timeout."""
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_FAULTS", "seed=0,executor:oserror:1:all")
        executor = SweepExecutor(retries=0)
        results, report = executor.map_with_report(_jobs_budget, [(), ()])
        assert report.escalated == 1
        assert results == ["1", "1"]
        assert os.environ["REPRO_JOBS"] == "2"

    def test_serial_path_never_injects(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "seed=0,executor:crash:4,executor:stall:4,stall=30"
        )
        executor = SweepExecutor(jobs=1)
        start = time.monotonic()
        assert executor.map(_square_job, [(i,) for i in range(4)]) == [0, 1, 4, 9]
        assert time.monotonic() - start < 5
        assert executor.last_report.clean


def _square_job(x: int) -> int:
    return x * x


def _jobs_budget() -> str:
    return os.environ["REPRO_JOBS"]


# ---------------------------------------------------------------------------
# cache faults, concurrent writers and stale-tmp hygiene
# ---------------------------------------------------------------------------

class TestCacheResilience:
    def test_injected_store_fault_degrades_to_miss(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        monkeypatch.setenv("REPRO_FAULTS", "cache.store:oserror:1")
        payload = {"kernel": "k", "seed": 1}
        assert cache.store(payload, {"value": 1}) is None  # injected, swallowed
        assert cache.load(payload) is None
        assert cache.store(payload, {"value": 1}) is not None  # budget spent
        assert cache.load(payload) == {"value": 1}

    def test_injected_load_fault_degrades_to_recompute(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        payload = {"kernel": "k", "seed": 2}
        cache.store(payload, {"value": 2})
        monkeypatch.setenv("REPRO_FAULTS", "cache.load:oserror:1")
        assert cache.load(payload) is None  # injected: a miss, never a crash
        cache.store(payload, {"value": 2})
        assert cache.load(payload) == {"value": 2}

    def test_concurrent_writers_on_same_key_both_succeed(self, tmp_path):
        cache = DiskCache(tmp_path)
        payload = {"kernel": "race", "seed": 3}
        result = {"value": list(range(50))}

        with ThreadPoolExecutor(max_workers=8) as pool:
            paths = list(pool.map(lambda _: cache.store(payload, result), range(32)))
        assert all(path is not None for path in paths)
        # The surviving entry is valid JSON (no torn interleaving) and no
        # racing writer leaked its temp file.
        assert cache.load(payload) == result
        json.loads(cache.path_for(payload).read_text())
        assert list(cache.root.glob(".*.tmp")) == []

    def test_atomic_write_cleans_its_tmp_on_failure(self, tmp_path):
        target = tmp_path / "victim.json"
        target.mkdir()  # os.replace onto a directory fails
        with pytest.raises(OSError):
            atomic_write_json(target, {"x": 1})
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_stale_tmps_swept_on_cache_init(self, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir(parents=True)
        stale = runs / ".dead.json.123.0.tmp"
        stale.write_text("{torn")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = runs / ".live.json.456.0.tmp"
        fresh.write_text("{in-flight")
        DiskCache(tmp_path)
        assert not stale.exists()  # orphan reclaimed
        assert fresh.exists()  # concurrent writer left alone

    def test_sweep_stale_tmps_is_age_guarded(self, tmp_path):
        fresh = tmp_path / ".entry.json.1.0.tmp"
        fresh.write_text("{}")
        assert sweep_stale_tmps(tmp_path) == 0
        assert fresh.exists()
        old = time.time() - 7200
        os.utime(fresh, (old, old))
        assert sweep_stale_tmps(tmp_path) == 1
        assert not fresh.exists()


def _stub_metrics(point):
    from repro.scenarios.runner import POINT_METRICS

    metrics = {name: 1.5 for name in POINT_METRICS}
    metrics["kernels"] = {}
    return metrics


def test_sweep_runner_sweeps_stale_tmps(tmp_path):
    from repro.scenarios.grid import ScenarioGrid

    grid = ScenarioGrid("tmps", {"benchmark": ["mvt"], "scheme": ["gto"]})
    config = replace(ExperimentConfig.fast(), cache_dir=Path(tmp_path))
    runner = SweepRunner(grid, config, evaluate=_stub_metrics)
    points = runner.root / "points"
    points.mkdir(parents=True)
    stale = points / ".gto.json.99.0.tmp"
    stale.write_text("{torn")
    old = time.time() - 7200
    os.utime(stale, (old, old))
    report = runner.run_report()
    assert report.stale_tmps_removed == 1
    assert not stale.exists()
    assert any("stale temp file" in line for line in report.summary_lines())


# ---------------------------------------------------------------------------
# the chaos differential: faulted sweep == fault-free sweep, byte for byte
# ---------------------------------------------------------------------------

def _tiny_config(cache_dir) -> ExperimentConfig:
    return replace(
        ExperimentConfig.fast(), run_max_cycles=20_000, cache_dir=Path(cache_dir)
    )


def _artifact_bytes(runner: SweepRunner):
    return {
        path.name: path.read_bytes()
        for path in sorted((runner.root / "points").glob("*.json"))
    }


def test_chaos_sweep_is_byte_identical_to_fault_free_run(tmp_path, monkeypatch):
    """The headline guarantee on the real simulator: a parallel sweep
    surviving a worker crash, an injected transient error and a torn
    artifact write produces byte-identical artifacts — and a byte-identical
    aggregated ``sweep.json`` — to a clean serial run.  Each run starts
    with empty in-process caches, so the chaos run's workers compute and
    store every result and its ``cache.store`` faults fire; the test below
    counts them on a serial run."""
    from repro.experiments.common import clear_caches

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    grid = get_grid("smoke")

    clear_caches()
    clean = SweepRunner(grid, _tiny_config(tmp_path / "clean"))
    clean.run()
    clean_payload = aggregate(grid, clean.config)
    clean_sweep = write_sweep_artifact(clean_payload, tmp_path / "clean")

    # seed=0 over the 8 smoke points: crash and oserror target distinct
    # points (so both fire); one torn write on top.
    monkeypatch.setenv(
        "REPRO_FAULTS",
        "seed=0,crash_delay=1.0,executor:crash:1,executor:oserror:1,"
        "runner.write:truncate:1,cache.store:oserror:2",
    )
    reset_fault_state()
    clear_caches()
    chaos = SweepRunner(grid, _tiny_config(tmp_path / "chaos"))
    report = chaos.run_report(jobs=2)

    # The faults actually fired...
    assert report.job_report is not None
    assert report.job_report.injected >= 2
    assert report.job_report.pool_restarts >= 1
    assert report.job_report.retries >= 1
    assert report.repaired_writes == 1
    assert any(record.destination.exists() for record in report.quarantined)
    assert any("faults injected" in line for line in report.summary_lines())
    assert any(
        line.startswith("cache:") and "failed store" in line
        for line in report.summary_lines()
    )

    # ...and changed nothing observable.
    assert _artifact_bytes(chaos) == _artifact_bytes(clean)
    monkeypatch.delenv("REPRO_FAULTS")
    reset_fault_state()
    chaos_payload = aggregate(grid, chaos.config)
    chaos_sweep = write_sweep_artifact(chaos_payload, tmp_path / "chaos")
    assert chaos_sweep.read_bytes() == clean_sweep.read_bytes()


def test_cache_store_faults_fire_on_a_cached_grid(tmp_path, monkeypatch):
    """Flaky cache stores on a serial sweep: both injected store failures
    are counted, and the point artifacts are byte-identical to a
    fault-free run."""
    from repro.experiments.common import clear_caches
    from repro.scenarios.grid import ScenarioGrid

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    grid = ScenarioGrid("cached", {"scheme": ["gto", "ccws"], "benchmark": ["gather", "mvt"]})

    # Each run starts with empty in-process caches, so it computes and
    # stores every result instead of reusing the other run's.
    clear_caches()
    clean = SweepRunner(grid, _tiny_config(tmp_path / "clean"))
    clean_cache = clean.run_report().telemetry["cache"]
    assert clean_cache["stores"] > 2
    assert clean_cache["store_failures"] == 0

    monkeypatch.setenv("REPRO_FAULTS", "cache.store:oserror:2")
    reset_fault_state()
    clear_caches()
    chaos = SweepRunner(grid, _tiny_config(tmp_path / "chaos"))
    chaos_cache = chaos.run_report().telemetry["cache"]
    assert chaos_cache["store_failures"] == 2
    assert chaos_cache["stores"] == clean_cache["stores"] - 2
    assert _artifact_bytes(chaos) == _artifact_bytes(clean)
