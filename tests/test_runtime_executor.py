"""Tests for the sweep executor, the persistent result cache and the
cache-key hygiene of the experiment layer.

The two load-bearing guarantees of the runtime subsystem:

* a parallel sweep produces *bit-identical* counters to a serial one, and
* a corrupted or truncated disk-cache entry falls back to recomputation.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.model_store import model_to_dict
from repro.experiments.common import (
    ExperimentConfig,
    clear_caches,
    evaluate_schemes,
    get_profile,
    measurement,
    model_entry,
    plan_schemes,
    run_plan,
    run_scheme_on_kernel,
    train_or_load_model,
)
from repro.gpu.config import baseline_config
from repro.profiling.profiler import KernelProfiler
from repro.runtime.cache import DiskCache, content_key
from repro.runtime.executor import SweepExecutor, jobs_arg, resolve_jobs
from repro.runtime.serialization import (
    decode_value,
    encode_value,
    profile_from_dict,
    profile_to_dict,
    run_result_from_dict,
    run_result_to_dict,
)
from repro.workloads.registry import get_benchmark
from repro.workloads.spec import KernelSpec


@pytest.fixture
def sweep_spec() -> KernelSpec:
    return KernelSpec(
        name="runtime_kernel",
        num_warps=12,
        instructions_per_warp=1200,
        instructions_per_load=3,
        dep_distance=3,
        intra_warp_fraction=0.6,
        inter_warp_fraction=0.2,
        private_lines=100,
        shared_lines=300,
        seed=9,
    )


@pytest.fixture
def tmp_cache_config(tmp_path) -> ExperimentConfig:
    """A fast config whose disk cache lives in an isolated temp directory."""
    clear_caches()
    yield replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    clear_caches()


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _square_unless_odd(x):
    if x % 2:
        raise RuntimeError(f"boom {x}")
    return x * x


def _sleepy_square(x, seconds):
    time.sleep(seconds)
    return x * x


def _slow_marked_square(marker_dir, x):
    """Sleeps, then leaves one marker file per *completed* call."""
    time.sleep(0.3)
    Path(marker_dir, f"{x}.marker").touch()
    return x * x


class TestSweepExecutor:
    def test_zero_jobs_means_one_per_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_jobs(0) == 6
        assert SweepExecutor(jobs=0).jobs == 6
        assert jobs_arg("0") == jobs_arg("auto") == jobs_arg(" AUTO ") == 6
        assert jobs_arg("3") == 3

    def test_default_executor_is_serial_with_two_retries_and_no_timeout(self):
        executor = SweepExecutor()
        assert (executor.jobs, executor.timeout, executor.retries) == (1, None, 2)
        # A non-positive timeout means "no timeout"; negative retries clamp to zero.
        clamped = SweepExecutor(timeout=0, retries=-3)
        assert (clamped.timeout, clamped.retries) == (None, 0)

    @pytest.mark.parametrize("raw", ["-1", "lots", "", "2.5"])
    def test_jobs_arg_rejects_what_the_environment_rejects(self, raw):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="non-negative integer or 'auto'"):
            jobs_arg(raw)

    def test_timeout_is_per_job_not_per_round(self):
        """Time queued behind other jobs never counts against a job: eight
        0.5 s jobs on two workers take about 2 s, past the 1.5 s timeout,
        but the parent never waits on any one of them for that long."""
        executor = SweepExecutor(jobs=2, timeout=1.5)
        results, report = executor.map_with_report(
            _sleepy_square, [(i, 0.5) for i in range(8)]
        )
        assert results == [i * i for i in range(8)]
        assert report.clean, report.summary()

    def test_serial_map_preserves_order(self):
        executor = SweepExecutor(jobs=1)
        assert executor.map(_square, [(i,) for i in range(6)]) == [0, 1, 4, 9, 16, 25]

    def test_parallel_map_preserves_order(self):
        executor = SweepExecutor(jobs=2)
        assert executor.map(_square, [(i,) for i in range(6)]) == [0, 1, 4, 9, 16, 25]

    def test_a_pool_that_cannot_spawn_workers_finishes_serially(
        self, monkeypatch, no_children_left
    ):
        """Workers are forked on submission, not when the pool is built: a
        failed fork there must fall back to the serial path too."""
        from concurrent.futures import process

        def refuse(pool):
            raise BlockingIOError(11, "simulated fork failure")

        monkeypatch.setattr(process.ProcessPoolExecutor, "_spawn_process", refuse)
        executor = SweepExecutor(jobs=2)
        results, report = executor.map_with_report(_square, [(i,) for i in range(4)])
        assert results == [0, 1, 4, 9]
        assert report.attempts == 4 and report.clean
        assert no_children_left()

    def test_worker_exception_propagates(self):
        executor = SweepExecutor(jobs=2)
        with pytest.raises(RuntimeError, match="boom"):
            executor.map(_boom, [(1,), (2,)])


class TestStreaming:
    """``imap`` hands out each result as soon as it and every earlier one
    are final, and closing it early starts no further job."""

    def test_pooled_imap_yields_earlier_results_before_a_job_error(self, no_children_left):
        executor = SweepExecutor(jobs=2)
        stream = executor.imap(_square_unless_odd, [(0,), (1,), (2,)])
        assert next(stream) == 0
        assert executor.last_report.jobs == 3
        assert executor.last_report.attempts >= 1
        with pytest.raises(RuntimeError, match="boom 1"):
            next(stream)
        assert no_children_left()

    def test_closing_a_pooled_imap_early_stops_its_workers(self, tmp_path, no_children_left):
        executor = SweepExecutor(jobs=2)
        stream = executor.imap(
            _slow_marked_square, [(str(tmp_path), i) for i in range(8)]
        )
        assert next(stream) == 0
        stream.close()
        assert no_children_left()
        finished = len(list(tmp_path.glob("*.marker")))
        assert finished < 8
        time.sleep(0.5)
        assert len(list(tmp_path.glob("*.marker"))) == finished

    def test_taking_every_result_shuts_the_pool_down_without_killing_it(self, monkeypatch):
        killed = []
        teardown = SweepExecutor._teardown

        def recording_teardown(pool):
            killed.append(pool)
            teardown(pool)

        monkeypatch.setattr(SweepExecutor, "_teardown", staticmethod(recording_teardown))
        executor = SweepExecutor(jobs=2)
        stream = executor.imap(_square, [(i,) for i in range(4)])
        # zip stops after the fourth result without asking for a fifth.
        assert [result for _, result in zip(range(4), stream)] == [0, 1, 4, 9]
        stream.close()
        assert killed == []

    def test_serial_imap_runs_each_job_when_its_result_is_taken(self, tmp_path):
        executor = SweepExecutor(jobs=1)
        stream = executor.imap(
            _slow_marked_square, [(str(tmp_path), i) for i in range(3)]
        )
        assert list(tmp_path.glob("*.marker")) == []
        assert next(stream) == 0
        assert [path.name for path in tmp_path.glob("*.marker")] == ["0.marker"]
        stream.close()
        assert executor.last_report.attempts == 1


@pytest.fixture
def pools(tmp_path, monkeypatch):
    """The pid of the process that started each pool: a pool started in a
    worker shows its pid, since forked workers inherit this patch."""
    import repro.runtime.executor as executor_module

    log = tmp_path / "pools.log"
    log.touch()

    class RecordedPool(executor_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", RecordedPool)
    return lambda: [int(pid) for pid in log.read_text().split()]


class TestSerialParallelEquivalence:
    def test_serial_and_pooled_plans_compute_identical_entries(
        self, tmp_path, pools, no_children_left
    ):
        """A plan computes the same profiles, model, run counters and
        speedups on one worker and on two, where both stages run on the
        pool and the parent keeps the copies the workers return."""
        spec = get_benchmark("bfs").kernels[0]
        schemes, benchmarks = ("gto", "swl", "poise"), ["bfs", "mvt"]

        def read(config):
            runs = {}
            for scheme, outcomes in evaluate_schemes(schemes, config, benchmarks).items():
                for name, outcome in outcomes.items():
                    counters = {k: r.counters for k, r in outcome.kernel_results.items()}
                    runs[scheme, name] = (outcome.speedup, counters)
            profile = get_profile(spec, config)
            model = model_to_dict(train_or_load_model(config))
            return profile.ipc, profile.baseline_counters, model, runs

        def computed(jobs):
            clear_caches()
            config = replace(ExperimentConfig.fast(), cache_dir=tmp_path / f"jobs{jobs}")
            plan = [measurement(get_profile, spec, config), model_entry(config)]
            run_plan(plan + plan_schemes(schemes, config, benchmarks), SweepExecutor(jobs=jobs))
            in_memo = read(config)
            clear_caches()
            assert read(config) == in_memo  # each kept copy is its own entry
            return in_memo

        serial = computed(1)
        assert pools() == []
        pooled = computed(2)
        clear_caches()
        # Measurements, then runs (on two kernels, one job each).
        assert pools() == [os.getpid()] * 2
        assert serial == pooled
        assert no_children_left()

    def test_a_profile_dealt_over_two_workers_equals_the_serial_one(
        self, tmp_path, pools, no_children_left
    ):
        """With fewer kernels than workers, a profile's grid is measured in
        slices on the pool and assembled here: same profile, same bytes."""
        spec = get_benchmark("ii").kernels[0]

        def profiled(jobs):
            clear_caches()
            config = replace(ExperimentConfig.fast(), cache_dir=tmp_path / f"jobs{jobs}")
            run_plan([measurement(get_profile, spec, config)], SweepExecutor(jobs=jobs))
            (entry,) = (config.cache_dir / "runs").glob("*.json")
            return get_profile(spec, config), entry.name, entry.read_bytes()

        serial, pooled = profiled(1), profiled(2)
        clear_caches()
        assert pools() == [os.getpid()]
        assert serial[0].ipc == pooled[0].ipc
        assert serial[0].baseline_counters == pooled[0].baseline_counters
        assert serial[1:] == pooled[1:]
        assert no_children_left()

    def test_a_retried_job_reads_back_what_its_failed_attempt_stored(
        self, sweep_spec, tmp_cache_config
    ):
        from repro.experiments.common import _compute_all, _probe

        miss = _probe(measurement(get_profile, sweep_spec, tmp_cache_config))
        _, payload, config, compute = miss.args
        (stored,) = _compute_all([(payload, config, compute)])
        clear_caches()

        def recompute():
            raise AssertionError("the stored entry was computed again")

        (read_back,) = _compute_all([(payload, config, recompute)])
        assert read_back.ipc == stored.ipc


class TestDiskCache:
    def test_round_trip_run_result(self, sweep_spec, tmp_cache_config):
        first = run_scheme_on_kernel("gto", sweep_spec, tmp_cache_config)
        clear_caches()  # drop the memory layer; the disk layer persists
        second = run_scheme_on_kernel("gto", sweep_spec, tmp_cache_config)
        assert first.counters == second.counters
        assert first.warp_tuple == second.warp_tuple
        assert first.energy == second.energy
        assert first.telemetry == second.telemetry

    def test_round_trip_profile(self, sweep_spec, tmp_cache_config):
        first = get_profile(sweep_spec, tmp_cache_config)
        clear_caches()
        second = get_profile(sweep_spec, tmp_cache_config)
        assert first.ipc == second.ipc
        assert first.baseline_ipc == second.baseline_ipc
        assert first.kernel == second.kernel
        assert first.baseline_counters == second.baseline_counters

    @pytest.mark.parametrize(
        "garbage",
        [
            "",
            "{truncated",
            '{"format_version": 999}',
            '{"unrelated": 1}',
            "[1, 2]",
            '{"format_version": 1, "result": {}}',
        ],
    )
    def test_corrupted_entry_falls_back_to_recompute(
        self, sweep_spec, tmp_cache_config, garbage
    ):
        reference = run_scheme_on_kernel("gto", sweep_spec, tmp_cache_config)
        entries = list((tmp_cache_config.cache_dir / "runs").glob("*.json"))
        assert entries, "the run should have been written to the disk cache"
        for entry in entries:
            entry.write_text(garbage)
        clear_caches()
        recomputed = run_scheme_on_kernel("gto", sweep_spec, tmp_cache_config)
        assert recomputed.counters == reference.counters

    def test_corrupted_entry_is_replaced(self, sweep_spec, tmp_cache_config):
        run_scheme_on_kernel("gto", sweep_spec, tmp_cache_config)
        entries = list((tmp_cache_config.cache_dir / "runs").glob("*.json"))
        for entry in entries:
            entry.write_text("not json at all")
        clear_caches()
        run_scheme_on_kernel("gto", sweep_spec, tmp_cache_config)
        clear_caches()
        # Third call must be served by a healthy, rewritten disk entry.
        result = run_scheme_on_kernel("gto", sweep_spec, tmp_cache_config)
        assert result.counters.cycles > 0

    def test_content_key_is_canonical(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
        assert content_key({"a": 1}) != content_key({"a": 2})

    def test_store_and_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        payload = {"kind": "test", "x": 1}
        assert cache.load(payload) is None
        cache.store(payload, {"value": 42})
        assert cache.load(payload) == {"value": 42}
        assert cache.clear() == 1
        assert cache.load(payload) is None


class TestSerialization:
    def test_tuple_round_trip(self):
        value = {"tuples": [(1, 2), (3, 4)], "nested": {"point": (5, 6)}, "n": 7}
        assert decode_value(json.loads(json.dumps(encode_value(value)))) == value

    def test_run_result_round_trip(self, sweep_spec, tmp_cache_config):
        result = run_scheme_on_kernel("gto", sweep_spec, tmp_cache_config)
        data = json.loads(json.dumps(run_result_to_dict(result)))
        restored = run_result_from_dict(data)
        assert restored.counters == result.counters
        assert restored.warp_tuple == result.warp_tuple
        assert restored.energy == result.energy
        assert restored.telemetry == result.telemetry

    def test_profile_round_trip(self, sweep_spec):
        profiler = KernelProfiler(
            baseline_config(max_cycles=30_000),
            cycles_per_point=1_000,
            warmup_cycles=500,
            step=4,
        )
        profile = profiler.profile(sweep_spec)
        restored = profile_from_dict(json.loads(json.dumps(profile_to_dict(profile))))
        assert restored.ipc == profile.ipc
        assert restored.kernel == profile.kernel
        assert restored.max_warps == profile.max_warps
        assert restored.baseline_counters == profile.baseline_counters


class TestCacheKeyHygiene:
    """Two configs differing in any run-affecting knob must not collide."""

    def test_run_max_cycles_changes_key(self):
        base = ExperimentConfig.fast()
        assert base.cache_key != replace(base, run_max_cycles=base.run_max_cycles * 2).cache_key

    def test_kernels_per_benchmark_changes_key(self):
        base = ExperimentConfig.fast()
        assert base.cache_key != replace(base, kernels_per_benchmark=7).cache_key

    def test_poise_params_change_key(self):
        base = ExperimentConfig.fast()
        bigger_epoch = replace(
            base.poise_params, t_period=base.poise_params.t_period * 2
        )
        assert base.cache_key != base.with_poise_params(bigger_epoch).cache_key

    def test_feature_window_changes_key(self):
        base = ExperimentConfig.fast()
        window = replace(base.poise_params, t_feature=base.poise_params.t_feature + 1)
        assert base.cache_key != base.with_poise_params(window).cache_key

    def test_distinct_run_max_cycles_distinct_results(self, sweep_spec, tmp_cache_config):
        """Regression: previously these two configs silently shared a cache slot."""
        short = replace(tmp_cache_config, run_max_cycles=4_000)
        long = replace(tmp_cache_config, run_max_cycles=40_000)
        short_result = run_scheme_on_kernel("gto", sweep_spec, short)
        long_result = run_scheme_on_kernel("gto", sweep_spec, long)
        assert short_result.counters.cycles < long_result.counters.cycles


def _touch_disk_cache(cache_dir, index):
    """Pool job that misses, stores, then hits the disk cache once each."""
    cache = DiskCache(cache_dir, subdir="worker-cache-test")
    payload = {"index": index}
    assert cache.load(payload) is None  # miss
    cache.store(payload, {"value": index})  # store
    assert cache.load(payload) == {"value": index}  # hit
    return index


class TestWorkerCacheTelemetry:
    """Pool workers ship their cache-counter deltas home (JobReport.worker_cache)."""

    def test_parallel_map_merges_worker_cache_deltas(self, tmp_path):
        executor = SweepExecutor(jobs=2)
        results = executor.map(
            _touch_disk_cache, [(str(tmp_path), index) for index in range(4)]
        )
        assert results == [0, 1, 2, 3]
        worker_cache = executor.last_report.worker_cache
        assert worker_cache is not None
        # Each of the 4 jobs: one miss, one store, one hit — summed across
        # however many worker processes they landed on.
        assert worker_cache["misses"] == 4
        assert worker_cache["stores"] == 4
        assert worker_cache["hits"] == 4
        assert executor.last_report.to_dict()["worker_cache"] == worker_cache

    def test_serial_map_reports_no_worker_cache(self, tmp_path):
        executor = SweepExecutor(jobs=1)
        executor.map(_touch_disk_cache, [(str(tmp_path), 99)])
        # Serial execution happens in-parent: the global counters already
        # saw it, so shipping a worker delta home would double-count.
        assert executor.last_report.worker_cache in (None, {})


class TestOneFanOutPerCommand:
    """A command fans out once, on the executor it builds."""

    def test_a_cold_run_starts_one_pool_per_stage_and_none_in_a_worker(
        self, tmp_path, pools, no_children_left
    ):
        from repro.cli.main import main

        clear_caches()
        cache_dir = tmp_path / "cache"
        assert main(["run", "fig07", "--fast", "--jobs", "2", "--cache-dir", str(cache_dir)]) == 0
        # Profiles and runs miss; the model is fitted in this process.
        assert pools() == [os.getpid()] * 2
        assert no_children_left()

    def test_a_cold_pooled_run_all_computes_each_entry_once(self, tmp_path, capsys):
        from repro.cli.main import main

        clear_caches()
        cache_dir = tmp_path / "cache"
        assert main(["run-all", "--fast", "--jobs", "2", "--cache-dir", str(cache_dir)]) == 0
        cache_line = next(
            line for line in capsys.readouterr().out.splitlines() if line.startswith("cache: ")
        )
        entries = len(list((cache_dir / "runs").glob("*.json")))
        entries += len(list(cache_dir.glob("model-*.json")))
        assert cache_line.startswith(f"cache: 0 hits, {entries} misses, {entries} stores")

    def test_sweep_jobs_one_starts_no_pool_under_an_ambient_budget(
        self, tmp_path, monkeypatch
    ):
        import repro.runtime.executor as executor_module
        from repro.cli.main import main

        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        pools = []

        def no_pool(*args, **kwargs):
            pools.append(kwargs)
            raise OSError("pools are not allowed in this test")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
        clear_caches()
        overrides = ["num_sms=none", "scheme=ccws", "benchmark=gather"]
        argv = ["sweep", "run", "smoke", "--fast", "--jobs", "1", "--cache-dir", str(tmp_path)]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 0
        assert pools == []
        assert os.environ["REPRO_JOBS"] == "4"
