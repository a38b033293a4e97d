"""End-to-end integration tests on the fast configuration.

These exercise the full train → save → load → infer → schedule pipeline on
the scaled-down configuration.  They are the slowest tests in the suite
(tens of seconds in total); the session-scoped ``tiny_model`` fixture is
shared between them.
"""

import math
from dataclasses import replace

import pytest

from repro.core.features import FeatureSampler
from repro.core.model_store import load_model, save_model
from repro.core.training import TrainedModel
from repro.experiments.common import (
    ExperimentConfig,
    clear_caches,
    get_features,
    run_scheme_on_benchmark,
    run_scheme_on_kernel,
    train_or_load_model,
)
from repro.profiling.profiler import KernelProfiler
from repro.workloads.registry import get_benchmark, training_benchmarks


@pytest.fixture
def fresh_fast_config(tmp_path):
    """The fast configuration on an empty cache dir and an empty memo."""
    clear_caches()
    yield replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    clear_caches()


class TestTrainingPipeline:
    def test_model_trained_on_training_split_only(self, tiny_model):
        assert tiny_model.num_training_kernels >= 8
        assert len(tiny_model.alpha_weights) == 8
        assert len(tiny_model.beta_weights) == 8

    def test_model_round_trips_through_store(self, tiny_model, tmp_path):
        path = save_model(tiny_model, tmp_path / "model.json")
        loaded = load_model(path)
        assert loaded.alpha_weights == pytest.approx(tiny_model.alpha_weights)

    def test_model_predicts_valid_tuples_for_unseen_kernels(self, tiny_model, fast_config):
        for benchmark_name in ("ii", "bfs"):
            spec = get_benchmark(benchmark_name).kernels[0]
            features = get_features(spec, fast_config)
            n, p = tiny_model.predict(features, max_warps=spec.num_warps)
            assert 1 <= p <= n <= spec.num_warps


class TestSchemeExecution:
    def test_poise_runs_and_reports_epochs(self, tiny_model, fast_config):
        outcome = run_scheme_on_benchmark("poise", "ii", fast_config, model=tiny_model)
        assert outcome.speedup > 0.5
        assert outcome.telemetry  # per-kernel HIE telemetry present
        for telemetry in outcome.telemetry.values():
            assert telemetry["epochs"] >= 1

    def test_poise_benign_on_compute_intensive_benchmark(self, tiny_model, fast_config):
        outcome = run_scheme_on_benchmark("poise", "hotspot", fast_config, model=tiny_model)
        assert outcome.speedup > 0.85

    def test_static_best_never_far_below_baseline(self, fast_config):
        outcome = run_scheme_on_benchmark("static_best", "mm", fast_config)
        assert outcome.speedup >= 0.9

    def test_run_cache_returns_identical_result(self, fast_config):
        spec = get_benchmark("ii").kernels[0]
        first = run_scheme_on_kernel("gto", spec, fast_config)
        second = run_scheme_on_kernel("gto", spec, fast_config)
        assert first is second  # cached

    def test_warp_tuple_schemes_raise_l1_hit_rate_on_thrashing_benchmark(self, fast_config):
        gto = run_scheme_on_benchmark("gto", "mm", fast_config)
        swl = run_scheme_on_benchmark("swl", "mm", fast_config)
        assert swl.l1_hit_rate >= gto.l1_hit_rate - 0.02


class TestOneSamplingProcedure:
    def test_hie_first_epoch_samples_the_vector_training_reads(
        self, fresh_fast_config, monkeypatch
    ):
        """Poise's inference engine samples through ``FeatureSampler`` with
        the training windows, so its first-epoch vector is ``get_features``'."""
        sampled = []
        collect = FeatureSampler.collect

        def spy(self, sm, max_warps=None):
            result = collect(self, sm, max_warps)
            sampled.append(result[0])
            return result

        monkeypatch.setattr(FeatureSampler, "collect", spy)
        model = TrainedModel(
            alpha_weights=[0.0] * 7 + [math.log(8)],
            beta_weights=[0.0] * 7 + [math.log(2)],
            max_warps=24,
        )
        spec = get_benchmark("mm").kernels[0]
        run_scheme_on_kernel("poise", spec, fresh_fast_config, model=model)
        assert sampled, "the inference engine never called the feature sampler"
        assert sampled[0] == get_features(spec, fresh_fast_config)


class TestTrainingReadsTheResultCache:
    def test_base_and_ablation_training_profile_each_kernel_once(
        self, fresh_fast_config, monkeypatch
    ):
        profiled = []
        profile = KernelProfiler.profile

        def spy(self, spec):
            profiled.append(spec.name)
            return profile(self, spec)

        monkeypatch.setattr(KernelProfiler, "profile", spy)
        train_or_load_model(fresh_fast_config)
        train_or_load_model(fresh_fast_config, feature_mask=[5])
        kernels = [
            spec.name
            for benchmark in training_benchmarks()
            for spec in fresh_fast_config.limited_kernels(benchmark, training=True)
        ]
        assert sorted(profiled) == sorted(kernels)

    def test_pooled_pretrain_stores_the_serial_models_bytes(
        self, fresh_fast_config, monkeypatch, no_children_left
    ):
        from repro.cli.main import main

        def models(cache_dir):
            return {path.name: path.read_bytes() for path in cache_dir.glob("model-*.json")}

        train_or_load_model(fresh_fast_config)
        serial = models(fresh_fast_config.cache_dir)
        pooled_dir = fresh_fast_config.cache_dir / "pooled"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(pooled_dir))
        clear_caches()
        assert main(["pretrain", "--fast", "--jobs", "2"]) == 0
        assert len(serial) == 1
        assert models(pooled_dir) == serial
        assert no_children_left()
