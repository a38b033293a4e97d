"""Unit tests for metrics and the {N, p} profiler."""

import math

import pytest

from repro.profiling.metrics import (
    arithmetic_mean,
    euclidean_displacement,
    geometric_mean,
    harmonic_mean,
    normalize,
)
from repro.profiling.profiler import KernelProfiler, StaticProfile, measure_pbest
from repro.workloads.spec import KernelSpec


class TestMetrics:
    def test_harmonic_mean_known_value(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)

    def test_harmonic_mean_below_arithmetic(self):
        values = [1.0, 1.5, 3.0]
        assert harmonic_mean(values) <= geometric_mean(values) <= arithmetic_mean(values)

    def test_harmonic_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])

    def test_means_of_empty_sequences(self):
        assert harmonic_mean([]) == 0.0
        assert arithmetic_mean([]) == 0.0
        assert geometric_mean([]) == 0.0

    def test_normalize(self):
        assert normalize([2.0, 4.0], 2.0) == [1.0, 2.0]
        with pytest.raises(ValueError):
            normalize([1.0], 0.0)

    def test_euclidean_displacement(self):
        assert euclidean_displacement((3, 4), (0, 0)) == pytest.approx(5.0)
        assert euclidean_displacement((2, 2), (2, 2)) == 0.0


class TestStaticProfile:
    def make_profile(self, grid, baseline_ipc=1.0, max_warps=8):
        profile = StaticProfile(
            kernel=KernelSpec(name="k"), max_warps=max_warps, baseline_ipc=baseline_ipc
        )
        profile.ipc.update(grid)
        return profile

    def test_speedup_normalised_to_baseline(self):
        profile = self.make_profile({(8, 8): 2.0, (4, 1): 3.0}, baseline_ipc=2.0)
        assert profile.speedup(4, 1) == pytest.approx(1.5)
        assert profile.speedup(8, 8) == pytest.approx(1.0)
        assert profile.speedup(5, 5) == 0.0  # unprofiled point

    def test_best_point_requires_meaningful_gain(self):
        profile = self.make_profile({(8, 8): 1.0, (4, 1): 1.001}, baseline_ipc=1.0)
        assert profile.best_point() == (8, 8)
        profile = self.make_profile({(8, 8): 1.0, (4, 1): 1.2}, baseline_ipc=1.0)
        assert profile.best_point() == (4, 1)

    def test_best_diagonal_point_restricted_to_diagonal(self):
        profile = self.make_profile({(8, 8): 1.0, (4, 4): 1.3, (6, 1): 2.0})
        assert profile.best_diagonal_point() == (4, 4)

    def test_speedup_grid_and_points(self):
        profile = self.make_profile({(8, 8): 1.0, (4, 4): 1.5})
        grid = profile.speedup_grid()
        assert grid[(4, 4)] == pytest.approx(1.5)
        assert profile.points() == [(4, 4), (8, 8)]
        assert profile.contains(4, 4) and not profile.contains(1, 1)


class TestKernelProfiler:
    @pytest.fixture
    def small_spec(self):
        return KernelSpec(
            name="profile_kernel", num_warps=6, instructions_per_warp=3000,
            instructions_per_load=3, dep_distance=4, intra_warp_fraction=0.8,
            inter_warp_fraction=0.1, private_lines=40, shared_lines=80, seed=13,
        )

    def test_grid_respects_steps_and_includes_baseline(self, baseline_gpu_config, small_spec):
        profiler = KernelProfiler(
            baseline_gpu_config, cycles_per_point=800, warmup_cycles=400, step=3
        )
        profile = profiler.profile(small_spec)
        assert (small_spec.num_warps, small_spec.num_warps) in profile.ipc
        for n, p in profile.ipc:
            assert 1 <= p <= n <= small_spec.num_warps

    def test_profile_is_deterministic(self, baseline_gpu_config, small_spec):
        def run():
            profiler = KernelProfiler(
                baseline_gpu_config, cycles_per_point=600, warmup_cycles=200, step=3
            )
            return profiler.profile(small_spec).ipc

        assert run() == run()

    def test_measure_point_returns_window_counters(self, baseline_gpu_config, small_spec):
        profiler = KernelProfiler(baseline_gpu_config, cycles_per_point=700, warmup_cycles=300)
        result = profiler.measure_point(small_spec, 4, 2)
        assert result.warp_tuple == (4, 2)
        assert result.counters.cycles <= 701

    def test_max_warps_capped_by_kernel(self, baseline_gpu_config):
        spec = KernelSpec(name="tiny", num_warps=4, instructions_per_warp=800)
        profiler = KernelProfiler(
            baseline_gpu_config, cycles_per_point=400, warmup_cycles=100, step=2
        )
        profile = profiler.profile(spec)
        assert profile.max_warps == 4

    def test_pbest_larger_cache_helps_memory_sensitive_kernel(self, baseline_gpu_config):
        spec = KernelSpec(
            name="pbest_kernel", num_warps=16, instructions_per_warp=8000,
            instructions_per_load=3, dep_distance=6, intra_warp_fraction=0.90,
            inter_warp_fraction=0.05, private_lines=30, shared_lines=100, seed=17,
        )
        pbest = measure_pbest(
            spec, baseline_gpu_config, cycles=10_000, warmup_cycles=15_000, l1_scale=64
        )
        assert pbest > 1.05
