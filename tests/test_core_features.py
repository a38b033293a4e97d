"""Unit tests for the feature vector and feature sampling."""

import pytest

from repro.core.features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    CounterSample,
    FeatureSampler,
    FeatureVector,
)
from repro.gpu.counters import PerfCounters
from repro.gpu.gpu import GPU
from repro.workloads.generator import generate_kernel_programs


def make_vector(**overrides):
    defaults = dict(
        h_o=0.1, h_prime=0.6, eta_o=0.05, eta_prime=0.55,
        instructions_per_load=3.0, latency_pressure=-50.0,
    )
    defaults.update(overrides)
    return FeatureVector(**defaults)


class TestFeatureVector:
    def test_has_eight_features_in_table_ii_order(self):
        vector = make_vector()
        values = vector.as_list()
        assert len(values) == NUM_FEATURES == len(FEATURE_NAMES) == 8
        assert values[0] == pytest.approx(0.1)      # x1 = h_o
        assert values[1] == pytest.approx(0.6)      # x2 = h'
        assert values[2] == pytest.approx(0.05)     # x3 = eta_o
        assert values[3] == pytest.approx(0.55)     # x4 = eta'
        assert values[4] == pytest.approx(0.5 ** 2)  # x5 = (eta'-eta_o)^2
        assert values[5] == pytest.approx(3.0 * 0.25)  # x6 = In * (delta eta)^2
        assert values[6] == pytest.approx((-50.0) ** 2 / 1e4)  # x7
        assert values[7] == 1.0                     # x8 intercept

    def test_delta_eta_property(self):
        assert make_vector().delta_eta == pytest.approx(0.5)

    def test_masking_removes_requested_indices(self):
        vector = make_vector()
        masked = vector.masked([5])
        assert len(masked) == 7
        assert vector.as_list()[5] not in masked or masked.count(vector.as_list()[5]) < \
            vector.as_list().count(vector.as_list()[5])

    def test_from_samples_computes_latency_pressure(self):
        baseline = CounterSample(
            hit_rate=0.1, intra_warp_hit_rate=0.05, miss_rate=0.9,
            avg_memory_latency=500.0, instructions_per_load=3.0,
        )
        reference = CounterSample(
            hit_rate=0.7, intra_warp_hit_rate=0.7, miss_rate=0.3,
            avg_memory_latency=300.0, instructions_per_load=3.0,
        )
        vector = FeatureVector.from_samples(baseline, reference)
        assert vector.latency_pressure == pytest.approx(300 * 0.3 - 500 * 0.9)
        assert vector.h_o == 0.1 and vector.h_prime == 0.7

    def test_counter_sample_from_counters(self):
        counters = PerfCounters(
            l1_accesses=10, l1_hits=4, l1_misses=6, intra_warp_hits=3,
            miss_requests=6, miss_latency_total=1800, instructions=30, loads=10,
        )
        sample = CounterSample.from_counters(counters)
        assert sample.hit_rate == pytest.approx(0.4)
        assert sample.miss_rate == pytest.approx(0.6)
        assert sample.intra_warp_hit_rate == pytest.approx(0.3)
        assert sample.avg_memory_latency == pytest.approx(300.0)
        assert sample.instructions_per_load == pytest.approx(3.0)


class TestFeatureSampler:
    def test_collect_steers_both_reference_points(self, baseline_gpu_config, simple_kernel_spec):
        sm = GPU(baseline_gpu_config).build_sm(generate_kernel_programs(simple_kernel_spec))
        sampler = FeatureSampler(warmup_cycles=200, sample_cycles=800)
        vector, baseline_ipc = sampler.collect(sm, max_warps=simple_kernel_spec.num_warps)
        # After collection the SM is back at the baseline tuple.
        assert sm.warp_tuple == (simple_kernel_spec.num_warps, simple_kernel_spec.num_warps)
        assert baseline_ipc > 0.0
        values = vector.as_list()
        assert len(values) == NUM_FEATURES
        assert all(isinstance(v, float) for v in values)
        assert 0.0 <= vector.h_o <= 1.0
        assert 0.0 <= vector.h_prime <= 1.0

    def test_sample_at_returns_window_not_cumulative(self, baseline_gpu_config, simple_kernel_spec):
        sm = GPU(baseline_gpu_config).build_sm(generate_kernel_programs(simple_kernel_spec))
        sampler = FeatureSampler(warmup_cycles=100, sample_cycles=500)
        sampler.sample_at(sm, 4, 4)
        cycles_after_first = sm.counters.cycles
        sample = sampler.sample_at(sm, 4, 4)
        assert sm.counters.cycles > cycles_after_first
        assert 0.0 <= sample.hit_rate <= 1.0
