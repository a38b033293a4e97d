"""Unit tests for repro.gpu.config."""

import pytest

from repro.gpu.config import CacheConfig, EnergyConfig, GPUConfig, MemoryConfig, SMConfig, baseline_config


class TestCacheConfig:
    def test_baseline_l1_geometry_matches_table_iiib(self):
        config = baseline_config().l1
        assert config.size_bytes == 16 * 1024
        assert config.line_size == 128
        assert config.assoc == 4
        assert config.num_lines == 128
        assert config.num_sets == 32
        assert config.mshr_entries == 32
        assert config.indexing == "hash"

    def test_rejects_size_not_multiple_of_line(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, assoc=2, line_size=128, mshr_entries=4)

    def test_rejects_lines_not_multiple_of_assoc(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=3 * 128, assoc=2, line_size=128, mshr_entries=4)

    def test_rejects_unknown_indexing(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, assoc=2, line_size=128, mshr_entries=4, indexing="random")

    def test_rejects_nonpositive_assoc_or_mshr(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, assoc=0, line_size=128, mshr_entries=4)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, assoc=2, line_size=128, mshr_entries=0)


class TestGPUConfig:
    def test_baseline_scheduler_view(self):
        config = baseline_config()
        assert config.max_warps == 24
        assert config.sm.warp_size == 32
        # One simulated SM by default — the paper's 32 SMs are folded into
        # the per-SM memory shares; num_sms > 1 opts into the chip model.
        assert config.num_sms == 1
        assert config.sm_quantum == 100

    def test_with_l1_scale_multiplies_capacity_only(self):
        config = baseline_config()
        scaled = config.with_l1_scale(4)
        assert scaled.l1.size_bytes == 4 * config.l1.size_bytes
        assert scaled.l1.assoc == config.l1.assoc
        # Original untouched (frozen dataclasses).
        assert config.l1.size_bytes == 16 * 1024

    def test_with_l1_changes_indexing(self):
        config = baseline_config().with_l1(indexing="linear")
        assert config.l1.indexing == "linear"

    def test_with_max_cycles(self):
        config = baseline_config().with_max_cycles(123)
        assert config.max_cycles == 123

    def test_baseline_config_overrides(self):
        config = baseline_config(max_cycles=5, num_sms=16)
        assert config.max_cycles == 5
        assert config.num_sms == 16

    def test_energy_config_defaults_positive(self):
        energy = EnergyConfig()
        assert energy.dram_access_pj > energy.l2_access_pj > energy.l1_access_pj > 0

    def test_memory_config_defaults(self):
        memory = MemoryConfig()
        assert memory.dram_latency > memory.l2_latency
        assert memory.dram_service_interval > memory.l2_service_interval

    def test_sm_config_defaults(self):
        sm = SMConfig()
        assert sm.max_warps == 24
