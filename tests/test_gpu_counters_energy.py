"""Unit tests for performance counters, energy model and reuse tracker."""

import pytest

from repro.gpu.config import EnergyConfig
from repro.gpu.counters import PerfCounters, measure_window
from repro.gpu.energy import EnergyModel
from repro.gpu.engine import ENGINES
from repro.gpu.gpu import GPU
from repro.gpu.reuse import ReuseDistanceTracker
from repro.workloads.generator import generate_kernel_programs


class TestPerfCounters:
    def test_derived_rates_with_zero_activity(self):
        counters = PerfCounters()
        assert counters.ipc == 0.0
        assert counters.l1_hit_rate == 0.0
        assert counters.aml == 0.0
        assert counters.instructions_per_load == 0.0

    def test_hit_and_miss_rates(self):
        counters = PerfCounters(l1_accesses=10, l1_hits=4, l1_misses=6)
        assert counters.l1_hit_rate == pytest.approx(0.4)
        assert counters.l1_miss_rate == pytest.approx(0.6)

    def test_per_class_hit_rates(self):
        counters = PerfCounters(
            polluting_accesses=4, polluting_hits=3, nonpolluting_accesses=6, nonpolluting_hits=1
        )
        assert counters.polluting_hit_rate == pytest.approx(0.75)
        assert counters.nonpolluting_hit_rate == pytest.approx(1 / 6)

    def test_intra_inter_shares(self):
        counters = PerfCounters(l1_accesses=10, l1_hits=5, intra_warp_hits=4, inter_warp_hits=1)
        assert counters.intra_warp_hit_rate == pytest.approx(0.4)
        assert counters.intra_warp_hit_share == pytest.approx(0.8)
        assert counters.inter_warp_hit_share == pytest.approx(0.2)

    def test_aml_and_instructions_per_load(self):
        counters = PerfCounters(miss_requests=4, miss_latency_total=1200, instructions=90, loads=30)
        assert counters.aml == pytest.approx(300.0)
        assert counters.instructions_per_load == pytest.approx(3.0)

    def test_subtraction_gives_window_deltas(self):
        before = PerfCounters(cycles=100, instructions=50, l1_hits=5)
        after = PerfCounters(cycles=180, instructions=90, l1_hits=12)
        window = after - before
        assert window.cycles == 80
        assert window.instructions == 40
        assert window.l1_hits == 7

    def test_addition_merges_counters(self):
        a = PerfCounters(cycles=10, loads=3)
        b = PerfCounters(cycles=5, loads=2)
        merged = a + b
        assert merged.cycles == 15 and merged.loads == 5

    def test_copy_is_independent(self):
        counters = PerfCounters(cycles=1)
        clone = counters.copy()
        clone.cycles = 99
        assert counters.cycles == 1

    def test_as_dict_contains_derived_metrics(self):
        payload = PerfCounters(cycles=10, instructions=5).as_dict()
        assert payload["ipc"] == pytest.approx(0.5)
        assert "l1_hit_rate" in payload


class TestMeasureWindow:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_unwarmed_window_on_a_fresh_sm_is_the_whole_run(
        self, engine, baseline_gpu_config, simple_kernel_spec
    ):
        """fig04's rows: with no warm-up, a fresh SM's window holds exactly
        what a plain pinned run of the same length accumulates."""
        gpu = GPU(baseline_gpu_config, engine=engine)
        programs = generate_kernel_programs(simple_kernel_spec)
        plain = gpu.build_sm(programs)
        plain.set_warp_tuple(8, 1)
        plain.run_cycles(3_000)
        window = measure_window(gpu.build_sm(programs), 8, 1, 0, 3_000)
        assert window == plain.counters
        assert window.instructions > 0


class TestEnergyModel:
    def test_breakdown_adds_up(self):
        model = EnergyModel(EnergyConfig())
        counters = PerfCounters(
            cycles=1000, instructions=500, loads=100, l1_accesses=100, l2_accesses=40, dram_accesses=10
        )
        report = model.estimate(counters)
        assert report.total_pj == pytest.approx(report.dynamic_pj + report.static_pj)
        assert report.total_uj == pytest.approx(report.total_pj / 1e6)

    def test_dram_traffic_dominates_when_present(self):
        config = EnergyConfig()
        model = EnergyModel(config)
        with_dram = model.estimate(PerfCounters(cycles=100, instructions=100, loads=50,
                                                l1_accesses=50, l2_accesses=50, dram_accesses=50))
        without_dram = model.estimate(PerfCounters(cycles=100, instructions=100, loads=50,
                                                   l1_accesses=50, l2_accesses=50, dram_accesses=0))
        assert with_dram.total_pj - without_dram.total_pj == pytest.approx(50 * config.dram_access_pj)

    def test_longer_runtime_costs_leakage(self):
        model = EnergyModel(EnergyConfig())
        short = model.estimate(PerfCounters(cycles=1000, instructions=100, loads=0))
        long = model.estimate(PerfCounters(cycles=5000, instructions=100, loads=0))
        assert long.static_pj > short.static_pj
        assert long.dynamic_pj == short.dynamic_pj


class TestReuseDistanceTracker:
    def test_cold_access_has_no_distance(self):
        tracker = ReuseDistanceTracker()
        assert tracker.record(0, 10) == -1
        assert tracker.cold_count == 1
        assert tracker.average_distance == 0.0

    def test_immediate_rereference_distance_zero(self):
        tracker = ReuseDistanceTracker()
        tracker.record(0, 10)
        assert tracker.record(0, 10) == 0

    def test_stack_distance_counts_unique_intervening_lines(self):
        tracker = ReuseDistanceTracker()
        for line in (1, 2, 3, 4):
            tracker.record(0, line)
        assert tracker.record(0, 1) == 3

    def test_per_warp_isolation(self):
        tracker = ReuseDistanceTracker()
        tracker.record(0, 1)
        tracker.record(1, 2)
        # Warp 1 never touched line 1: its access is cold.
        assert tracker.record(1, 1) == -1

    def test_reset(self):
        tracker = ReuseDistanceTracker()
        tracker.record(0, 1)
        tracker.record(0, 1)
        tracker.reset()
        assert tracker.reuse_count == 0 and tracker.cold_count == 0
