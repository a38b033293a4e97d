"""Tests for result tables, experiment plumbing and the fast integration path."""

import pytest

from repro.analysis.tables import ExperimentResult, Table
from repro.core.hardware_cost import HardwareCostModel
from repro.experiments import registry
from repro.experiments.common import ExperimentConfig


class TestTable:
    def test_add_row_validates_width(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_and_row_lookup(self):
        table = Table(title="t", columns=["name", "value"])
        table.add_row("x", 1.0)
        table.add_row("y", 2.0)
        assert table.column("value") == [1.0, 2.0]
        assert table.row_by_key("y") == ["y", 2.0]
        assert table.row_by_key("z") is None
        with pytest.raises(KeyError):
            table.column("missing")

    def test_text_and_csv_rendering(self):
        table = Table(title="demo", columns=["name", "speedup"], precision=2)
        table.add_row("ii", 1.4567)
        text = table.to_text()
        assert "demo" in text and "ii" in text and "1.46" in text
        csv = table.to_csv()
        assert csv.splitlines()[0] == "name,speedup"
        assert "1.46" in csv

    def test_as_dict_rows(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(1, 2)
        assert table.as_dict_rows() == [{"a": 1, "b": 2}]


class TestExperimentResult:
    def test_table_lookup_by_fragment(self):
        result = ExperimentResult(experiment_id="x", description="d")
        result.add_table(Table(title="Fig. 7 — IPC", columns=["a"]))
        assert result.table("ipc").title.startswith("Fig. 7")
        with pytest.raises(KeyError):
            result.table("nope")

    def test_to_text_includes_notes_and_scalars(self):
        result = ExperimentResult(experiment_id="x", description="d")
        result.scalars["k"] = 1.5
        result.add_note("a note")
        text = result.to_text()
        assert "a note" in text and "k=1.5" in text


class TestExperimentConfig:
    def test_fast_preset_is_smaller_than_full(self):
        fast, full = ExperimentConfig.fast(), ExperimentConfig.full()
        assert fast.profile_cycles <= full.profile_cycles
        assert fast.kernels_per_benchmark <= full.kernels_per_benchmark
        assert fast.cache_key != full.cache_key

    def test_with_gpu_changes_cache_key(self):
        config = ExperimentConfig.full()
        changed = config.with_gpu(config.gpu.with_l1_scale(2))
        assert changed.cache_key != config.cache_key

    def test_limited_kernels_respects_caps(self):
        from repro.workloads.registry import get_benchmark

        config = ExperimentConfig.fast()
        assert len(config.limited_kernels(get_benchmark("ii"))) == 1
        assert len(config.limited_kernels(get_benchmark("pvr"), training=True)) == 5


class TestCheapExperiments:
    """Experiments that need no simulation can run in unit-test time."""

    def test_hardware_cost_experiment_matches_model(self):
        result = registry.get("sec7i").run(ExperimentConfig.fast())
        assert result.scalars["bytes_per_sm"] == pytest.approx(HardwareCostModel().bytes_per_sm)

    def test_architecture_table_lists_baseline(self):
        result = registry.get("table03b").run(ExperimentConfig.fast())
        assert result.table("architecture").row_by_key("SMs") is not None

    def test_parameters_table_contains_paper_values(self):
        result = registry.get("table04").run(ExperimentConfig.fast())
        assert 200000 in result.table("Poise parameters").column("paper")
        # The fast preset's sampling shares of T_period, beside the paper's.
        assert "(T_warmup + T_feature) 6.0% vs 16.7%, T_search 2.0% vs 4.0%" in result.notes[0]
