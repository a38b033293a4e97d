"""Span bookkeeping and per-layer folding of the benchmark's traced runs."""

import types

import pytest

import layers
from spans import Tracer, counted, replace_function, self_times, time_by_name, traced


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_nested_decode():
    """A run_graph span that contains a decode is charged only the rest."""
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.phase("timed"):
        graph = tracer.open("gpu.run_graph")
        clock.now = 1.0
        decode = tracer.open("trace.decode")
        clock.now = 4.0
        tracer.close(decode)
        clock.now = 10.0
        tracer.close(graph)
        clock.now = 10.5
    totals = time_by_name(tracer.spans)
    assert totals["gpu.run_graph"] == pytest.approx(7.0)
    assert totals["trace.decode"] == pytest.approx(3.0)
    assert totals["bench.timed"] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 3.0, 7.0, 0], ["c", 9.0, 12.0, 0]]
    # Children cover [1, 7] and [9, 10] of the parent: 7 of its 10 seconds.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_wrappers_record_only_inside_a_phase():
    tracer = Tracer()
    seen = []
    wrapped = traced(tracer, "layer.call", lambda x: x * 2)
    tally = counted(tracer, lambda: None, lambda args, result: seen.append(result))
    assert wrapped(2) == 4 and tally() is None
    assert tracer.spans == [] and seen == []
    with tracer.phase("timed"):
        assert wrapped(3) == 6
        tally()
    assert [span[0] for span in tracer.spans] == ["bench.timed", "layer.call"]
    assert tracer.spans[1][3] == 0 and seen == [None]


def test_opaque_span_hides_inner_cycle_calls():
    tracer = Tracer()
    counters = types.SimpleNamespace(**{field: 0 for field in layers.SIM_FIELDS})

    def run_cycles(sm, budget):
        sm.counters.cycles += budget
        sm.counters.instructions += budget // 2
        return budget

    step = layers._sm_cycles(tracer, run_cycles)
    sm = types.SimpleNamespace(counters=counters)
    graph = traced(tracer, "gpu.run_graph", lambda: step(sm, 50), opaque=True)
    with tracer.phase("timed"):
        step(sm, 100)
        graph()
    names = [span[0] for span in tracer.spans]
    assert names == ["bench.timed", "gpu.cycles", "gpu.run_graph"]
    assert tracer.counts["gpu.cycles"] == 100
    assert tracer.counts["gpu.instructions"] == 50


def test_replace_function_reaches_every_importer(monkeypatch):
    def original():
        return "original"

    home = types.ModuleType("perfbench_fake_home")
    home.target = original
    importer = types.ModuleType("perfbench_fake_importer")
    importer.alias = original
    monkeypatch.setitem(__import__("sys").modules, home.__name__, home)
    monkeypatch.setitem(__import__("sys").modules, importer.__name__, importer)
    assert replace_function(home.__name__, "target", lambda fn: lambda: "wrapped")
    assert home.target() == "wrapped" and importer.alias() == "wrapped"
    assert not replace_function(home.__name__, "absent", lambda fn: fn)


def test_layer_metrics_fold_spans_into_every_named_metric():
    spans = [
        ["bench.timed", 0.0, 10.0, -1],
        ["experiments.run", 0.5, 9.5, 0],
        ["gpu.run_kernel", 1.0, 6.0, 1],
        ["gpu.cycles", 2.0, 5.0, 2],
        ["workloads.generate", 6.0, 8.0, 1],
        ["trace.family", 6.5, 7.5, 4],
    ]
    counts = {"gpu.cycles": 3000, "gpu.mshr_stall_cycles": 300, "gpu.instructions": 600,
              "workloads.program_cache_hits": 1, "workloads.program_cache_misses": 3}
    metrics = layers.layer_metrics(spans, counts, {
        "runtime.executor_attempts": 0, "runtime.executor_retries": 0,
        "runtime.executor_timeouts": 0, "tracing.overhead_s": 0.25,
    })
    assert list(metrics) == list(layers.PER_LAYER_METRICS)
    assert metrics["gpu.loop_s"] == pytest.approx(5.0)
    assert metrics["gpu.sim_cycles_per_s"] == pytest.approx(600.0)
    assert metrics["gpu.mshr_stall_frac"] == pytest.approx(0.1)
    assert metrics["workloads.generate_s"] == pytest.approx(1.0)
    assert metrics["trace.family_s"] == pytest.approx(1.0)
    assert metrics["experiments.self_s"] == pytest.approx(2.0)
    assert metrics["workloads.program_cache_hit_ratio"] == pytest.approx(0.25)
    assert metrics["other_s"] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="tracing.overhead_s"):
        layers.layer_metrics(spans, counts)
