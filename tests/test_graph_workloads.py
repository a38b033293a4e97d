"""Multi-SM chips and DAG-structured workloads.

Covers the multi-SM / kernel-graph subsystem end to end:

* :class:`~repro.workloads.graph.KernelGraph` validation (duplicate names,
  unknown edges, self-edges, cycles) and the standard mix shapes;
* engine conformance — the legacy N-SM chip is the oracle and fast must
  reproduce it bit for bit, both for plain multi-SM kernel runs and
  for whole DAG schedules (Hypothesis over small graphs, ``num_sms`` ∈
  {1, 2, 4});
* the single-SM escape hatch: ``num_sms=1`` replays the committed golden
  fixture byte-identically under every engine, so the chip model cannot
  perturb the seed's counters;
* measurable contention: a memory-bound parallel mix on a 2-SM chip must
  show *sub-linear* aggregate IPC versus two isolated runs (the shared
  L2/DRAM busy-servers are actually shared);
* graph capture/replay through the POISETRC codec (bit-identical replay,
  tamper detection);
* cache-key hygiene: every ``GPUConfig`` field — present and future —
  must perturb ``ExperimentConfig.cache_key`` (the guard the field-digest
  in ``cache_key`` exists to satisfy), every ``ExperimentConfig`` field
  must move exactly the result-cache payloads that read it, and graph runs
  must hit their own result caches;
* the ``num_sms`` / ``kernel_mix`` scenario axes (validation, config
  plumbing, override parsing, sweep metrics).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

from engine_conformance import (
    CANDIDATE_ENGINES,
    NO_SHRINK,
    SM_COUNTS,
    assert_conformance,
    assert_graph_conformance,
    fresh_runs_on,
    kernel_specs,
    multi_sm_archs,
    run_graph_snapshot,
    small_graphs,
)
from repro.core.training import TrainedModel
from repro.experiments import common, fig04_hit_rate_breakdown
from repro.experiments.common import (
    ExperimentConfig,
    _graph_key_payload,
    _model_key_payload,
    _run_key_payload,
    mix_graph_for_benchmark,
    run_graph_for_config,
    run_mix_on_benchmark,
)
from repro.gpu.config import GPUConfig, baseline_config
from repro.gpu.engine import ENGINE_LEGACY, ENGINES
from repro.gpu.gpu import GPU
from repro.runtime import serialization
from repro.scenarios.grid import ScenarioError, ScenarioGrid, ScenarioPoint, canonical_axis_value
from repro.scenarios.library import parse_override_value
from repro.trace.codec import TraceFormatError
from repro.trace.graphio import capture_graph_to_dir, load_graph_trace
from repro.workloads.generator import generate_kernel_programs
from repro.workloads.graph import (
    MIX_SHAPES,
    GraphError,
    KernelGraph,
    mix_graph,
    shaped_graph,
)
from repro.workloads.spec import KernelSpec


def _spec(name: str, seed: int = 11, **changes) -> KernelSpec:
    base = dict(
        name=name,
        num_warps=6,
        instructions_per_warp=240,
        instructions_per_load=3,
        dep_distance=2,
        intra_warp_fraction=0.5,
        inter_warp_fraction=0.1,
        private_lines=24,
        shared_lines=48,
        seed=seed,
    )
    base.update(changes)
    return KernelSpec(**base)


def _chip_config(num_sms: int = 2, **overrides) -> GPUConfig:
    return baseline_config(max_cycles=60_000, num_sms=num_sms, **overrides)


# ---------------------------------------------------------------------------
# KernelGraph validation and shapes
# ---------------------------------------------------------------------------

class TestKernelGraph:
    def test_duplicate_node_names_rejected(self):
        with pytest.raises(GraphError, match="duplicate node names"):
            KernelGraph(nodes=(_spec("a"), _spec("a")))

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(GraphError, match="unknown node"):
            KernelGraph(nodes=(_spec("a"), _spec("b")), edges=(("a", "zz"),))

    def test_self_edge_rejected(self):
        with pytest.raises(GraphError, match="self-edge"):
            KernelGraph(nodes=(_spec("a"), _spec("b")), edges=(("a", "a"),))

    def test_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            KernelGraph(
                nodes=(_spec("a"), _spec("b"), _spec("c")),
                edges=(("a", "b"), ("b", "c"), ("c", "a")),
            )

    def test_topo_order_prefers_node_position(self):
        graph = KernelGraph(
            nodes=(_spec("c"), _spec("a"), _spec("b")),
            edges=(("c", "b"),),
        )
        # 'c' and 'a' are both ready; 'c' comes first in the node tuple.
        assert graph.topo_order() == ("c", "a", "b")

    @pytest.mark.parametrize("shape,expected", [
        ("chain", (("a", "b"), ("b", "c"))),
        ("fanout", (("a", "b"), ("a", "c"))),
        ("diamond", (("a", "b"), ("b", "c"))),
        ("parallel", ()),
    ])
    def test_shapes_three_nodes(self, shape, expected):
        graph = shaped_graph((_spec("a"), _spec("b"), _spec("c")), shape)
        assert graph.edges == expected

    def test_diamond_four_nodes(self):
        graph = shaped_graph((_spec("a"), _spec("b"), _spec("c"), _spec("d")), "diamond")
        assert graph.edges == (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))

    def test_mix_graph_pads_single_kernel(self):
        graph = mix_graph([_spec("solo", seed=5)], "chain")
        assert len(graph.nodes) == 2
        assert graph.node_names == ("solo", "solo_mix0")
        assert graph.nodes[1].seed == 5 + 101
        assert graph.edges == (("solo", "solo_mix0"),)

    def test_mix_graph_rejects_unknown_shape(self):
        with pytest.raises(GraphError, match="unknown kernel mix"):
            mix_graph([_spec("a")], "ring")

    def test_mix_graph_rejects_empty(self):
        with pytest.raises(GraphError, match="at least one kernel"):
            mix_graph([], "chain")

    def test_payload_is_content_identity(self):
        graph = shaped_graph((_spec("a"), _spec("b")), "chain", name="g")
        same = shaped_graph((_spec("a"), _spec("b")), "chain", name="g")
        different = shaped_graph((_spec("a"), _spec("b", seed=99)), "chain", name="g")
        assert graph.payload() == same.payload()
        assert graph.payload() != different.payload()


# ---------------------------------------------------------------------------
# Engine conformance: N-SM chips and DAG schedules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("num_sms", [2, 4])
def test_chip_engines_bit_identical(num_sms):
    """The legacy N-SM chip is the oracle; fast must reproduce every
    counter of a plain kernel run on a shared-memory chip."""
    spec = _spec("chipk", seed=23, num_warps=8, instructions_per_warp=400)
    assert_conformance(
        _chip_config(num_sms=num_sms),
        generate_kernel_programs(spec),
        max_cycles=40_000,
    )


@settings(max_examples=8, deadline=None, phases=NO_SHRINK)
@given(spec=kernel_specs, config=multi_sm_archs)
def test_chip_conformance_fuzzed(spec, config):
    """Hypothesis sweep: random kernels on random small chips (num_sms ∈
    {1, 2, 4}, varied quanta) — all engines bit-identical to legacy."""
    assert_conformance(config, generate_kernel_programs(spec), max_cycles=15_000)


def _diamond() -> KernelGraph:
    return shaped_graph(
        (_spec("a", seed=3), _spec("b", seed=4), _spec("c", seed=5), _spec("d", seed=6)),
        "diamond",
        name="conf-diamond",
    )


def test_graph_engines_bit_identical():
    """A diamond DAG on a 2-SM chip: schedule, per-node counters and
    aggregate counters must match the legacy oracle exactly."""
    assert_graph_conformance(_chip_config(num_sms=2), _diamond())


@settings(max_examples=6, deadline=None, phases=NO_SHRINK)
@given(graph=small_graphs, config=multi_sm_archs)
def test_graph_conformance_fuzzed(graph, config):
    """Hypothesis sweep: random small DAGs on random chips — the whole
    GraphRunResult (schedule included) must be engine-invariant."""
    assert_graph_conformance(config, graph, max_cycles=10_000)


def test_graph_run_is_deterministic():
    """Two identical runs produce byte-identical snapshots (no hidden
    global state leaks across GPU instances)."""
    graph = shaped_graph((_spec("a", seed=9), _spec("b", seed=10)), "parallel")
    config = _chip_config(num_sms=2)
    first = run_graph_snapshot("fast", config, graph)
    second = run_graph_snapshot("fast", config, graph)
    assert first == second


def test_graph_schedule_respects_dependencies():
    """In a chain, a successor never starts before its predecessor ends;
    in a parallel mix on 2 SMs, both nodes start together at cycle 0."""
    kernels = (_spec("a", seed=9), _spec("b", seed=10))
    config = _chip_config(num_sms=2)

    chain = GPU(config).run_graph(shaped_graph(kernels, "chain"))
    assert chain.completed
    spans = {entry.name: entry for entry in chain.schedule}
    assert spans["b"].start_cycle >= spans["a"].end_cycle

    both = GPU(config).run_graph(shaped_graph(kernels, "parallel"))
    assert both.completed
    starts = sorted(entry.start_cycle for entry in both.schedule)
    slots = sorted(entry.sm_slot for entry in both.schedule)
    assert starts == [0, 0]
    assert slots == [0, 1]
    # Co-residency: the parallel makespan beats running the chain serially.
    assert both.makespan < chain.makespan


def test_aggregate_counters_sum_nodes():
    graph = shaped_graph((_spec("a", seed=9), _spec("b", seed=10)), "parallel")
    result = GPU(_chip_config(num_sms=2)).run_graph(graph)
    total = sum(node.counters.instructions for node in result.node_results.values())
    assert result.aggregate.instructions == total
    assert result.aggregate_ipc == pytest.approx(total / result.makespan)


# ---------------------------------------------------------------------------
# The single-SM escape hatch: golden fixture survives under num_sms=1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
def test_golden_fixture_survives_num_sms_one(engine, tmp_path, monkeypatch):
    """An *explicit* ``num_sms=1`` replay of the committed golden fixture
    is byte-identical under every engine — the chip-model PR cannot have
    perturbed the seed's single-SM counters (the fixture itself is
    unchanged)."""
    from test_golden_counters import (
        FIXTURE_PATH,
        GOLDEN_KERNEL,
        GOLDEN_SCHEMES,
        _replay_schemes,
        golden_config,
    )

    fixture = json.loads(FIXTURE_PATH.read_text())
    config = golden_config(tmp_path / "cache")
    config = config.with_gpu(replace(config.gpu, num_sms=1))
    with fresh_runs_on(engine, monkeypatch, runs=len(GOLDEN_SCHEMES)):
        replay = _replay_schemes(GOLDEN_KERNEL, config, GOLDEN_SCHEMES)
    assert replay == fixture["schemes"], (
        f"num_sms=1 drifted from the committed golden fixture under {engine!r}"
    )


# ---------------------------------------------------------------------------
# Contention is measurable: sub-linear aggregate IPC on a shared memory
# ---------------------------------------------------------------------------

def test_parallel_mix_shows_sublinear_aggregate_ipc():
    """Two memory-bound low-reuse kernels co-resident on a 2-SM chip must
    *not* double throughput: the shared L2/DRAM busy-servers serialize the
    interleaved miss streams, so aggregate IPC stays well below 2× a solo
    run.  (Reuse-heavy kernels would instead *benefit* from a warmed shared
    L2 — low reuse isolates the bandwidth bottleneck.)"""
    def memory_bound(name: str, seed: int) -> KernelSpec:
        return _spec(
            name,
            seed=seed,
            num_warps=12,
            instructions_per_warp=600,
            instructions_per_load=2,
            intra_warp_fraction=0.1,
            inter_warp_fraction=0.05,
            private_lines=400,
            shared_lines=2048,
        )

    solo_config = baseline_config(max_cycles=120_000, num_sms=1)
    solo = GPU(solo_config).run_kernel(
        generate_kernel_programs(memory_bound("mb0", seed=31)), max_cycles=120_000
    )
    assert solo.completed
    solo_ipc = solo.counters.instructions / solo.cycles

    chip_config = baseline_config(max_cycles=120_000, num_sms=2)
    pair = GPU(chip_config).run_graph(
        shaped_graph((memory_bound("mb0", seed=31), memory_bound("mb1", seed=32)), "parallel"),
        max_cycles=240_000,
    )
    assert pair.completed
    ratio = pair.aggregate_ipc / (2 * solo_ipc)
    assert ratio < 0.75, (
        f"expected sub-linear scaling under shared-memory contention, got "
        f"aggregate IPC {pair.aggregate_ipc:.4f} = {ratio:.2%} of 2x solo "
        f"({solo_ipc:.4f})"
    )
    # ...and the contention is visible in latency too: the co-resident AML
    # exceeds the solo AML.
    assert pair.aggregate.aml > solo.counters.aml


# ---------------------------------------------------------------------------
# Graph capture/replay through the POISETRC codec
# ---------------------------------------------------------------------------

class TestGraphTrace:
    def _graph(self) -> KernelGraph:
        return shaped_graph(
            (_spec("ga", seed=41), _spec("gb", seed=42)), "chain", name="trc-chain"
        )

    def test_roundtrip_bit_identical(self, tmp_path):
        config = _chip_config(num_sms=2)
        captured = GPU(config).run_graph(self._graph())
        assert captured.completed
        manifest_path = capture_graph_to_dir(self._graph(), tmp_path)
        assert manifest_path.name == "graph.json"
        replayed_graph = load_graph_trace(tmp_path)
        assert replayed_graph.name == "trc-chain"
        assert replayed_graph.node_names == ("ga", "gb")
        assert replayed_graph.edges == (("ga", "gb"),)
        for engine in ("fast", ENGINE_LEGACY):
            replay = GPU(config).run_graph(replayed_graph, engine=engine)
            assert replay.makespan == captured.makespan
            assert [e.as_dict() for e in replay.schedule] == [
                e.as_dict() for e in captured.schedule
            ]
            for name, node in captured.node_results.items():
                assert (
                    serialization.counters_to_dict(replay.node_results[name].counters)
                    == serialization.counters_to_dict(node.counters)
                ), f"node {name!r} drifted on graph-trace replay under {engine!r}"

    def test_tampered_trace_detected(self, tmp_path):
        capture_graph_to_dir(self._graph(), tmp_path)
        manifest = json.loads((tmp_path / "graph.json").read_text())
        # Swap one node's trace file for the other's: hashes no longer match.
        a, b = manifest["nodes"][0]["trace"], manifest["nodes"][1]["trace"]
        (tmp_path / a).write_bytes((tmp_path / b).read_bytes())
        with pytest.raises(TraceFormatError, match="not match"):
            load_graph_trace(tmp_path)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="no graph.json"):
            load_graph_trace(tmp_path)


# ---------------------------------------------------------------------------
# Cache-key hygiene
# ---------------------------------------------------------------------------

def _perturbed(value):
    """A type-appropriate different value (recursing into one leaf of a
    nested config dataclass)."""
    if dataclasses.is_dataclass(value):
        for leaf in dataclasses.fields(value):
            try:
                return dataclasses.replace(
                    value, **{leaf.name: _perturbed(getattr(value, leaf.name))}
                )
            except ValueError:
                continue  # leaf perturbation violated validation; try next
        raise AssertionError(f"no perturbable leaf in {value!r}")
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 if value else 1
    if isinstance(value, str):
        return value + "_x"
    if isinstance(value, tuple) and value:
        return (_perturbed(value[0]),) + value[1:]
    if isinstance(value, Path):
        return value / "x"
    if value is None:
        return 0.5
    raise AssertionError(f"don't know how to perturb {value!r}")


def test_every_gpu_field_perturbs_cache_key(tmp_path):
    """Any change to any ``GPUConfig`` field — including ones added after
    this test was written — must change ``ExperimentConfig.cache_key``, or
    stale disk-cache entries would be served across the change."""
    base = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    for field in dataclasses.fields(GPUConfig):
        perturbed_gpu = dataclasses.replace(
            base.gpu, **{field.name: _perturbed(getattr(base.gpu, field.name))}
        )
        perturbed = base.with_gpu(perturbed_gpu)
        assert perturbed.cache_key != base.cache_key, (
            f"GPUConfig.{field.name} does not perturb ExperimentConfig.cache_key"
        )
        assert serialization.gpu_payload(perturbed_gpu) != serialization.gpu_payload(base.gpu), (
            f"GPUConfig.{field.name} does not perturb gpu_payload"
        )


_MEMO_SPEC = _spec("memo_kernel")
_MEMO_GRAPH = mix_graph([_MEMO_SPEC, _MEMO_SPEC.variant("b", seed=6)], "chain", name="memo")
_MEMO_MODEL = TrainedModel(alpha_weights=[0.5], beta_weights=[0.25], max_warps=24)

def _measurement_payload(measure):
    """The payload a one-kernel measurement keys its cache entry by: ``measure()``
    runs with the result cache replaced by a probe that only records it."""
    payloads = []
    with mock.patch.object(
        common, "_cached", lambda payload, *args, **kwargs: payloads.append(payload)
    ):
        measure()
    (payload,) = payloads
    return payload


#: Each result-cache kind's payload under a config (fixed kernel, graph, model).
PAYLOADS = {
    "profile": lambda config: _measurement_payload(
        lambda: common.get_profile(_MEMO_SPEC, config)
    ),
    "run": lambda config: _run_key_payload("poise", _MEMO_SPEC, config, _MEMO_MODEL),
    "graph-run": lambda config: _graph_key_payload(_MEMO_GRAPH, config),
    "model": lambda config: _model_key_payload(config, None),
    "pbest": lambda config: _measurement_payload(
        lambda: common.get_pbest(_MEMO_SPEC, config)
    ),
    "features": lambda config: _measurement_payload(
        lambda: common.get_features(_MEMO_SPEC, config)
    ),
    "hit-breakdown": lambda config: _measurement_payload(
        lambda: fig04_hit_rate_breakdown._measure(config, "ii")
    ),
}

#: The payload kinds each ``ExperimentConfig`` field must change.
READS = {
    "gpu": {"profile", "run", "graph-run", "model", "pbest", "features", "hit-breakdown"},
    "profile_cycles": {"profile", "run", "model", "pbest", "hit-breakdown"},
    "profile_warmup": {"profile", "run", "model", "hit-breakdown"},
    "profile_n_step": {"profile", "run", "model"},
    "profile_p_step": {"profile", "run", "model"},
    "run_max_cycles": {"run", "graph-run"},
    "poise_params": {"run", "model"},
    "training_kernels_per_benchmark": {"model"},
    "training_min_speedup": {"model"},
    "training_min_hit_rate": {"model"},
}

#: Fields no payload reads, and why that is safe.
UNKEYED = {
    "kernels_per_benchmark": "chooses which kernels run; each run's payload names its spec",
    "model_path": "a named model file is read before the cache, never through it",
    "cache_dir": "where entries live, not what they hold",
    "label": "labels artifacts only",
}


def test_every_experiment_config_field_moves_exactly_the_payloads_that_read_it(tmp_path):
    """Any ``ExperimentConfig`` field — including ones added after this test
    was written — must change the result-cache payload of every kind that
    reads it and of no other, or be listed in ``UNKEYED`` with a reason.
    Every kind the result cache stores is checked."""
    assert set(PAYLOADS) == set(common._CODECS)
    base = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    names = {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert names == set(READS) | set(UNKEYED), (
        "classify every ExperimentConfig field in READS or UNKEYED: "
        f"{sorted(names ^ (set(READS) | set(UNKEYED)))}"
    )
    for field in dataclasses.fields(ExperimentConfig):
        changed = replace(base, **{field.name: _perturbed(getattr(base, field.name))})
        moved = {kind for kind, payload in PAYLOADS.items() if payload(changed) != payload(base)}
        assert moved == READS.get(field.name, set()), field.name


@pytest.mark.parametrize("window", ["t_warmup", "t_feature"])
def test_feature_window_moves_the_features_payload(tmp_path, window):
    """The feature-sampling window is Poise's ``t_warmup``/``t_feature``:
    changing either moves the feature vectors as well as the runs and the
    model (the generic ``poise_params`` perturbation above changes only
    the scoring weights, which no feature vector reads)."""
    base = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    params = base.poise_params
    changed = base.with_poise_params(replace(params, **{window: getattr(params, window) + 1}))
    moved = {kind for kind, payload in PAYLOADS.items() if payload(changed) != payload(base)}
    assert moved == {"run", "model", "features"}


def test_graph_run_caches_hit(tmp_path):
    """A repeated graph run must be served from the in-memory cache, and a
    cold process-equivalent (cleared memory cache) from the disk cache —
    both bit-identical to the live run."""
    from repro.experiments.common import _MEMO, clear_caches
    from repro.runtime.cache import content_key

    config = replace(
        ExperimentConfig.fast(),
        cache_dir=tmp_path,
        gpu=replace(ExperimentConfig.fast().gpu, num_sms=2),
    )
    graph = mix_graph_for_benchmark("gather", config, "parallel")
    clear_caches()
    live = run_graph_for_config(graph, config)
    assert content_key(_graph_key_payload(graph, config)) in _MEMO, (
        "graph run did not populate the in-memory cache"
    )
    warm = run_graph_for_config(graph, config)
    assert warm is live  # in-memory hit returns the same object
    clear_caches()
    disk = run_graph_for_config(graph, config)
    assert serialization.graph_result_to_dict(disk) == serialization.graph_result_to_dict(live)


def test_num_sms_changes_graph_cache_key(tmp_path):
    """The same graph on a different chip width must never share a cache
    entry: the disk payloads must differ in their gpu section."""
    from repro.experiments.common import _graph_key_payload

    base = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    two = base.with_gpu(replace(base.gpu, num_sms=2))
    graph = mix_graph_for_benchmark("gather", base, "chain")
    assert _graph_key_payload(graph, base) != _graph_key_payload(graph, two)
    assert base.cache_key != two.cache_key


# ---------------------------------------------------------------------------
# Scenario axes: num_sms and kernel_mix
# ---------------------------------------------------------------------------

class TestScenarioAxes:
    def test_canonical_values(self):
        assert canonical_axis_value("num_sms", None) is None
        assert canonical_axis_value("num_sms", 4) == 4
        assert canonical_axis_value("kernel_mix", None) is None
        for shape in MIX_SHAPES:
            assert canonical_axis_value("kernel_mix", shape) == shape

    def test_invalid_values_rejected(self):
        with pytest.raises(ScenarioError):
            canonical_axis_value("num_sms", 0)
        with pytest.raises(ScenarioError):
            canonical_axis_value("kernel_mix", "ring")

    def test_kernel_mix_requires_gto(self):
        with pytest.raises(ScenarioError, match="kernel_mix"):
            ScenarioGrid(
                "bad",
                {
                    "scheme": ("poise",),
                    "benchmark": ("gather",),
                    "kernel_mix": ("chain",),
                },
            )
        # gto-only grids (and all-None mix axes) are fine.
        ScenarioGrid(
            "ok",
            {"scheme": ("gto",), "benchmark": ("gather",), "kernel_mix": ("chain",)},
        )
        ScenarioGrid(
            "ok2",
            {"scheme": ("poise",), "benchmark": ("gather",), "kernel_mix": (None,)},
        )

    def test_point_config_applies_num_sms(self):
        point = ScenarioPoint(scheme="gto", benchmark="gather", num_sms=2)
        config = point.experiment_config(ExperimentConfig.fast())
        assert config.gpu.num_sms == 2
        default = ScenarioPoint(scheme="gto", benchmark="gather")
        assert default.experiment_config(ExperimentConfig.fast()).gpu.num_sms == 1

    def test_override_parsing(self):
        assert parse_override_value("num_sms", "4") == 4
        assert parse_override_value("num_sms", "none") is None
        assert parse_override_value("kernel_mix", "chain") == "chain"
        with pytest.raises(ScenarioError):
            parse_override_value("num_sms", "wide")

    def test_point_ids_distinguish_mix_points(self):
        plain = ScenarioPoint(scheme="gto", benchmark="gather")
        mixed = ScenarioPoint(scheme="gto", benchmark="gather", kernel_mix="chain", num_sms=2)
        assert plain.point_id != mixed.point_id
        assert "num_sms=2" in mixed.describe()
        assert "kernel_mix=chain" in mixed.describe()


def test_mix_outcome_metrics(tmp_path):
    """``run_mix_on_benchmark`` produces a sweep-compatible outcome whose
    graph telemetry flows into the point metrics."""
    from repro.scenarios.runner import evaluate_point, outcome_metrics

    config = replace(ExperimentConfig.fast(), cache_dir=tmp_path)
    outcome = run_mix_on_benchmark(
        "gather", config.with_gpu(replace(config.gpu, num_sms=2)), "parallel"
    )
    graph_info = outcome.telemetry["graph"]
    assert graph_info["mix"] == "parallel"
    assert graph_info["num_sms"] == 2
    assert graph_info["makespan"] > 0
    assert outcome.ipc > 0

    point = ScenarioPoint(
        scheme="gto", benchmark="gather", num_sms=2, kernel_mix="parallel"
    )
    metrics = evaluate_point(point, config)
    assert metrics["graph"]["mix"] == "parallel"
    assert metrics["graph"]["num_sms"] == 2
    assert metrics["graph"]["schedule"], "schedule telemetry missing"


def test_table03b_reports_simulated_sm_count():
    from repro.experiments.table03b_architecture import Table03bArchitecture

    base = ExperimentConfig.fast()
    result = Table03bArchitecture().build(base)
    sms_row = [row for row in result.tables[0].rows if row[0] == "SMs"][0]
    assert "1 simulated" in sms_row[2]

    chip = Table03bArchitecture().build(base.with_gpu(replace(base.gpu, num_sms=2)))
    sms_row = [row for row in chip.tables[0].rows if row[0] == "SMs"][0]
    assert "2 simulated, sharing L2/DRAM" in sms_row[2]
