"""Integration tests for the trace subsystem.

The load-bearing guarantee: writing a kernel's programs as a trace and
replaying it reproduces the performance counters **bit-identically** to
live generation — under plain GTO and under the model-driven Poise
controller — because a completed run issues exactly its programs.
Around that, these tests pin the adapter's flow through the profiler, the
scheme runners, the content-addressed cache, serialization, the registry
and the CLI.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from engine_conformance import simulate_calls
from repro.core.training import TrainedModel
from repro.experiments.common import (
    ExperimentConfig,
    _run_key_payload,
    clear_caches,
    get_profile,
    run_scheme_on_kernel,
)
from repro.gpu.config import baseline_config
from repro.gpu.engine import ENGINES
from repro.gpu.gpu import GPU
from repro.runtime import serialization
from repro.runtime.cache import content_key
from repro.trace.adapter import TraceKernelSpec, trace_benchmark_from_files, trace_kernel_from_file
from repro.trace.codec import write_trace
from repro.trace.families import build_trace_benchmarks, family_kernel, family_names, generate_family_programs
from repro.workloads.generator import _PROGRAM_CACHE, generate_kernel_programs
from repro.workloads.registry import TRACE_ORDER, all_benchmarks, get_benchmark, trace_benchmarks
from repro.workloads.spec import KernelSpec

#: Small and memory-sensitive enough that schemes diverge but runs take
#: fractions of a second.
TINY_KERNEL = KernelSpec(
    name="trace_tiny",
    num_warps=6,
    instructions_per_warp=400,
    instructions_per_load=3,
    dep_distance=4,
    intra_warp_fraction=0.7,
    inter_warp_fraction=0.15,
    private_lines=48,
    shared_lines=96,
    seed=11,
)


def fixed_model() -> TrainedModel:
    """Hand-written weights: Poise behaviour without the training pipeline."""
    return TrainedModel(
        alpha_weights=[0.02, -0.03, 0.05, 0.01, -0.02, 0.04, 0.60, 0.30],
        beta_weights=[0.01, -0.02, 0.03, 0.02, -0.01, 0.02, 0.30, 0.15],
        max_warps=24,
    )


def tiny_config(cache_dir) -> ExperimentConfig:
    return replace(ExperimentConfig.fast(), run_max_cycles=30_000, cache_dir=cache_dir)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


# ---------------------------------------------------------------------------
# Capture → replay bit-identity (the golden guarantee)
# ---------------------------------------------------------------------------


class TestCaptureReplay:
    @pytest.fixture(scope="class")
    def captured(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("captures") / "tiny.trc"
        programs = generate_kernel_programs(TINY_KERNEL)
        content_hash = write_trace(path, programs, meta={"kernel": TINY_KERNEL.name})
        return path, content_hash, programs

    def test_capture_records_the_full_program(self, captured):
        path, _, _ = captured
        replayed = trace_kernel_from_file(path)
        assert generate_kernel_programs(replayed) == generate_kernel_programs(TINY_KERNEL)

    @pytest.mark.parametrize("scheme", ["gto", "poise"])
    def test_counters_bit_identical_to_live_generation(self, captured, scheme, tmp_path):
        path, _, _ = captured
        config = tiny_config(tmp_path)
        model = fixed_model() if scheme == "poise" else None
        trace_spec = trace_kernel_from_file(path)
        before = simulate_calls()
        live = run_scheme_on_kernel(scheme, TINY_KERNEL, config, model=model)
        replay = run_scheme_on_kernel(scheme, trace_spec, config, model=model)
        assert simulate_calls() - before == 2  # the replay is its own run
        assert replay.counters == live.counters
        assert replay.cycles == live.cycles
        assert replay.warp_tuple == live.warp_tuple

    def test_file_backed_spec_pins_the_content_hash(self, captured):
        path, content_hash, _ = captured
        spec = trace_kernel_from_file(path)
        assert spec.trace_hash == content_hash
        assert spec.num_warps == TINY_KERNEL.num_warps

    def test_tampered_trace_refuses_to_replay(self, captured, tmp_path):
        path, _, _ = captured
        spec = trace_kernel_from_file(path)
        other = tmp_path / "other.trc"
        write_trace(other, generate_kernel_programs(TINY_KERNEL)[:2], meta={"kernel": "x"})
        swapped = replace(spec, trace_path=str(other))
        with pytest.raises(ValueError, match="does not match"):
            generate_kernel_programs(swapped)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_completed_run_issues_every_instruction_once(self, captured, engine):
        """Why a trace can be the programs themselves: a run that completes
        issues each instruction of each warp exactly once."""
        _, _, programs = captured
        result = GPU(baseline_config(), engine=engine).run_kernel(programs)
        assert result.completed
        assert result.counters.instructions == sum(len(program) for program in programs)


# ---------------------------------------------------------------------------
# Trace-native families through the whole scheme stack
# ---------------------------------------------------------------------------


def small_family_kernel(family: str) -> TraceKernelSpec:
    return family_kernel(
        family,
        f"{family}_small",
        num_warps=4,
        instructions_per_warp=300,
        seed=5,
        params=(("leaves", 512), ("matrix_lines", 16), ("table_lines", 256), ("width", 24)),
    )


class TestFamilies:
    def test_at_least_four_families_exist(self):
        assert len(family_names()) >= 4
        assert set(TRACE_ORDER) == set(name for name in family_names())

    @pytest.mark.parametrize("family", sorted({"stencil", "transpose", "gather", "treereduce", "phasemix"}))
    def test_family_generation_is_deterministic(self, family):
        spec = small_family_kernel(family)
        first = generate_family_programs(spec)
        second = generate_family_programs(spec)
        assert first == second
        assert len(first) == spec.num_warps
        assert any(instruction.is_load for program in first for instruction in program)

    def test_gather_chase_is_fully_dependent(self):
        programs = generate_family_programs(small_family_kernel("gather"))
        for program in programs:
            for instruction in program:
                if instruction.is_load:
                    assert instruction.dep_distance == 0

    def test_treereduce_produces_warp_imbalance(self):
        spec = family_kernel("treereduce", "imbalance", num_warps=8,
                             instructions_per_warp=100_000, params=(("leaves", 1024),))
        lengths = {len(program) for program in generate_family_programs(spec)}
        assert len(lengths) > 1  # warps retire at different tree depths

    @pytest.mark.parametrize("scheme", ["gto", "swl", "pcal", "poise", "static_best"])
    def test_families_run_end_to_end_on_every_scheme(self, scheme, tmp_path):
        config = tiny_config(tmp_path)
        model = fixed_model() if scheme == "poise" else None
        for family in family_names():
            spec = small_family_kernel(family)
            result = run_scheme_on_kernel(scheme, spec, config, model=model)
            assert result.cycles > 0
            assert result.counters.instructions > 0

    def test_registered_trace_suite(self):
        suite = trace_benchmarks()
        assert [benchmark.name for benchmark in suite] == TRACE_ORDER
        assert len(suite) >= 4
        for benchmark in suite:
            assert benchmark.role == "trace"
            assert benchmark.suite == "Trace"
            for kernel in benchmark.kernels:
                assert isinstance(kernel, TraceKernelSpec)
        assert set(TRACE_ORDER) <= set(all_benchmarks())
        assert get_benchmark("stencil").kernels[0].family == "stencil"
        assert build_trace_benchmarks()[0].name == TRACE_ORDER[0]


# ---------------------------------------------------------------------------
# Profiler, cache keys, serialization
# ---------------------------------------------------------------------------


class TestIntegration:
    def test_trace_kernel_flows_through_the_profiler(self, tmp_path):
        config = tiny_config(tmp_path)
        spec = small_family_kernel("phasemix")
        profile = get_profile(spec, config)
        assert profile.kernel == spec
        assert profile.ipc
        # The profile (including its trace-backed kernel) round-trips.
        restored = serialization.profile_from_dict(serialization.profile_to_dict(profile))
        assert restored.kernel == spec
        assert restored.ipc == profile.ipc

    def test_spec_payload_is_content_addressed_not_path_addressed(self, tmp_path):
        programs = generate_kernel_programs(TINY_KERNEL)
        write_trace(tmp_path / "a.trc", programs, meta={"kernel": "k"})
        write_trace(tmp_path / "b.trc", programs, meta={"kernel": "k"})
        write_trace(tmp_path / "c.trc", programs[:3], meta={"kernel": "k"})
        same_a = serialization.spec_payload(trace_kernel_from_file(tmp_path / "a.trc", name="k"))
        same_b = serialization.spec_payload(trace_kernel_from_file(tmp_path / "b.trc", name="k"))
        different = serialization.spec_payload(trace_kernel_from_file(tmp_path / "c.trc", name="k"))
        assert same_a == same_b  # same content, different path -> same key
        assert same_a != different  # different content -> different key
        assert "trace_path" not in same_a
        assert same_a["trace_hash"]

    def test_unverified_specs_fall_back_to_path_addressing(self, tmp_path):
        # Without a pinned hash the path must stay in the payload: two
        # same-shaped traces with different address streams may otherwise
        # serialise to the same cache key.
        write_trace(tmp_path / "a.trc", generate_kernel_programs(TINY_KERNEL),
                    meta={"kernel": "k"})
        write_trace(tmp_path / "b.trc",
                    generate_kernel_programs(replace(TINY_KERNEL, seed=12)),
                    meta={"kernel": "k"})
        unverified_a = serialization.spec_payload(
            trace_kernel_from_file(tmp_path / "a.trc", name="k", verify=False)
        )
        unverified_b = serialization.spec_payload(
            trace_kernel_from_file(tmp_path / "b.trc", name="k", verify=False)
        )
        assert unverified_a != unverified_b
        assert unverified_a["trace_path"]

    def test_run_cache_distinguishes_same_named_specs(self, tmp_path):
        config = tiny_config(tmp_path)
        path = tmp_path / "same_name.trc"
        write_trace(path, generate_kernel_programs(TINY_KERNEL)[:2], meta={"kernel": TINY_KERNEL.name})
        trace_spec = trace_kernel_from_file(path)
        assert trace_spec.name == TINY_KERNEL.name
        synthetic = _run_key_payload("gto", TINY_KERNEL, config, None)
        replayed = _run_key_payload("gto", trace_spec, config, None)
        assert content_key(synthetic) != content_key(replayed)

    def test_kernel_spec_from_dict_restores_trace_subclass(self):
        import dataclasses
        import json

        spec = small_family_kernel("stencil")
        # Through JSON the params tuple pairs become lists, as in a disk entry.
        decoded = json.loads(json.dumps(dataclasses.asdict(spec)))
        restored = serialization.kernel_spec_from_dict(decoded)
        assert restored == spec
        assert isinstance(restored, TraceKernelSpec)
        assert hash(restored) == hash(spec)

    def test_training_pipeline_builds_examples_from_traces(self, tmp_path):
        from repro.workloads.spec import BenchmarkSpec

        config = tiny_config(tmp_path)
        spec = small_family_kernel("phasemix")
        benchmark = BenchmarkSpec(
            name="trace_training", suite="Trace", role="trace", kernels=[spec]
        )
        pipeline = config.training_pipeline()
        example = pipeline.build_example(benchmark, spec)
        assert example.kernel_name == spec.name
        assert example.max_warps == spec.num_warps
        assert len(example.features.as_list()) > 0

    def test_trace_benchmark_from_files(self, tmp_path):
        paths = []
        for index in range(2):
            path = tmp_path / f"part{index}.trc"
            write_trace(path, generate_kernel_programs(TINY_KERNEL)[: index + 2],
                        meta={"kernel": f"part{index}"})
            paths.append(path)
        benchmark = trace_benchmark_from_files("captured_pair", paths)
        assert benchmark.role == "trace"
        assert benchmark.num_kernels == 2
        assert [kernel.name for kernel in benchmark.kernels] == ["part0", "part1"]


# ---------------------------------------------------------------------------
# The bounded program cache (satellite)
# ---------------------------------------------------------------------------


class TestBoundedProgramCache:
    def test_capacity_is_enforced(self):
        _PROGRAM_CACHE.clear()
        for seed in range(_PROGRAM_CACHE.capacity + 4):
            generate_kernel_programs(
                KernelSpec(name=f"evict{seed}", num_warps=1, instructions_per_warp=30, seed=seed)
            )
        assert len(_PROGRAM_CACHE) == _PROGRAM_CACHE.capacity
        _PROGRAM_CACHE.clear()

    def test_synthetic_specs_hit_the_cache(self):
        _PROGRAM_CACHE.clear()
        spec = KernelSpec(name="cached", num_warps=2, instructions_per_warp=40)
        first = generate_kernel_programs(spec)
        assert len(_PROGRAM_CACHE) == 1
        assert generate_kernel_programs(spec) == first
        _PROGRAM_CACHE.clear()

    def test_hits_share_the_programs_without_a_copy(self):
        """Every caller gets the cached program objects themselves, so what
        one run generated is there for the next."""
        _PROGRAM_CACHE.clear()
        spec = KernelSpec(name="shared", num_warps=2, instructions_per_warp=1000)
        first = generate_kernel_programs(spec)
        first[0][700]  # generates warp 0 through the chunk holding 700
        second = generate_kernel_programs(spec)
        assert second is not first  # a fresh outer list: callers may edit it
        assert all(a is b for a, b in zip(first, second))
        assert len(second[0].filled) > 700
        assert len(second[1].filled) == 0
        _PROGRAM_CACHE.clear()

    def test_trace_replay_bypasses_the_cache(self, tmp_path):
        _PROGRAM_CACHE.clear()
        path = tmp_path / "bypass.trc"
        write_trace(path, generate_kernel_programs(TINY_KERNEL), meta={"kernel": "bypass"})
        _PROGRAM_CACHE.clear()
        generate_kernel_programs(trace_kernel_from_file(path))
        generate_kernel_programs(small_family_kernel("gather"))
        assert len(_PROGRAM_CACHE) == 0  # trace-backed programs are never pinned
        _PROGRAM_CACHE.clear()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestTraceCLI:
    def _main(self, argv, capsys):
        from repro.cli.main import main

        status = main(argv)
        return status, capsys.readouterr().out

    def test_gen_info_replay_workflow(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_dir = tmp_path / "traces"
        status, output = self._main(
            ["trace", "capture", "gather", "--out", str(out_dir)], capsys
        )
        assert status == 0
        trace_file = out_dir / "gather_k0.trc"
        assert trace_file.exists()
        assert "gather_k0" in output

        status, output = self._main(["trace", "info", str(trace_file)], capsys)
        assert status == 0
        assert "content hash" in output
        assert "source:       capture (gather)" in output  # the header names the family

        status, output = self._main(
            ["trace", "replay", str(trace_file), "--schemes", "gto", "--fast"], capsys
        )
        assert status == 0
        assert "gather_k0" in output and "gto" in output

    def test_capture_verify_roundtrip(self, tmp_path, capsys, monkeypatch):
        # The CLI captures registered benchmarks; register-free capture is
        # covered above, so drive the smallest registered one.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        status, output = self._main(
            ["trace", "capture", "mvt", "--out", str(tmp_path), "--verify"], capsys
        )
        assert status == 0
        assert "bit-identical" in output
        assert (tmp_path / "mvt_k0.trc").exists()

    def test_capture_writes_pinned_bytes(self, tmp_path, capsys, monkeypatch):
        """The file is mvt's programs plus its metadata, byte for byte."""
        import hashlib

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert self._main(["trace", "capture", "mvt", "--out", str(tmp_path)], capsys)[0] == 0
        assert hashlib.sha256((tmp_path / "mvt_k0.trc").read_bytes()).hexdigest() == (
            "c487638d6d931bf7b90d95537027a07cf1be6de9857fe3c592b7cba02fa5d6f5"
        )

    def test_capture_verifies_the_longest_kernels_to_completion(
        self, tmp_path, capsys, monkeypatch
    ):
        """stencil and transpose need about 16.5 and 18.5 cycles per
        instruction; the default budget runs both to completion."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        status, output = self._main(
            ["trace", "capture", "stencil", "transpose", "--out", str(tmp_path), "--verify"],
            capsys,
        )
        assert status == 0
        cycles = {
            row.split()[0]: int(row.split()[1])
            for row in output.splitlines()
            if row.startswith(("stencil_k0", "transpose_k0"))
        }
        assert cycles == {"stencil_k0": 2_368_638, "transpose_k0": 2_663_605}
        assert output.count("bit-identical") == 2

    def test_capture_marks_a_run_the_budget_stops_truncated(self, tmp_path, capsys):
        status, output = self._main(
            ["trace", "capture", "mvt", "--out", str(tmp_path), "--verify",
             "--max-cycles", "2000"],
            capsys,
        )
        assert status == 0
        assert "truncated" in output and "bit-identical" not in output

    def test_info_reports_invalid_files(self, tmp_path, capsys):
        bad = tmp_path / "bad.trc"
        bad.write_bytes(b"junk")
        status = self._main(["trace", "info", str(bad)], capsys)[0]
        assert status == 1

    def test_list_workloads_flag(self, capsys):
        status, output = self._main(["list", "--workloads"], capsys)
        assert status == 0
        assert "Registered workloads" in output
        assert "trace-native" in output
        assert "stencil" in output
        assert "Registered experiments" in output
