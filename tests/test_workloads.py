"""Unit tests for workload specs, the trace generator and the registry."""

import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gpu.config import baseline_config
from repro.gpu.isa import Opcode, alu
from repro.profiling.profiler import KernelProfiler
from repro.workloads import generator
from repro.workloads.generator import (
    WarpProgram,
    generate_kernel_programs,
    generate_warp_program,
)
from repro.workloads.registry import (
    EVALUATION_ORDER,
    TRAINING_ORDER,
    all_benchmarks,
    compute_intensive_benchmarks,
    evaluation_benchmarks,
    get_benchmark,
    training_benchmarks,
)
from repro.workloads.spec import BenchmarkSpec, KernelSpec


class TestKernelSpec:
    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(name="bad", intra_warp_fraction=1.5)
        with pytest.raises(ValueError):
            KernelSpec(name="bad", intra_warp_fraction=0.7, inter_warp_fraction=0.5)

    def test_positive_size_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(name="bad", private_lines=0)
        with pytest.raises(ValueError):
            KernelSpec(name="bad", num_warps=0)
        with pytest.raises(ValueError):
            KernelSpec(name="bad", instructions_per_load=0)

    def test_rejects_negative_dep_distance(self):
        with pytest.raises(ValueError, match="dep_distance"):
            KernelSpec(name="bad", dep_distance=-1)

    def test_rejects_negative_program_length(self):
        with pytest.raises(ValueError, match="instructions_per_warp"):
            KernelSpec(name="bad", instructions_per_warp=-1)
        empty = KernelSpec(name="empty", instructions_per_warp=0)
        assert generate_warp_program(empty, 0) == []

    def test_streaming_fraction_is_complement(self):
        spec = KernelSpec(name="k", intra_warp_fraction=0.6, inter_warp_fraction=0.3)
        assert spec.streaming_fraction == pytest.approx(0.1)

    def test_variant_overrides_and_renames(self):
        base = KernelSpec(name="base", private_lines=100)
        variant = base.variant("v1", private_lines=50)
        assert variant.name == "base_v1"
        assert variant.private_lines == 50
        assert base.private_lines == 100


class TestBenchmarkSpec:
    def test_requires_kernels(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(name="b", suite="s", kernels=[])

    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(name="b", suite="s", kernels=[KernelSpec(name="k")], role="other")

    def test_kernel_lookup(self):
        benchmark = BenchmarkSpec(name="b", suite="s", kernels=[KernelSpec(name="k0")])
        assert benchmark.kernel("k0").name == "k0"
        assert benchmark.kernel("missing") is None


class TestGenerator:
    def test_program_length_matches_spec(self):
        spec = KernelSpec(name="k", instructions_per_warp=500)
        program = generate_warp_program(spec, warp_id=0)
        assert len(program) == 500

    def test_load_density_matches_instructions_per_load(self):
        spec = KernelSpec(name="k", instructions_per_warp=3000, instructions_per_load=3)
        program = generate_warp_program(spec, warp_id=0)
        loads = sum(1 for instruction in program if instruction.is_load)
        assert loads == pytest.approx(1000, rel=0.05)

    def test_generation_is_deterministic(self):
        spec = KernelSpec(name="k", seed=7)
        assert generate_warp_program(spec, 3) == generate_warp_program(spec, 3)

    def test_different_warps_use_disjoint_private_regions(self):
        spec = KernelSpec(
            name="k", intra_warp_fraction=1.0, inter_warp_fraction=0.0, private_lines=16
        )
        addresses_0 = {i.line_addr for i in generate_warp_program(spec, 0) if i.is_load}
        addresses_1 = {i.line_addr for i in generate_warp_program(spec, 1) if i.is_load}
        assert addresses_0.isdisjoint(addresses_1)

    def test_shared_region_is_common_across_warps(self):
        spec = KernelSpec(
            name="k", intra_warp_fraction=0.0, inter_warp_fraction=1.0, shared_lines=32
        )
        addresses_0 = {i.line_addr for i in generate_warp_program(spec, 0) if i.is_load}
        addresses_1 = {i.line_addr for i in generate_warp_program(spec, 1) if i.is_load}
        assert addresses_0 & addresses_1

    def test_private_footprint_bounded_by_spec(self):
        spec = KernelSpec(
            name="k", intra_warp_fraction=1.0, inter_warp_fraction=0.0,
            private_lines=24, instructions_per_warp=2000,
        )
        addresses = {i.line_addr for i in generate_warp_program(spec, 0) if i.is_load}
        assert len(addresses) <= 24

    def test_streaming_addresses_never_repeat(self):
        spec = KernelSpec(
            name="k", intra_warp_fraction=0.0, inter_warp_fraction=0.0,
            instructions_per_warp=1500, instructions_per_load=3,
        )
        loads = [i.line_addr for i in generate_warp_program(spec, 0) if i.is_load]
        assert len(loads) == len(set(loads))

    def test_dep_distance_capped_below_group_size(self):
        spec = KernelSpec(name="k", instructions_per_load=3, dep_distance=50)
        program = generate_warp_program(spec, 0)
        for instruction in program:
            if instruction.is_load:
                assert instruction.dep_distance <= 2

    def test_generate_kernel_programs_one_per_warp(self):
        spec = KernelSpec(name="k", num_warps=6, instructions_per_warp=100)
        programs = generate_kernel_programs(spec)
        assert len(programs) == 6
        assert all(p[0].opcode in (Opcode.ALU, Opcode.LOAD) for p in programs)


lazy_specs = st.builds(
    KernelSpec,
    name=st.just("lazy"),
    num_warps=st.just(4),
    instructions_per_warp=st.integers(0, 6000),
    instructions_per_load=st.integers(1, 60),
    dep_distance=st.integers(0, 12),
    intra_warp_fraction=st.sampled_from([0.0, 0.3, 0.6, 0.8]),
    inter_warp_fraction=st.sampled_from([0.0, 0.2]),
    private_lines=st.integers(1, 700),
    shared_lines=st.integers(1, 600),
    seed=st.integers(0, 1000),
)


class TestLazyPrograms:
    @settings(max_examples=40, deadline=None)
    @given(
        spec=lazy_specs,
        warp_id=st.integers(0, 3),
        chunk=st.integers(1, 700),
        order_seed=st.integers(0, 2**16),
    )
    @example(
        spec=KernelSpec(name="loads-only", instructions_per_warp=257, instructions_per_load=1),
        warp_id=1, chunk=16, order_seed=0,
    )
    @example(
        spec=KernelSpec(name="ragged", instructions_per_warp=6000, instructions_per_load=7),
        warp_id=2, chunk=256, order_seed=1,
    )
    @example(
        spec=KernelSpec(name="empty", instructions_per_warp=0), warp_id=0, chunk=1, order_seed=2,
    )
    def test_reads_in_any_order_match_the_eager_program(
        self, spec, warp_id, chunk, order_seed
    ):
        """Any fill chunk size and any read order build exactly the list
        ``generate_warp_program`` returns."""
        expected = generate_warp_program(spec, warp_id)
        rng = random.Random(order_seed)
        with mock.patch.object(generator, "FILL_CHUNK", chunk):
            program = WarpProgram(spec, warp_id)
            assert len(program) == len(expected)
            for index in rng.sample(range(len(expected)), min(len(expected), 40)):
                assert program[index] == expected[index]
                assert program[index - len(expected)] == expected[index]
            assert len(program.filled) <= len(expected)
            assert program == expected
            assert list(program) == expected
            with pytest.raises(IndexError):
                program[len(expected)]

    def test_alus_are_the_interned_table(self):
        program = generate_warp_program(KernelSpec(name="k", instructions_per_warp=600), 0)
        assert all(inst is alu(inst.pc) for inst in program if not inst.is_load)

    def test_one_profiling_window_fills_a_prefix_and_shares_it(self):
        """A measurement window generates only the instructions it issues,
        and the cached programs are handed out again without a copy."""
        generator._PROGRAM_CACHE.clear()
        spec = KernelSpec(name="window")
        profiler = KernelProfiler(
            config=baseline_config(), cycles_per_point=4_000, warmup_cycles=2_000
        )
        profiler.measure_point(spec, 24, 24)
        programs = generate_kernel_programs(spec)
        assert all(len(program.filled) < spec.instructions_per_warp for program in programs)
        again = generate_kernel_programs(spec)
        assert all(a is b for a, b in zip(programs, again))
        generator._PROGRAM_CACHE.clear()

    def test_concurrent_readers_fill_a_shared_program_once(self):
        """Threads racing to fill one shared program (more threads than
        cores, a tiny switch interval) leave exactly the eager stream."""
        spec = KernelSpec(name="shared", instructions_per_warp=6000, instructions_per_load=4)
        expected = generate_warp_program(spec, 0)
        program = WarpProgram(spec, 0)

        reads = {}

        def read(seed):
            rng = random.Random(seed)
            indices = [rng.randrange(len(expected)) for _ in range(300)]
            reads[seed] = (indices, [program[index] for index in indices])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(reads) == list(range(8))
        for indices, instructions in reads.values():
            assert instructions == [expected[index] for index in indices]
        assert program.filled == expected[: len(program.filled)]
        assert program == expected


class TestRegistry:
    def test_training_and_evaluation_are_disjoint(self):
        training = {benchmark.name for benchmark in training_benchmarks()}
        evaluation = {benchmark.name for benchmark in evaluation_benchmarks()}
        assert training.isdisjoint(evaluation)
        assert training == set(TRAINING_ORDER)
        assert evaluation == set(EVALUATION_ORDER)

    def test_paper_evaluation_set_is_complete(self):
        assert EVALUATION_ORDER == [
            "syr2k", "syrk", "mm", "ii", "gsmv", "mvt", "bicg", "ss", "atax", "bfs", "kmeans",
        ]

    def test_compute_intensive_benchmarks_have_few_loads(self):
        for benchmark in compute_intensive_benchmarks():
            for kernel in benchmark.kernels:
                assert kernel.instructions_per_load >= 50

    def test_training_benchmarks_have_many_kernels(self):
        for benchmark in training_benchmarks():
            assert benchmark.num_kernels >= 10

    def test_get_benchmark_unknown_name(self):
        with pytest.raises(KeyError):
            get_benchmark("definitely_not_a_benchmark")

    def test_all_benchmark_kernel_names_are_unique(self):
        names = [
            kernel.name
            for benchmark in all_benchmarks().values()
            for kernel in benchmark.kernels
        ]
        assert len(names) == len(set(names))

    def test_kernels_fit_the_scheduler(self):
        for benchmark in all_benchmarks().values():
            for kernel in benchmark.kernels:
                assert 1 <= kernel.num_warps <= 24
