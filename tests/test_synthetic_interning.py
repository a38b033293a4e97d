"""Interned synthetic loads: the same streams, shared load objects.

Fills build a private-region load once per warp and a shared-region load
once per kernel; streaming loads stay fresh.  The draws are unchanged, so
every program must equal the pre-interning stream (``synthetic_oracle``)
element-wise however its warps are read, and only object identity may
differ.  A fill that generates instructions is timed as the ``generate``
telemetry phase.
"""

from __future__ import annotations

import random
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs.telemetry import phase_totals, phases_delta
from repro.workloads import generator
from repro.workloads.generator import (
    _PC_LOAD_BASE,
    WarpProgram,
    fill_programs,
    generate_kernel_programs,
)
from repro.workloads.registry import get_benchmark
from repro.workloads.spec import KernelSpec

from synthetic_oracle import oracle_program

#: The pcs of each region's load sites (see ``_SyntheticStream.chunk``).
PRIVATE_PCS = range(_PC_LOAD_BASE, _PC_LOAD_BASE + 100)
SHARED_PCS = range(_PC_LOAD_BASE + 100, _PC_LOAD_BASE + 200)
STREAM_PC = _PC_LOAD_BASE + 200

#: The kernels of perfbench's chip-graph workload (seed 0).
CHIP_BENCHMARKS = ("syr2k", "mm", "ii", "mvt", "bfs", "kmeans")

MIXED = KernelSpec(
    name="mixed",
    num_warps=6,
    instructions_per_warp=3000,
    instructions_per_load=2,
    intra_warp_fraction=0.5,
    inter_warp_fraction=0.3,
    private_lines=40,
    shared_lines=30,
)


@pytest.fixture(autouse=True)
def fresh_program_cache():
    """Each test builds its kernels' programs (and shared tables) anew."""
    generator._PROGRAM_CACHE.clear()
    yield
    generator._PROGRAM_CACHE.clear()


def filled_kernel(spec):
    programs = generate_kernel_programs(spec)
    fill_programs(programs)
    return [program.filled for program in programs]


def loads_by_key(programs, pcs):
    """(line, pc) -> every load object at those pcs, over ``programs``."""
    found = defaultdict(list)
    for program in programs:
        for instruction in program:
            if instruction.is_load and instruction.pc in pcs:
                found[instruction.line_addr, instruction.pc].append(instruction)
    return found


kernel_specs = st.builds(
    KernelSpec,
    name=st.just("k"),
    num_warps=st.integers(1, 4),
    instructions_per_warp=st.integers(0, 1500),
    instructions_per_load=st.integers(1, 12),
    dep_distance=st.integers(0, 12),
    intra_warp_fraction=st.sampled_from([0.0, 0.3, 0.6, 0.8]),
    inter_warp_fraction=st.sampled_from([0.0, 0.2]),
    private_lines=st.integers(1, 700),
    shared_lines=st.integers(1, 600),
    seed=st.integers(0, 1000),
)


@settings(max_examples=40, deadline=None)
@given(
    spec=kernel_specs,
    chunk=st.integers(1, 300),
    order_seed=st.integers(0, 2**16),
)
@example(spec=MIXED, chunk=16, order_seed=0)
@example(
    spec=KernelSpec(name="loads-only", num_warps=3, instructions_per_warp=257,
                    instructions_per_load=1, private_lines=2, shared_lines=2),
    chunk=7, order_seed=1,
)
def test_every_warp_equals_the_oracle_in_any_read_order(spec, chunk, order_seed):
    """Reads interleaved over a kernel's warps, crossing fill-chunk
    boundaries in random order, see exactly the pre-interning streams."""
    generator._PROGRAM_CACHE.clear()
    expected = [oracle_program(spec, warp_id) for warp_id in range(spec.num_warps)]
    rng = random.Random(order_seed)
    reads = [
        (warp_id, index)
        for warp_id in range(spec.num_warps)
        for index in range(spec.instructions_per_warp)
    ]
    with mock.patch.object(generator, "FILL_CHUNK", chunk):
        programs = generate_kernel_programs(spec)
        for warp_id, index in rng.sample(reads, min(len(reads), 120)):
            assert programs[warp_id][index] == expected[warp_id][index]
        for program, oracle in zip(programs, expected):
            assert program == oracle
            assert list(program) == oracle


def test_a_repeated_private_load_is_one_object_in_its_warp():
    (program, *_) = filled_kernel(MIXED)
    found = loads_by_key([program], PRIVATE_PCS)
    assert max(len(loads) for loads in found.values()) > 1
    for loads in found.values():
        assert all(load is loads[0] for load in loads)


def test_a_shared_region_load_is_one_object_across_the_kernels_warps():
    programs = filled_kernel(MIXED)
    found = loads_by_key(programs, SHARED_PCS)
    owners = defaultdict(set)
    for warp_id, program in enumerate(programs):
        for instruction in program:
            if instruction.is_load and instruction.pc in SHARED_PCS:
                owners[instruction.line_addr, instruction.pc].add(warp_id)
    assert max(len(warps) for warps in owners.values()) > 1
    for loads in found.values():
        assert all(load is loads[0] for load in loads)


def test_streaming_loads_are_never_shared():
    programs = filled_kernel(MIXED)
    streaming = [
        instruction
        for program in programs
        for instruction in program
        if instruction.is_load and instruction.pc == STREAM_PC
    ]
    assert streaming
    assert len({id(instruction) for instruction in streaming}) == len(streaming)


def test_the_chip_graph_kernels_hold_one_object_per_distinct_load():
    """The six chip-graph kernels, filled in full: 304,800 loads, one object
    per distinct (line, dep, pc) of each kernel, 48,241 in all."""
    loads = 0
    objects = 0
    for name in CHIP_BENCHMARKS:
        programs = filled_kernel(get_benchmark(name).kernels[0])
        kernel_objects = {
            id(instruction): instruction
            for program in programs
            for instruction in program
            if instruction.is_load
        }
        loads += sum(instruction.is_load for program in programs for instruction in program)
        distinct = {
            (instruction.line_addr, instruction.dep_distance, instruction.pc)
            for instruction in kernel_objects.values()
        }
        assert len(kernel_objects) == len(distinct)
        objects += len(kernel_objects)
        generator._PROGRAM_CACHE.clear()
    assert loads == 304_800
    assert objects == 48_241


def test_only_fills_that_generate_count_as_the_generate_phase():
    before = phase_totals()
    program = WarpProgram(KernelSpec(name="k", instructions_per_warp=600), 0)

    def generate_calls():
        return phases_delta(before).get("generate", {}).get("calls", 0)

    program[0]
    program[generator.FILL_CHUNK - 1]
    assert generate_calls() == 1
    assert len(list(program)) == 600  # fills the other two chunks
    assert generate_calls() == 3
    list(program)  # every chunk is filled: no generation, no phase
    program.fill(599)
    assert generate_calls() == 3
