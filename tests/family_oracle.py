"""The eager family builders: the reference the lazy family streams must equal.

These are the list builders :mod:`repro.trace.families` used before its
families became lazily filled per-warp streams, kept unchanged: each builds
every warp's whole program up front and checks the instruction budget before
every append.  ``tests/test_trace_families.py`` asserts the lazy programs equal
them, per-warp lengths and instructions alike.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from repro.gpu.isa import Instruction, alu, load
from repro.trace.adapter import TraceKernelSpec
from repro.trace.families import _FAMILY_REGION_BASE, _PC_LOAD_BASE, _WARP_REGION_STRIDE


def _budget(spec: TraceKernelSpec) -> int:
    return spec.instructions_per_warp


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def _stencil_programs(spec: TraceKernelSpec) -> List[List[Instruction]]:
    """Strided 5-point stencil sweep over a 2-D grid of cache lines.

    Warp ``w`` owns a band of rows; every point loads the north, centre and
    south lines (east/west fall in the same line), so adjacent warps re-touch
    each other's boundary rows — structured inter-warp halo reuse at a fixed
    row stride.
    """
    width = spec.param("width", 96)  # lines per grid row
    compute = max(1, spec.instructions_per_load - 1)
    base = _FAMILY_REGION_BASE
    programs: List[List[Instruction]] = []
    for warp_id in range(spec.num_warps):
        program: List[Instruction] = []
        pc = 0
        row = warp_id * spec.param("rows_per_warp", 4)
        col = 0
        while len(program) < _budget(spec):
            for offset, site in ((-1, 0), (0, 1), (1, 2)):
                if len(program) >= _budget(spec):
                    break
                line = base + max(0, row + offset) * width + col
                program.append(
                    load(line, dep_distance=spec.dep_distance, pc=_PC_LOAD_BASE + site)
                )
            for _ in range(compute):
                if len(program) >= _budget(spec):
                    break
                program.append(alu(pc=pc))
                pc += 1
            col += spec.param("col_stride", 1)
            if col >= width:
                col = 0
                row += 1
        programs.append(program)
    return programs


def _transpose_programs(spec: TraceKernelSpec) -> List[List[Instruction]]:
    """Tiled transpose: row-major reads of A paired with column-major
    accesses of B at stride ``n`` lines — consecutive accesses map to the
    same cache set when ``n`` is a multiple of the set count, the classic
    transpose conflict pathology the tile size is meant to soften."""
    n = spec.param("matrix_lines", 64)  # the matrix is n x n cache lines
    tile = max(1, spec.param("tile", 8))
    compute = max(1, spec.instructions_per_load - 1)
    base_a = _FAMILY_REGION_BASE + (1 << 40)
    base_b = base_a + n * n + (1 << 30)
    tiles_per_row = (n + tile - 1) // tile
    total_tiles = tiles_per_row * tiles_per_row
    programs: List[List[Instruction]] = []
    for warp_id in range(spec.num_warps):
        program: List[Instruction] = []
        pc = 0
        tile_index = warp_id  # round-robin tile ownership
        while len(program) < _budget(spec):
            tile_row = (tile_index // tiles_per_row) * tile
            tile_col = (tile_index % tiles_per_row) * tile
            for r in range(tile):
                for c in range(tile):
                    if len(program) >= _budget(spec):
                        break
                    row, col = tile_row + r, tile_col + c
                    if row >= n or col >= n:
                        continue
                    program.append(
                        load(
                            base_a + row * n + col,
                            dep_distance=spec.dep_distance,
                            pc=_PC_LOAD_BASE,
                        )
                    )
                    if len(program) >= _budget(spec):
                        break
                    # The transposed partner: stride-n column walk into B.
                    program.append(
                        load(
                            base_b + col * n + row,
                            dep_distance=spec.dep_distance,
                            pc=_PC_LOAD_BASE + 1,
                        )
                    )
                    for _ in range(compute):
                        if len(program) >= _budget(spec):
                            break
                        program.append(alu(pc=pc))
                        pc += 1
            tile_index = (tile_index + spec.num_warps) % total_tiles
        programs.append(program)
    return programs


def _gather_programs(spec: TraceKernelSpec) -> List[List[Instruction]]:
    """Pointer-chasing gather: the next address is a permutation step of the
    current one and the chase is fully dependent (``dep_distance=0``), so a
    miss must return before the next load can issue — the latency-bound
    irregular pattern linked structures produce."""
    table = max(2, spec.param("table_lines", 4096))
    compute = max(1, spec.instructions_per_load - 1)
    base = _FAMILY_REGION_BASE + (2 << 40)
    # A full-cycle LCG over [0, table): stride odd => bijective modulo 2^k.
    stride = spec.param("chase_stride", 0) or (2 * (spec.seed % 977) + 4097)
    programs: List[List[Instruction]] = []
    for warp_id in range(spec.num_warps):
        program: List[Instruction] = []
        pc = 0
        cursor = (warp_id * 7919 + spec.seed * 104729) % table
        while len(program) < _budget(spec):
            program.append(load(base + cursor, dep_distance=0, pc=_PC_LOAD_BASE))
            cursor = (cursor * 5 + stride) % table
            for _ in range(compute):
                if len(program) >= _budget(spec):
                    break
                program.append(alu(pc=pc))
                pc += 1
        programs.append(program)
    return programs


def _treereduce_programs(spec: TraceKernelSpec) -> List[List[Instruction]]:
    """Tree reduction over ``leaves`` lines: phase ``k`` combines pairs at
    stride ``2^k``.  Active elements halve every phase and warps whose slice
    is exhausted stop early, so warp programs have *different lengths* —
    warp imbalance no stationary synthetic kernel can produce."""
    leaves = max(2, spec.param("leaves", 8192))
    compute = max(1, spec.instructions_per_load - 1)
    base = _FAMILY_REGION_BASE + (3 << 40)
    programs: List[List[Instruction]] = [[] for _ in range(spec.num_warps)]
    pcs = [0] * spec.num_warps
    stride = 1
    while stride < leaves:
        active = leaves // (2 * stride)  # pair-combines in this phase
        for index in range(active):
            warp_id = index % spec.num_warps
            program = programs[warp_id]
            if len(program) >= _budget(spec):
                continue
            position = index * 2 * stride
            program.append(
                load(base + position, dep_distance=spec.dep_distance, pc=_PC_LOAD_BASE)
            )
            if len(program) < _budget(spec):
                program.append(
                    load(
                        base + position + stride,
                        dep_distance=spec.dep_distance,
                        pc=_PC_LOAD_BASE + 1,
                    )
                )
            for _ in range(compute):
                if len(program) >= _budget(spec):
                    break
                program.append(alu(pc=pcs[warp_id]))
                pcs[warp_id] += 1
        stride *= 2
    return programs


def _phasemix_programs(spec: TraceKernelSpec) -> List[List[Instruction]]:
    """Alternating memory-bound and compute-bound phases within one kernel.

    The memory phase loads every other instruction from a small hot set (the
    inherited ``private_lines`` per warp); the compute phase is a long ALU
    run.  Schedulers that adapt at runtime see their operating point move
    mid-kernel — stationary synthetics cannot exercise that."""
    phase_len = max(8, spec.param("phase_len", 600))
    hot_lines = max(1, spec.private_lines)
    base = _FAMILY_REGION_BASE + (4 << 40)
    programs: List[List[Instruction]] = []
    for warp_id in range(spec.num_warps):
        rng = random.Random((spec.seed << 16) ^ (warp_id * 0x85EBCA6B))
        warp_base = base + warp_id * _WARP_REGION_STRIDE
        program: List[Instruction] = []
        pc = 0
        memory_phase = True
        while len(program) < _budget(spec):
            steps = min(phase_len, _budget(spec) - len(program))
            if memory_phase:
                for step in range(steps):
                    if step % 2 == 0:
                        line = warp_base + rng.randrange(hot_lines)
                        program.append(
                            load(line, dep_distance=spec.dep_distance, pc=_PC_LOAD_BASE)
                        )
                    else:
                        program.append(alu(pc=pc))
                        pc += 1
            else:
                for _ in range(steps):
                    program.append(alu(pc=pc))
                    pc += 1
            memory_phase = not memory_phase
        programs.append(program)
    return programs


EAGER_BUILDERS: Dict[str, Callable[[TraceKernelSpec], List[List[Instruction]]]] = {
    "stencil": _stencil_programs,
    "transpose": _transpose_programs,
    "gather": _gather_programs,
    "treereduce": _treereduce_programs,
    "phasemix": _phasemix_programs,
}
