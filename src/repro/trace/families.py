"""Trace-native workload families the synthetic generator cannot express.

The three-region generator draws every load independently from stationary
distributions; the families here produce *structured* address streams:

* ``stencil`` — strided 5-point stencil sweeps: regular column strides with
  halo rows shared between neighbouring warps (structured spatial reuse).
* ``transpose`` — tiled matrix transpose: row-major reads interleaved with
  column-major accesses whose large power-of-two strides hammer individual
  cache sets (conflict-miss pathology).
* ``gather`` — pointer-chasing gather: each load's address is a permutation
  step of the previous one and the chase is fully dependent
  (``dep_distance = 0``), serialising misses the way linked-list traversals
  do (irregular).
* ``treereduce`` — tree reduction: log₂ phases of pairwise loads at doubling
  strides, with warps retiring as the tree narrows (warp imbalance — every
  synthetic warp has identical length by construction).
* ``phasemix`` — phase-mixed kernel: alternating memory-bound and
  compute-bound phases inside one kernel (time-varying behaviour; the
  generator is stationary).

Each family is a per-warp stream: a plain generator that yields one warp's
instructions in order, a sequential function of ``(spec, warp_id)``.
:func:`generate_family_programs` wraps each stream in a lazily filled
:class:`~repro.workloads.generator.WarpProgram`, so an instruction is built
only when a simulation reads that far, and cuts it at its length, which is
known up front.  Four families run to the spec's
``instructions_per_warp``.  A ``treereduce`` warp stops where its share of
the tree ends: in the phase with pair stride ``s``, warp ``w`` of ``W``
combines the pairs ``w, w + W, …`` below ``leaves // (2s)`` (``2 + compute``
instructions each), so its length is the sum over phases, capped at
``instructions_per_warp``.

All families are deterministic functions of their
:class:`~repro.trace.adapter.TraceKernelSpec` (``seed`` included), so a
family-backed kernel is fully content-addressed by its spec fields — no
trace file is needed until one is exported with ``repro trace gen``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Tuple

from repro.gpu.isa import Instruction, alu, load
from repro.trace.adapter import SOURCE_FAMILY, TraceKernelSpec
from repro.workloads.generator import WarpProgram
from repro.workloads.spec import BenchmarkSpec

#: Address-space bases, in cache lines, spaced so families and warps never
#: alias each other in the tag space (mirrors the synthetic generator).
_FAMILY_REGION_BASE = 1 << 46
_WARP_REGION_STRIDE = 1 << 24
_PC_LOAD_BASE = 3000

Stream = Iterator[Instruction]


def _compute(spec: TraceKernelSpec) -> int:
    """ALU instructions after each load group."""
    return max(1, spec.instructions_per_load - 1)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def _stencil(spec: TraceKernelSpec, warp_id: int) -> Stream:
    """Strided 5-point stencil sweep over a 2-D grid of cache lines.

    Warp ``w`` owns a band of rows; every point loads the north, centre and
    south lines (east/west fall in the same line), so adjacent warps re-touch
    each other's boundary rows — structured inter-warp halo reuse at a fixed
    row stride.
    """
    width = spec.param("width", 96)  # lines per grid row
    col_stride = spec.param("col_stride", 1)
    compute = _compute(spec)
    row = warp_id * spec.param("rows_per_warp", 4)
    col = 0
    pc = 0
    while True:
        for offset, site in ((-1, 0), (0, 1), (1, 2)):
            line = _FAMILY_REGION_BASE + max(0, row + offset) * width + col
            yield load(line, dep_distance=spec.dep_distance, pc=_PC_LOAD_BASE + site)
        for _ in range(compute):
            yield alu(pc=pc)
            pc += 1
        col += col_stride
        if col >= width:
            col = 0
            row += 1


def _transpose(spec: TraceKernelSpec, warp_id: int) -> Stream:
    """Tiled transpose: row-major reads of A paired with column-major
    accesses of B at stride ``n`` lines — consecutive accesses map to the
    same cache set when ``n`` is a multiple of the set count, the classic
    transpose conflict pathology the tile size is meant to soften."""
    n = spec.param("matrix_lines", 64)  # the matrix is n x n cache lines
    tile = max(1, spec.param("tile", 8))
    compute = _compute(spec)
    base_a = _FAMILY_REGION_BASE + (1 << 40)
    base_b = base_a + n * n + (1 << 30)
    tiles_per_row = (n + tile - 1) // tile
    total_tiles = tiles_per_row * tiles_per_row
    pc = 0
    tile_index = warp_id  # round-robin tile ownership
    while True:
        tile_row = (tile_index // tiles_per_row) * tile
        tile_col = (tile_index % tiles_per_row) * tile
        for row in range(tile_row, min(tile_row + tile, n)):
            for col in range(tile_col, min(tile_col + tile, n)):
                yield load(base_a + row * n + col, dep_distance=spec.dep_distance, pc=_PC_LOAD_BASE)
                # The transposed partner: stride-n column walk into B.
                yield load(
                    base_b + col * n + row, dep_distance=spec.dep_distance, pc=_PC_LOAD_BASE + 1
                )
                for _ in range(compute):
                    yield alu(pc=pc)
                    pc += 1
        tile_index = (tile_index + spec.num_warps) % total_tiles


def _gather(spec: TraceKernelSpec, warp_id: int) -> Stream:
    """Pointer-chasing gather: the next address is a permutation step of the
    current one and the chase is fully dependent (``dep_distance=0``), so a
    miss must return before the next load can issue — the latency-bound
    irregular pattern linked structures produce."""
    table = max(2, spec.param("table_lines", 4096))
    compute = _compute(spec)
    base = _FAMILY_REGION_BASE + (2 << 40)
    # A full-cycle LCG over [0, table): stride odd => bijective modulo 2^k.
    stride = spec.param("chase_stride", 0) or (2 * (spec.seed % 977) + 4097)
    cursor = (warp_id * 7919 + spec.seed * 104729) % table
    pc = 0
    while True:
        yield load(base + cursor, dep_distance=0, pc=_PC_LOAD_BASE)
        cursor = (cursor * 5 + stride) % table
        for _ in range(compute):
            yield alu(pc=pc)
            pc += 1


def _tree_phases(spec: TraceKernelSpec, warp_id: int) -> Iterator[Tuple[int, range]]:
    """``(stride, pair indices)`` of each tree phase, for one warp: phase
    ``k`` combines ``leaves // 2^(k+1)`` pairs at stride ``2^k``, dealt out
    round-robin over the warps."""
    leaves = max(2, spec.param("leaves", 8192))
    stride = 1
    while stride < leaves:
        yield stride, range(warp_id, leaves // (2 * stride), spec.num_warps)
        stride *= 2


def _treereduce(spec: TraceKernelSpec, warp_id: int) -> Stream:
    """Tree reduction over ``leaves`` lines: phase ``k`` combines pairs at
    stride ``2^k``.  Active elements halve every phase and warps whose slice
    is exhausted stop early, so warp programs have *different lengths* —
    warp imbalance no stationary synthetic kernel can produce."""
    compute = _compute(spec)
    base = _FAMILY_REGION_BASE + (3 << 40)
    pc = 0
    for stride, pairs in _tree_phases(spec, warp_id):
        for index in pairs:
            position = base + index * 2 * stride
            yield load(position, dep_distance=spec.dep_distance, pc=_PC_LOAD_BASE)
            yield load(position + stride, dep_distance=spec.dep_distance, pc=_PC_LOAD_BASE + 1)
            for _ in range(compute):
                yield alu(pc=pc)
                pc += 1


def _treereduce_length(spec: TraceKernelSpec, warp_id: int) -> int:
    pairs = sum(len(indices) for _stride, indices in _tree_phases(spec, warp_id))
    return min(spec.instructions_per_warp, pairs * (2 + _compute(spec)))


def _phasemix(spec: TraceKernelSpec, warp_id: int) -> Stream:
    """Alternating memory-bound and compute-bound phases within one kernel.

    The memory phase loads every other instruction from a small hot set (the
    inherited ``private_lines`` per warp); the compute phase is a long ALU
    run.  Schedulers that adapt at runtime see their operating point move
    mid-kernel — stationary synthetics cannot exercise that."""
    phase_len = max(8, spec.param("phase_len", 600))
    hot_lines = max(1, spec.private_lines)
    warp_base = _FAMILY_REGION_BASE + (4 << 40) + warp_id * _WARP_REGION_STRIDE
    rng = random.Random((spec.seed << 16) ^ (warp_id * 0x85EBCA6B))
    pc = 0
    while True:
        for step in range(phase_len):  # memory phase
            if step % 2 == 0:
                line = warp_base + rng.randrange(hot_lines)
                yield load(line, dep_distance=spec.dep_distance, pc=_PC_LOAD_BASE)
            else:
                yield alu(pc=pc)
                pc += 1
        for _ in range(phase_len):  # compute phase
            yield alu(pc=pc)
            pc += 1


#: Each family's per-warp stream.
FAMILY_GENERATORS: Dict[str, Callable[[TraceKernelSpec, int], Stream]] = {
    "stencil": _stencil,
    "transpose": _transpose,
    "gather": _gather,
    "treereduce": _treereduce,
    "phasemix": _phasemix,
}

#: Families whose warps stop short of ``instructions_per_warp``: the length
#: of warp ``w``'s stream, computed without generating it.
_FAMILY_LENGTHS: Dict[str, Callable[[TraceKernelSpec, int], int]] = {
    "treereduce": _treereduce_length,
}

#: Geometry parameters that must be at least 1: a zero-sized transpose
#: matrix has no tiles, and a stencil row narrower than one line would put
#: addresses below the family region.
_POSITIVE_PARAMS: Dict[str, str] = {"stencil": "width", "transpose": "matrix_lines"}


def family_names() -> List[str]:
    return list(FAMILY_GENERATORS)


def generate_family_programs(spec: TraceKernelSpec) -> List[WarpProgram]:
    """The per-warp programs of a family-backed trace kernel, each filled
    from its family stream as a simulation reads it.

    The family and its geometry are checked here, before any stream exists,
    so a bad spec fails at the call rather than at a fill inside a run.
    """
    try:
        stream = FAMILY_GENERATORS[spec.family]
    except KeyError:
        raise ValueError(
            f"unknown trace family {spec.family!r}; known families: {family_names()}"
        ) from None
    key = _POSITIVE_PARAMS.get(spec.family)
    if key is not None and spec.param(key, 1) < 1:
        raise ValueError(f"{spec.family} family needs {key} >= 1, got {spec.param(key, 1)}")
    length = _FAMILY_LENGTHS.get(spec.family)
    return [
        WarpProgram(
            spec,
            warp_id,
            stream=stream(spec, warp_id),
            length=None if length is None else length(spec, warp_id),
        )
        for warp_id in range(spec.num_warps)
    ]


# ---------------------------------------------------------------------------
# The registered ``trace`` suite
# ---------------------------------------------------------------------------


def family_kernel(
    family: str,
    name: str = "",
    num_warps: int = 24,
    instructions_per_warp: int = 6000,
    seed: int = 0,
    dep_distance: int = 5,
    instructions_per_load: int = 3,
    private_lines: int = 200,
    params: Tuple[Tuple[str, int], ...] = (),
) -> TraceKernelSpec:
    """Convenience constructor for a family-backed trace kernel."""
    return TraceKernelSpec(
        name=name or f"{family}_k0",
        num_warps=num_warps,
        instructions_per_warp=instructions_per_warp,
        instructions_per_load=instructions_per_load,
        dep_distance=dep_distance,
        private_lines=private_lines,
        seed=seed,
        source=SOURCE_FAMILY,
        family=family,
        params=tuple(sorted(params)),
    )


def build_trace_benchmarks() -> List[BenchmarkSpec]:
    """The ``trace`` suite: one benchmark per trace-native family."""
    definitions = [
        (
            "stencil",
            "Strided 5-point stencil sweep (structured halo reuse)",
            [
                family_kernel(
                    "stencil", "stencil_k0", seed=41, instructions_per_load=3,
                    params=(("width", 96), ("rows_per_warp", 4)),
                ),
            ],
        ),
        (
            "transpose",
            "Tiled matrix transpose (stride-n set-conflict pathology)",
            [
                family_kernel(
                    "transpose", "transpose_k0", seed=43, instructions_per_load=2,
                    params=(("matrix_lines", 64), ("tile", 8)),
                ),
            ],
        ),
        (
            "gather",
            "Pointer-chasing gather (dependent irregular chase)",
            [
                family_kernel(
                    "gather", "gather_k0", seed=47, instructions_per_load=4,
                    params=(("table_lines", 4096),),
                ),
            ],
        ),
        (
            "treereduce",
            "Tree reduction (doubling strides, warp imbalance)",
            [
                family_kernel(
                    "treereduce", "treereduce_k0", seed=53, instructions_per_load=3,
                    params=(("leaves", 16384),),
                ),
            ],
        ),
        (
            "phasemix",
            "Phase-mixed kernel (alternating memory/compute phases)",
            [
                family_kernel(
                    "phasemix", "phasemix_k0", seed=59, private_lines=160,
                    params=(("phase_len", 600),),
                ),
            ],
        ),
    ]
    return [
        BenchmarkSpec(
            name=name,
            suite="Trace",
            role="trace",
            description=description,
            kernels=kernels,
        )
        for name, description, kernels in definitions
    ]
