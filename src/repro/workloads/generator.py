"""Synthesis of per-warp instruction/address traces from a KernelSpec.

Each warp's program is a repeating pattern of ``In - 1`` ALU instructions
followed by one global LOAD.  Load addresses are drawn from three regions:

* the warp's *private* region (``private_lines`` cache lines) — producing
  intra-warp reuse with an average reuse distance proportional to the
  region size,
* the *shared* region (``shared_lines`` lines), touched by every warp —
  producing inter-warp reuse,
* a *streaming* region of fresh, never-reused lines.

Region bases are spaced far apart so they never alias in the tag space; the
set-index hash of the L1 spreads them over the cache exactly as real
benchmarks' address streams would.

Programs are generated lazily.  A :class:`WarpProgram` has the full length
but appends instructions only when a reader reaches the end of what it has
generated so far, :data:`FILL_CHUNK` at a time.  Simulations sample short
windows of long kernels (profiling points, the inference engine's epochs,
cycle-capped runs), so most of a stream is never issued and never built.
The ALU at index ``i`` has pc ``i``, so ALU runs are slices of the interned
table in :mod:`repro.gpu.isa` and only the loads are constructed.  Each
warp's stream is a sequential function of ``(spec, warp_id)``, so the
result is the same however the reads are split.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from collections.abc import Sequence
from typing import Iterator, List, Optional, Tuple

from repro.gpu.isa import Instruction, alu_run, load
from repro.workloads.spec import KernelSpec

# Region spacing, in cache lines.  Large enough that private/shared/streaming
# regions of all warps never overlap.
_PRIVATE_REGION_STRIDE = 1 << 22
_SHARED_REGION_BASE = 1 << 40
_STREAM_REGION_BASE = 1 << 44

# Static PC tags: every load site in the pattern gets its own PC so that
# instruction-based policies (APCM) can distinguish load instructions.
_PC_LOAD_BASE = 1000

#: Instructions a :class:`WarpProgram` generates per fill: large enough to
#: amortise a fill call over many issues, small next to a 6,000-instruction
#: stream, so a short window overshoots what it issues by little.
FILL_CHUNK = 256

#: Programs in the cache below are shared, so a fill (read the generator
#: state, then extend the program) must not interleave with another.
_FILL_LOCK = threading.Lock()


class WarpProgram(Sequence):
    """One warp's instruction stream, generated as it is read.

    ``len()`` is the spec's ``instructions_per_warp``.  Indexing and
    iteration generate instructions in whole :data:`FILL_CHUNK` chunks up to
    the position read and keep them, so the program equals the list
    :func:`generate_warp_program` returns.  ``filled`` is the generated
    prefix, a list that only grows; the fast core reads it directly and
    calls :meth:`fill` when its pc reaches the end.
    """

    __slots__ = (
        "filled",
        "_length",
        "_spec",
        "_rng",
        "_private_base",
        "_stream_base",
        "_stream_cursor",
        "_dep",
        "_load_sites",
    )

    def __init__(self, spec: KernelSpec, warp_id: int) -> None:
        self.filled: List[Instruction] = []
        self._length = spec.instructions_per_warp
        self._spec = spec
        self._rng = random.Random((spec.seed << 20) ^ (warp_id * 0x9E3779B1))
        self._private_base = (warp_id + 1) * _PRIVATE_REGION_STRIDE + spec.seed * 131
        self._stream_base = (
            _STREAM_REGION_BASE + warp_id * _PRIVATE_REGION_STRIDE + spec.seed * 977
        )
        self._stream_cursor = 0
        group = spec.instructions_per_load
        self._dep = min(spec.dep_distance, group - 1)
        self._load_sites = max(1, min(8, spec.private_lines // 64 + 1))

    def fill(self, index: int) -> int:
        """Generate through the chunk holding ``index`` (clamped to the
        program's length); returns the number of instructions filled."""
        filled = self.filled
        with _FILL_LOCK:
            start = len(filled)
            if start <= index and start < self._length:
                self._generate(start, min(self._length, (index // FILL_CHUNK + 1) * FILL_CHUNK))
        return len(filled)

    def _generate(self, start: int, stop: int) -> None:
        """Append the instructions at indices ``start`` to ``stop - 1``: the
        ALU run of the whole range, with every ``In``-th slot a load."""
        spec = self._spec
        rng = self._rng
        group = spec.instructions_per_load
        intra = spec.intra_warp_fraction
        local = intra + spec.inter_warp_fraction
        shared_base = _SHARED_REGION_BASE + spec.seed * 7919
        chunk = alu_run(start, stop)
        for index in range(start + (group - 1 - start) % group, stop, group):
            draw = rng.random()
            if draw < intra:
                line = self._private_base + rng.randrange(spec.private_lines)
                pc_tag = _PC_LOAD_BASE + (index % self._load_sites)
            elif draw < local:
                line = shared_base + rng.randrange(spec.shared_lines)
                pc_tag = _PC_LOAD_BASE + 100 + (index % self._load_sites)
            else:
                line = self._stream_base + self._stream_cursor
                self._stream_cursor += 1
                pc_tag = _PC_LOAD_BASE + 200  # a single streaming load site
            chunk[index - start] = load(line, dep_distance=self._dep, pc=pc_tag)
        self.filled.extend(chunk)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> Instruction:
        filled = self.filled
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("warp program index out of range")
        if index >= len(filled):
            self.fill(index)
        return filled[index]

    def __iter__(self) -> Iterator[Instruction]:
        filled = self.filled
        start = 0
        while start < self._length:
            stop = self.fill(start)
            yield from filled[start:stop]
            start = stop

    def __eq__(self, other) -> bool:
        if isinstance(other, WarpProgram):
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        return self._length == len(other) and list(self) == other

    def __repr__(self) -> str:
        return (
            f"WarpProgram({self._spec.name!r}, filled {len(self.filled)} "
            f"of {self._length})"
        )


def generate_warp_program(spec: KernelSpec, warp_id: int) -> List[Instruction]:
    """Generate the full instruction stream of one warp."""
    program = WarpProgram(spec, warp_id)
    program.fill(len(program) - 1)
    return program.filled


class BoundedProgramCache:
    """An explicit, bounded LRU of per-kernel warp programs.

    Entries are the :class:`WarpProgram` tuples themselves, handed to every
    caller without a copy, so while a kernel stays cached its streams are
    generated once, and only as far as some simulation has read them.  The
    bound, the eviction order and the clear operation are explicit, and the
    cache is *never consulted* for trace-backed kernels, whose decoded
    multi-million-instruction programs must not be pinned in memory between
    runs.
    """

    def __init__(self, capacity: int = 6) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[KernelSpec, Tuple[WarpProgram, ...]]" = OrderedDict()

    def get(self, spec: KernelSpec) -> Optional[Tuple[WarpProgram, ...]]:
        programs = self._entries.get(spec)
        if programs is not None:
            self._entries.move_to_end(spec)
        return programs

    def put(self, spec: KernelSpec, programs: Tuple[WarpProgram, ...]) -> None:
        self._entries[spec] = programs
        self._entries.move_to_end(spec)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Module-level cache: the profiler and the scheme runners repeatedly execute
#: the same few kernels, and regenerating their instruction streams would
#: dominate their runtime.
_PROGRAM_CACHE = BoundedProgramCache(capacity=6)


def generate_kernel_programs(spec: KernelSpec) -> List[Sequence[Instruction]]:
    """Produce the per-warp programs of a kernel.

    Trace-backed specs (anything exposing ``materialise_programs``, i.e.
    :class:`repro.trace.adapter.TraceKernelSpec`) are decoded or synthesised
    on demand and bypass the program cache entirely.  Synthetic specs get
    lazily filled :class:`WarpProgram` streams, memoised in the bounded LRU
    above: every caller gets the same program objects.
    """
    materialise = getattr(spec, "materialise_programs", None)
    if materialise is not None:
        return materialise()
    cached = _PROGRAM_CACHE.get(spec)
    if cached is None:
        cached = tuple(WarpProgram(spec, warp_id) for warp_id in range(spec.num_warps))
        _PROGRAM_CACHE.put(spec, cached)
    return list(cached)


def fill_programs(programs: Sequence[Sequence[Instruction]]) -> None:
    """Generate every lazily filled program in ``programs`` to its end —
    benchmarks call this so the regions they time exclude generation."""
    for program in programs:
        if isinstance(program, WarpProgram):
            program.fill(len(program) - 1)
