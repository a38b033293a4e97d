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
The trace families (:mod:`repro.trace.families`) use the same class with a
generator as each warp's source.  The ALU at index ``i`` has pc ``i``, so
ALU runs are slices of the interned table in :mod:`repro.gpu.isa` and only
the loads are constructed.  Each warp's stream is a sequential function of
``(spec, warp_id)``, so the result is the same however the reads are split.

Loads are interned too, since an instruction is frozen and most loads
repeat: a private-region load is built once per warp, in a dict keyed by its
draw offset and load site that grows as the warp draws new pairs, and a
shared-region load once per kernel, in one table of ``shared_lines`` x load
sites slots that :func:`generate_kernel_programs` creates for all of the
kernel's warps (fills mutate it under :data:`_FILL_LOCK`).  Streaming loads
are built fresh: each touches a new line, so none ever repeats and a table
would only hold memory.  Interning changes no RNG draw, so a program is
element-wise the stream a build of fresh loads returns; only object
identity is shared.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from collections.abc import Sequence
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from repro.gpu.isa import Instruction, alu_run, load
from repro.obs.telemetry import phase
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

    ``len()`` is known before anything is generated: ``length``, or the
    spec's ``instructions_per_warp`` when it is not given.  Indexing and
    iteration generate instructions in whole :data:`FILL_CHUNK` chunks up to
    the position read and keep them, so the program equals the list an
    eager build of the same stream returns.  ``filled`` is the generated
    prefix, a list that only grows; the fast core reads it directly and
    calls :meth:`fill` when its pc reaches the end.

    Without a ``stream`` the source is the warp's synthetic stream, whose
    shared-region loads come from ``shared_loads`` (the kernel's table from
    :func:`shared_load_table`; a table of its own when not given).  A trace
    family passes its warp's generator, which must yield ``length``
    instructions or more.
    """

    __slots__ = ("filled", "_length", "_name", "_source")

    def __init__(
        self,
        spec: KernelSpec,
        warp_id: int,
        stream: Optional[Iterator[Instruction]] = None,
        length: Optional[int] = None,
        shared_loads: Optional[List[Optional[Instruction]]] = None,
    ) -> None:
        self.filled: List[Instruction] = []
        self._length = spec.instructions_per_warp if length is None else length
        self._name = spec.name
        # ``_source(start, stop)`` yields the instructions at indices
        # ``start`` to ``stop - 1``; fills call it on consecutive ranges.
        if stream is None:
            if shared_loads is None:
                shared_loads = shared_load_table(spec)
            self._source = _SyntheticStream(spec, warp_id, shared_loads).chunk
        else:
            self._source = lambda start, stop: islice(stream, stop - start)

    def fill(self, index: int) -> int:
        """Generate through the chunk holding ``index`` (clamped to the
        program's length); returns the number of instructions filled."""
        filled = self.filled
        with _FILL_LOCK:
            start = len(filled)
            if start <= index and start < self._length:
                stop = min(self._length, (index // FILL_CHUNK + 1) * FILL_CHUNK)
                with phase("generate"):
                    filled.extend(self._source(start, stop))
        return len(filled)

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
        return f"WarpProgram({self._name!r}, filled {len(self.filled)} of {self._length})"


def _load_sites(spec: KernelSpec) -> int:
    """Distinct load pcs per region: more sites for larger private sets."""
    return max(1, min(8, spec.private_lines // 64 + 1))


def shared_load_table(spec: KernelSpec) -> List[Optional[Instruction]]:
    """An empty table of ``spec``'s shared-region loads, one slot per (line
    offset, load site), for the warps of one kernel to fill together."""
    return [None] * (spec.shared_lines * _load_sites(spec))


class _SyntheticStream:
    """The generator state of one synthetic warp: its RNG, streaming cursor,
    load-site layout and interned private loads, resumed by every
    :meth:`chunk`."""

    __slots__ = (
        "_spec",
        "_rng",
        "_private_base",
        "_shared_base",
        "_stream_base",
        "_stream_cursor",
        "_dep",
        "_load_sites",
        "_private_loads",
        "_shared_loads",
    )

    def __init__(
        self, spec: KernelSpec, warp_id: int, shared_loads: List[Optional[Instruction]]
    ) -> None:
        self._spec = spec
        self._rng = random.Random((spec.seed << 20) ^ (warp_id * 0x9E3779B1))
        self._private_base = (warp_id + 1) * _PRIVATE_REGION_STRIDE + spec.seed * 131
        self._shared_base = _SHARED_REGION_BASE + spec.seed * 7919
        self._stream_base = (
            _STREAM_REGION_BASE + warp_id * _PRIVATE_REGION_STRIDE + spec.seed * 977
        )
        self._stream_cursor = 0
        group = spec.instructions_per_load
        self._dep = min(spec.dep_distance, group - 1)
        self._load_sites = _load_sites(spec)
        # Both tables are keyed ``offset * load_sites + site``.
        self._private_loads: Dict[int, Instruction] = {}
        self._shared_loads = shared_loads

    def _load(self, base: int, key: int, pc_base: int) -> Instruction:
        offset, site = divmod(key, self._load_sites)
        return load(base + offset, dep_distance=self._dep, pc=pc_base + site)

    def chunk(self, start: int, stop: int) -> List[Instruction]:
        """The instructions at indices ``start`` to ``stop - 1``: the ALU run
        of the whole range, with every ``In``-th slot a load.

        ``rng.randrange(n)`` is drawn inline, as CPython's
        ``Random._randbelow_with_getrandbits`` draws it: ``getrandbits`` of
        ``n``'s bit length, drawn again while ``>= n``.  The draws are the
        same (``tests/synthetic_oracle.py`` calls ``randrange``)."""
        spec = self._spec
        rng = self._rng
        draw_float = rng.random
        getrandbits = rng.getrandbits
        group = spec.instructions_per_load
        intra = spec.intra_warp_fraction
        local = intra + spec.inter_warp_fraction
        private_lines = spec.private_lines
        private_bits = private_lines.bit_length()
        shared_lines = spec.shared_lines
        shared_bits = shared_lines.bit_length()
        sites = self._load_sites
        private = self._private_loads
        shared = self._shared_loads
        chunk = alu_run(start, stop)
        for index in range(start + (group - 1 - start) % group, stop, group):
            draw = draw_float()
            if draw < intra:
                offset = getrandbits(private_bits)
                while offset >= private_lines:
                    offset = getrandbits(private_bits)
                key = offset * sites + index % sites
                instruction = private.get(key)
                if instruction is None:
                    instruction = private[key] = self._load(
                        self._private_base, key, _PC_LOAD_BASE
                    )
            elif draw < local:
                offset = getrandbits(shared_bits)
                while offset >= shared_lines:
                    offset = getrandbits(shared_bits)
                key = offset * sites + index % sites
                instruction = shared[key]
                if instruction is None:
                    instruction = shared[key] = self._load(
                        self._shared_base, key, _PC_LOAD_BASE + 100
                    )
            else:
                instruction = load(
                    self._stream_base + self._stream_cursor,
                    dep_distance=self._dep,
                    pc=_PC_LOAD_BASE + 200,  # a single streaming load site
                )
                self._stream_cursor += 1
            chunk[index - start] = instruction
        return chunk


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
    :class:`repro.trace.adapter.TraceKernelSpec`) bypass the program cache
    entirely: a trace file is decoded in full, and a trace family gets fresh
    lazily filled :class:`WarpProgram` streams on every call.  Synthetic
    specs get lazily filled streams memoised in the bounded LRU above:
    every caller gets the same program objects, whose warps share one
    table of interned shared-region loads.
    """
    materialise = getattr(spec, "materialise_programs", None)
    if materialise is not None:
        return materialise()
    cached = _PROGRAM_CACHE.get(spec)
    if cached is None:
        shared_loads = shared_load_table(spec)
        cached = tuple(
            WarpProgram(spec, warp_id, shared_loads=shared_loads)
            for warp_id in range(spec.num_warps)
        )
        _PROGRAM_CACHE.put(spec, cached)
    return list(cached)


def fill_programs(programs: Sequence[Sequence[Instruction]]) -> None:
    """Generate every lazily filled program in ``programs`` to its end —
    benchmarks call this so the regions they time exclude generation."""
    for program in programs:
        if isinstance(program, WarpProgram):
            program.fill(len(program) - 1)
