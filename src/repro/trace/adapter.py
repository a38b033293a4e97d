"""Trace-backed kernels that slot into the ``KernelSpec`` interface.

A :class:`TraceKernelSpec` *is a* :class:`~repro.workloads.spec.KernelSpec`
(a frozen dataclass subclass), so every consumer of kernels — the profiler
grid sweep, the scheme runners, the training pipeline, the experiments and
the disk cache — handles it unmodified.  The only difference is where its
warp programs come from: :meth:`materialise_programs` decodes a trace file
or synthesises a trace-native workload family, instead of drawing from the
three-region synthetic generator.  ``generate_kernel_programs`` dispatches
on the presence of that method, so trace kernels also bypass the generator's
bounded program cache entirely (large decoded traces are never pinned in
memory between runs).

Content addressing: for file-backed kernels, ``trace_hash`` (the SHA-256 of
the trace's uncompressed payload) is part of the dataclass and therefore of
every cache-key payload — two different traces can never collide on a cache
entry, and the same trace copied to a different path hits the same entry
(the path itself is excluded from key payloads by
``repro.runtime.serialization.spec_payload``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from repro.trace.codec import (
    TRACE_SUFFIX,
    TraceFormatError,
    TraceReader,
    read_trace_meta,
    read_trace_programs_with_hash,
)
from repro.workloads.spec import BenchmarkSpec, KernelSpec

#: ``source`` values a TraceKernelSpec may carry.
SOURCE_FILE = "file"
SOURCE_FAMILY = "family"


@dataclass(frozen=True)
class TraceKernelSpec(KernelSpec):
    """A kernel whose instruction stream is a trace, not a synthetic draw.

    Attributes (beyond :class:`KernelSpec`):
        source: ``"file"`` (a captured/stored ``.trc`` file) or ``"family"``
            (a trace-native workload family synthesised on demand).
        family: the family name for ``source == "family"``
            (see :mod:`repro.trace.families`).
        trace_path: location of the trace file for ``source == "file"``.
        trace_hash: content hash of the trace payload for file-backed
            kernels; verified on every load so a swapped or damaged file can
            never silently replay as the wrong workload.
        params: extra family parameters as a sorted tuple of ``(key, value)``
            pairs — hashable, picklable, and fully captured by cache keys.

    The inherited locality/density fields keep their synthetic meaning only
    for families that consult them (documented per family); for file-backed
    kernels they are neutral placeholders.
    """

    source: str = SOURCE_FILE
    family: str = ""
    trace_path: str = ""
    trace_hash: str = ""
    params: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.source not in (SOURCE_FILE, SOURCE_FAMILY):
            raise ValueError(f"unknown trace source {self.source!r}")
        if self.source == SOURCE_FILE and not self.trace_path:
            raise ValueError("file-backed trace kernels need a trace_path")
        if self.source == SOURCE_FAMILY and not self.family:
            raise ValueError("family-backed trace kernels need a family name")

    # -- parameters ---------------------------------------------------------------

    def param(self, key: str, default: int) -> int:
        for name, value in self.params:
            if name == key:
                return value
        return default

    # -- program materialisation --------------------------------------------------

    def materialise_programs(self) -> List[Sequence["object"]]:
        """Produce the per-warp instruction streams for this kernel: a trace
        file decoded in full, or a family's lazily filled streams.

        This is the dispatch point ``generate_kernel_programs`` looks for;
        its presence marks the spec as trace-backed.
        """
        if self.source == SOURCE_FAMILY:
            from repro.trace.families import generate_family_programs

            return generate_family_programs(self)
        programs, actual = read_trace_programs_with_hash(self.trace_path)
        if self.trace_hash and actual != self.trace_hash:
            raise TraceFormatError(
                f"trace {self.trace_path} content hash {actual[:16]}… does not match "
                f"the expected {self.trace_hash[:16]}… — the file was replaced or damaged"
            )
        return programs


def trace_kernel_from_file(
    path: Union[str, Path], name: str = "", verify: bool = True
) -> TraceKernelSpec:
    """Build a file-backed :class:`TraceKernelSpec` from a ``.trc`` file.

    With ``verify=True`` (the default) the trace is decoded once, lazily and
    in bounded memory, to validate it end to end and pin its content hash;
    otherwise only the header is read.
    """
    path = Path(path)
    if verify:
        # One streaming pass: per-warp sizes and the payload hash together.
        with TraceReader(path) as reader:
            meta, num_warps = dict(reader.meta), reader.num_warps
            instructions_per_warp = 1
            for _warp_id, program in reader.iter_warps():
                instructions_per_warp = max(instructions_per_warp, len(program))
            content_hash = reader.content_hash()
    else:
        meta, num_warps = read_trace_meta(path)
        counts = meta.get("instruction_counts") or []
        instructions_per_warp = max((int(count) for count in counts), default=1)
        content_hash = ""
    kernel_name = name or str(meta.get("kernel") or path.stem)
    return TraceKernelSpec(
        name=kernel_name,
        num_warps=max(1, num_warps),
        instructions_per_warp=max(1, instructions_per_warp),
        # Neutral placeholders: a trace carries its own addresses, so the
        # synthetic locality knobs do not apply.
        intra_warp_fraction=0.0,
        inter_warp_fraction=0.0,
        source=SOURCE_FILE,
        trace_path=str(path),
        trace_hash=content_hash,
    )


def trace_benchmark_from_files(
    name: str,
    paths: "List[Union[str, Path]]",
    suite: str = "Trace",
    description: str = "",
    verify: bool = True,
) -> BenchmarkSpec:
    """Bundle trace files into a :class:`BenchmarkSpec` (role ``trace``).

    The result satisfies the full benchmark interface, so it can be handed
    to ``run_scheme_on_benchmark``-style aggregation unmodified.
    """
    kernels = [trace_kernel_from_file(path, verify=verify) for path in paths]
    return BenchmarkSpec(
        name=name,
        suite=suite,
        role="trace",
        description=description or f"trace replay of {len(kernels)} captured kernel(s)",
        kernels=kernels,
    )


def default_trace_filename(kernel_name: str) -> str:
    return f"{kernel_name}{TRACE_SUFFIX}"
