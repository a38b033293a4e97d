"""Trace subsystem: storage and replay of per-warp address traces.

The paper evaluates Poise on real benchmark address streams; this package
brings that style of trace-driven evaluation to the reproduction:

* :mod:`repro.trace.codec` — a compact, versioned, streaming binary format
  (struct-packed records inside gzip, stdlib-only) with lazy per-warp
  decoding.  A trace file is a kernel's warp programs: a completed run
  issues exactly its programs, in order, so writing the programs is the
  whole of capturing a kernel,
* :mod:`repro.trace.graphio` — a kernel graph as a directory of node
  traces plus a manifest of its dependency edges,
* :mod:`repro.trace.adapter` — :class:`TraceKernelSpec`, a drop-in
  ``KernelSpec`` whose programs come from a trace file or a trace-native
  family; flows through the profiler, every scheduler, training and the
  content-addressed result cache unmodified,
* :mod:`repro.trace.families` — structured workload families (stencil,
  transpose, gather, tree reduction, phase-mixed) that the stochastic
  synthetic generator cannot express, registered as the ``trace`` suite.

CLI: ``python -m repro trace capture|replay|gen|info``.
"""

from repro.trace.adapter import (
    TraceKernelSpec,
    trace_benchmark_from_files,
    trace_kernel_from_file,
)
from repro.trace.codec import (
    FORMAT_VERSION,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    read_trace_meta,
    read_trace_programs,
    trace_content_hash,
    trace_stats,
    write_trace,
)
from repro.trace.families import (
    FAMILY_GENERATORS,
    build_trace_benchmarks,
    family_kernel,
    family_names,
    generate_family_programs,
)

__all__ = [
    "FAMILY_GENERATORS",
    "FORMAT_VERSION",
    "TraceFormatError",
    "TraceKernelSpec",
    "TraceReader",
    "TraceWriter",
    "build_trace_benchmarks",
    "family_kernel",
    "family_names",
    "generate_family_programs",
    "read_trace_meta",
    "read_trace_programs",
    "trace_benchmark_from_files",
    "trace_content_hash",
    "trace_kernel_from_file",
    "trace_stats",
    "write_trace",
]
