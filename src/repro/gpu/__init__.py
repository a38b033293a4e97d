"""GPU simulator substrate for the Poise reproduction.

This package models a single streaming multiprocessor (SM) of a modern GPU at
cycle granularity, together with the slice of the shared memory system (L2
cache and DRAM) that the SM observes.  The model is intentionally focused on
the mechanisms Poise exercises:

* a greedy-then-oldest (GTO) warp scheduler extended with *vital* and
  *pollute* bits (the warp-tuple ``{N, p}``),
* a set-associative L1 data cache with MSHRs, LRU replacement, hash or linear
  set indexing and allocate/bypass behaviour controlled per request,
* load/use dependency stalls within each warp (the latency-tolerance
  structure of the paper's analytical model),
* a congestion-dependent L2/DRAM latency model so that average memory
  latency (AML) responds to miss traffic, and
* the performance counters Poise's hardware inference engine samples.
"""

from repro.gpu.config import (
    CacheConfig,
    EnergyConfig,
    GPUConfig,
    MemoryConfig,
    SMConfig,
    baseline_config,
)
from repro.gpu.counters import PerfCounters
from repro.gpu.energy import EnergyModel, EnergyReport
from repro.gpu.engine import ENGINE_ENV, ENGINES, resolve_engine
from repro.gpu.fastcore import FastStreamingMultiprocessor
from repro.gpu.gpu import GPU, RunResult
from repro.gpu.isa import Instruction, Opcode
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.warp import Warp

__all__ = [
    "CacheConfig",
    "ENGINE_ENV",
    "ENGINES",
    "EnergyConfig",
    "EnergyModel",
    "EnergyReport",
    "FastStreamingMultiprocessor",
    "GPU",
    "GPUConfig",
    "Instruction",
    "MemoryConfig",
    "Opcode",
    "PerfCounters",
    "RunResult",
    "SMConfig",
    "StreamingMultiprocessor",
    "Warp",
    "baseline_config",
    "resolve_engine",
]
