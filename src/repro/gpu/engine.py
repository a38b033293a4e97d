"""Simulator-engine selection.

Two engines execute kernels, bit-identically:

* ``legacy`` — :class:`repro.gpu.sm.StreamingMultiprocessor`, the original
  object-per-warp cycle loop.  It is the *oracle*: readable, heavily
  unit-tested, and the reference the optimised engine is differentially
  verified against.
* ``fast`` — :class:`repro.gpu.fastcore.FastStreamingMultiprocessor`, a
  struct-of-arrays rewrite of the same loop (flat warp and MSHR state, one
  LRU-ordered dict per L1/L2 set, a ready bitmask, and one fused cycle
  function that also serves the L2/DRAM busy servers, batches ALU runs and
  jumps no-ready stalls and MSHR-full retries).  It is the default because
  every counter it produces is pinned to the legacy core by the
  golden-counter tests and the N-way conformance harness
  (``tests/engine_conformance.py``).

Adding an engine is one registry entry here plus a branch in
:func:`repro.gpu.chip.core_class_for_engine`: the conformance harness and
golden replay enumerate :data:`ENGINES`.

Selection is the ``REPRO_ENGINE`` environment variable (``fast`` when
unset), overridable per call by the ``engine=`` parameter of
:class:`repro.gpu.gpu.GPU`, its ``build_sm``/``run_kernel``/``run_graph``
and :class:`repro.profiling.profiler.KernelProfiler` (the conformance
harness and the throughput benchmarks use them).  Because the engines are
bit-identical, cached results are engine-agnostic: no cache key anywhere
encodes the engine, so a result computed by one engine is a valid cache
hit for the other.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable naming the engine to simulate with.
ENGINE_ENV = "REPRO_ENGINE"

ENGINE_FAST = "fast"
ENGINE_LEGACY = "legacy"

#: Every recognised engine name.
ENGINES = (ENGINE_FAST, ENGINE_LEGACY)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an explicit or environment-provided engine name.

    ``engine`` wins when given; otherwise ``REPRO_ENGINE`` is consulted and
    an unset/empty variable means ``fast``.  Unknown names raise
    ``ValueError`` rather than silently simulating with the wrong core.
    """
    value = engine if engine is not None else os.environ.get(ENGINE_ENV, "")
    value = value.strip().lower() or ENGINE_FAST
    if value not in ENGINES:
        raise ValueError(
            f"unknown simulator engine {value!r} (expected one of {', '.join(ENGINES)})"
        )
    return value

