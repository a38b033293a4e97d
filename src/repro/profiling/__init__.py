"""Offline profiling substrate.

Profiling sweeps a kernel over the ``{N, p}`` warp-tuple plane and records
the throughput at every point — the static profiles of Figures 2, 5 and 17.
The same machinery powers:

* the training-set targets of the machine learning framework,
* the SWL / PCAL-SWL starting points (which the paper derives from offline
  profiling),
* the Static-Best oracle,
* the ``Pbest`` memory-sensitivity metric (speedup with a 64× larger L1).
"""

from repro.profiling.metrics import (
    arithmetic_mean,
    euclidean_displacement,
    geometric_mean,
    harmonic_mean,
    harmonic_mean_speedup,
    normalize,
)
from repro.profiling.profiler import (
    KernelProfiler,
    StaticProfile,
    measure_pbest,
)

__all__ = [
    "KernelProfiler",
    "StaticProfile",
    "arithmetic_mean",
    "euclidean_displacement",
    "geometric_mean",
    "harmonic_mean",
    "harmonic_mean_speedup",
    "measure_pbest",
    "normalize",
]
