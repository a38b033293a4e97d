"""Runtime infrastructure: fault-tolerant fan-out and persistent caching.

This package keeps the *how it runs* concerns — process fan-out with
per-job timeouts/retries/salvage, the content-addressed on-disk result
cache, and the deterministic fault-injection harness that proves the
recovery machinery — out of the simulator and the experiment logic.
:mod:`repro.runtime.serialization` is imported on demand by callers (not
here) because it depends on the profiling layer.
"""

from repro.runtime.cache import (
    CacheStats,
    DiskCache,
    cache_stats,
    content_key,
    reset_cache_stats,
    sweep_stale_tmps,
)
from repro.runtime.executor import (
    JobReport,
    SweepExecutor,
    resolve_jobs,
)
from repro.runtime.faults import (
    FAULTS_ENV,
    FaultInjectedError,
    FaultSpec,
    FaultSpecError,
)

__all__ = [
    "CacheStats",
    "DiskCache",
    "cache_stats",
    "content_key",
    "reset_cache_stats",
    "sweep_stale_tmps",
    "FAULTS_ENV",
    "JobReport",
    "SweepExecutor",
    "resolve_jobs",
    "FaultInjectedError",
    "FaultSpec",
    "FaultSpecError",
]
