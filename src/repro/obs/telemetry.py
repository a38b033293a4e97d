"""Run-telemetry counters: per-phase wall-clock + cache-behaviour rollups.

The telemetry layer makes the invisible parts of a run visible without
touching any content-stable artifact:

* :func:`phase` — a context manager accumulating *inclusive* wall-clock
  per named phase (``profile`` / ``train`` / ``simulate``), wrapped around
  the execution seams in :mod:`repro.experiments.common` and
  :mod:`repro.runtime.bench`, and ``generate``, around each program fill
  that builds instructions (:meth:`repro.workloads.generator.WarpProgram.fill`).
  Nested phases each accumulate their own inclusive time (a training pass
  that profiles kernels counts the profiling wall-clock under both
  ``train`` and ``profile``; a fill inside a simulation counts under both
  ``simulate`` and ``generate``).
* :func:`telemetry_snapshot` / :func:`telemetry_delta` — combine the phase
  totals with the :class:`repro.runtime.cache.CacheStats` counters into
  one plain-dict payload, so callers bracket a region of work and emit
  exactly what happened inside it.

All counters are **per process**: parallel sweep workers accumulate their
own totals, which never reach the parent through this module.  The
executor closes that gap at its own layer — every pool job ships its
cache-counter delta home with its result, surfaced as
:attr:`~repro.runtime.executor.JobReport.worker_cache` — and
:func:`add_worker_cache` folds those counters into a delta, so a
``--jobs N`` run reports both the parent's share (``cache``) and the
workers' (``cache_workers``).

This module must not import anything above :mod:`repro.runtime` — the
bench layer imports it, so a heavier import here would be circular.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

#: Accumulated per-phase totals of this process: name -> {seconds, calls}.
_PHASES: Dict[str, Dict[str, float]] = {}

TELEMETRY_FORMAT_VERSION = 1


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Accumulate the inclusive wall-clock of the ``with`` body under ``name``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        bucket = _PHASES.setdefault(name, {"seconds": 0.0, "calls": 0})
        bucket["seconds"] += elapsed
        bucket["calls"] += 1


def phase_totals() -> Dict[str, Dict[str, float]]:
    """A sorted copy of this process's accumulated phase totals."""
    return {name: dict(bucket) for name, bucket in sorted(_PHASES.items())}


def reset_phases() -> None:
    """Drop all accumulated phase totals (tests and fresh measurements)."""
    _PHASES.clear()


def phases_delta(
    before: Mapping[str, Mapping[str, float]],
    after: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> Dict[str, Dict[str, float]]:
    """Phase totals accumulated between two :func:`phase_totals` snapshots.

    Phases that saw no calls in the window are omitted, so a delta over an
    idle region is ``{}``.
    """
    after = phase_totals() if after is None else after
    delta: Dict[str, Dict[str, float]] = {}
    for name, bucket in after.items():
        base = before.get(name, {})
        seconds = float(bucket.get("seconds", 0.0)) - float(base.get("seconds", 0.0))
        calls = int(bucket.get("calls", 0)) - int(base.get("calls", 0))
        if calls > 0 or seconds > 0.0:
            delta[name] = {"seconds": seconds, "calls": calls}
    return delta


def telemetry_snapshot() -> Dict[str, Dict]:
    """The current phase totals + cache counters of this process."""
    from repro.runtime.cache import cache_stats

    return {
        "phases": phase_totals(),
        "cache": cache_stats().to_dict(),
    }


def telemetry_delta(before: Mapping[str, Mapping]) -> Dict[str, Dict]:
    """What accumulated since ``before`` (a :func:`telemetry_snapshot`)."""
    after = telemetry_snapshot()
    cache_before = before.get("cache", {})
    return {
        "phases": phases_delta(before.get("phases", {}), after["phases"]),
        "cache": {
            key: int(value) - int(cache_before.get(key, 0))
            for key, value in after["cache"].items()
        },
    }


def add_worker_cache(
    telemetry: Dict[str, Dict], worker_cache: Optional[Mapping[str, int]]
) -> Dict[str, Dict]:
    """Fold pool workers' cache counters into a :func:`telemetry_delta`.

    With any worker counters the delta gains ``cache_workers`` (their sum)
    and ``cache_combined`` (the parent's ``cache`` plus the workers');
    ``telemetry`` is updated in place and returned.
    """
    if worker_cache:
        parent = telemetry.get("cache", {})
        telemetry["cache_workers"] = dict(worker_cache)
        telemetry["cache_combined"] = {
            key: int(parent.get(key, 0)) + int(worker_cache.get(key, 0))
            for key in sorted(set(parent) | set(worker_cache))
        }
    return telemetry


def describe_run_cache(telemetry: Mapping[str, Mapping[str, int]]) -> str:
    """The cache line of a run: the combined counters with the workers'
    share in parentheses, or the parent's alone when no worker reported."""
    combined = telemetry.get("cache_combined")
    if combined is None:
        return describe_cache(telemetry.get("cache", {}))
    workers = describe_cache(telemetry.get("cache_workers", {}))
    return f"{describe_cache(combined)} (workers: {workers})"


def describe_cache(cache: Mapping[str, int]) -> str:
    """One human line for a cache-counter dict, e.g.
    ``5 hits, 3 misses (1 corrupt fallback), 3 stores``."""

    def plural(count: int, singular: str, plural_form: Optional[str] = None) -> str:
        word = singular if count == 1 else (plural_form or singular + "s")
        return f"{count} {word}"

    hits = int(cache.get("hits", 0))
    misses = int(cache.get("misses", 0))
    corrupt = int(cache.get("corrupt", 0))
    stores = int(cache.get("stores", 0))
    store_failures = int(cache.get("store_failures", 0))
    text = f"{plural(hits, 'hit')}, {plural(misses, 'miss', 'misses')}"
    if corrupt:
        text += f" ({plural(corrupt, 'corrupt fallback')})"
    text += f", {plural(stores, 'store')}"
    if store_failures:
        text += f" ({plural(store_failures, 'failed store')})"
    return text


def describe_phases(phases: Mapping[str, Mapping[str, float]]) -> str:
    """One human line for a phase-totals dict, e.g.
    ``profile 1.24s/3, simulate 0.41s/12`` (seconds / call count)."""
    parts = [
        f"{name} {float(bucket.get('seconds', 0.0)):.2f}s/{int(bucket.get('calls', 0))}"
        for name, bucket in sorted(phases.items())
    ]
    return ", ".join(parts) if parts else "none"
