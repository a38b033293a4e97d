"""Content-addressed on-disk result cache.

Results (static profiles, scheme and graph runs, trained models) are keyed
by the SHA-256 of a canonical-JSON description of *everything that
determines the result*: for a run, the kernel spec, the full GPU
configuration, the scheme and its run knobs, and the package version.  Two
configs that differ in any run-affecting knob therefore hash to different
entries — there is no "same label, different knobs" collision by
construction.

Layout::

    <cache_dir>/runs/<sha256>.json      # profiles, scheme runs, graph runs
    <cache_dir>/model-<sha256>.json     # trained models

Entries are written atomically (temp file + ``os.replace``) so a concurrent
or interrupted writer can never leave a half-written entry behind, and a
corrupted or truncated entry is treated as a miss (and deleted) rather than
an error — the caller simply recomputes.

A writer that dies *between* creating its temp file and renaming it leaves
a ``.<name>.<pid>.<seq>.tmp`` orphan behind; those are swept by
:func:`sweep_stale_tmps` (stale = older than an hour, so live concurrent
writers are never raced) on the first :class:`DiskCache` construction per
directory and at the start of every sweep run.  Both cache operations are
fault-injection sites (``cache.store`` / ``cache.load`` in
:mod:`repro.runtime.faults`): an injected transient ``OSError`` must
degrade to recomputation, never to a wrong result.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Set, Union

from repro.runtime.faults import maybe_raise

_FORMAT_VERSION = 1


@dataclass
class CacheStats:
    """Per-process counters of every :class:`DiskCache` lookup and store.

    ``corrupt`` counts lookups that found an entry but could not trust it
    (truncated JSON, wrong format version, an injected ``cache.load``
    fault) — each such lookup also counts as a miss, because the caller
    recomputes.  ``store_failures`` counts best-effort stores that were
    swallowed.  The counters are process-global (one simulator run touches
    many cache directories) and per process: parallel workers accumulate
    their own, which never reach the parent.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0
    store_failures: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stores": self.stores,
            "store_failures": self.store_failures,
        }

    def snapshot(self) -> "CacheStats":
        return CacheStats(**self.to_dict())

    def delta(self, before: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            corrupt=self.corrupt - before.corrupt,
            stores=self.stores - before.stores,
            store_failures=self.store_failures - before.store_failures,
        )


#: The process-wide counters; read through :func:`cache_stats`.
_CACHE_STATS = CacheStats()


def cache_stats() -> CacheStats:
    """The live process-wide cache counters (mutating object, not a copy)."""
    return _CACHE_STATS


def reset_cache_stats() -> None:
    """Zero the process-wide cache counters (tests and fresh measurements)."""
    _CACHE_STATS.hits = 0
    _CACHE_STATS.misses = 0
    _CACHE_STATS.corrupt = 0
    _CACHE_STATS.stores = 0
    _CACHE_STATS.store_failures = 0

#: Temp files untouched for this long are considered orphaned by a dead
#: writer (a live atomic write lasts milliseconds).
STALE_TMP_SECONDS = 3600.0

#: Per-process sequence number making temp names unique even when several
#: threads of one process race a store on the same key.
_TMP_SEQUENCE = itertools.count()

#: Directories already swept for stale temp files in this process.
_SWEPT_ROOTS: Set[Path] = set()


def sweep_stale_tmps(
    directory: Union[str, Path], max_age_seconds: float = STALE_TMP_SECONDS
) -> int:
    """Remove orphaned atomic-write temp files; returns the number removed.

    Only files matching the ``.<name>.<pid>[.<seq>].tmp`` pattern *and*
    older than ``max_age_seconds`` are touched, so a concurrent writer's
    in-flight temp file is never deleted from under it.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    now = time.time()
    for tmp in directory.glob(".*.tmp"):
        try:
            if now - tmp.stat().st_mtime >= max_age_seconds:
                tmp.unlink()
                removed += 1
        except OSError:
            continue  # already gone, or unreadable — not ours to force
    return removed


def content_key(payload: dict) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def atomic_write_json(
    path: Path,
    payload: dict,
    indent: Optional[int] = None,
    trailing_newline: bool = False,
) -> Path:
    """Write sorted-keys JSON via a temp file + ``os.replace``.

    The single atomic-write implementation behind the result cache,
    experiment artifacts and sweep-point artifacts: a concurrent or
    interrupted writer can never leave a half-written document behind.
    Errors propagate — callers that treat persistence as best-effort wrap
    the call themselves.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=indent, sort_keys=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_TMP_SEQUENCE)}.tmp")
    try:
        tmp.write_text(text + "\n" if trailing_newline else text)
        os.replace(tmp, path)
    except BaseException:
        # Never leave a temp file behind on a failed write (a writer killed
        # mid-write still can; sweep_stale_tmps reclaims those later).
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return path


class DiskCache:
    """A directory of content-addressed JSON documents, each named
    ``<prefix><sha256>.json``."""

    def __init__(
        self, cache_dir: Union[str, Path], subdir: str = "runs", prefix: str = ""
    ) -> None:
        self.root = Path(cache_dir) / subdir
        self.prefix = prefix
        # Reclaim temp files orphaned by writers that died mid-write; once
        # per directory per process so hot cache paths stay glob-free.
        if self.root not in _SWEPT_ROOTS:
            _SWEPT_ROOTS.add(self.root)
            sweep_stale_tmps(self.root)

    def path_for(self, payload: dict) -> Path:
        return self.root / f"{self.prefix}{content_key(payload)}.json"

    def load(self, payload: dict, decode: Optional[Callable[[Any], Any]] = None) -> Any:
        """Return the cached result for ``payload``, or ``None`` on a miss.

        ``decode`` turns the stored document into the result.  A corrupted,
        truncated or wrong-format entry, or one ``decode`` rejects, counts
        as a miss; the offending file is removed so the recomputed result
        can replace it.
        """
        path = self.path_for(payload)
        try:
            maybe_raise("cache.load")
            document = json.loads(path.read_text())
            if document.get("format_version") != _FORMAT_VERSION:
                raise ValueError("unsupported cache format")
            result = document["result"]
            if decode is not None:
                result = decode(result)
        except FileNotFoundError:
            _CACHE_STATS.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            _CACHE_STATS.corrupt += 1
            _CACHE_STATS.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        _CACHE_STATS.hits += 1
        return result

    def store(self, payload: dict, result: dict) -> Optional[Path]:
        """Atomically write ``result`` for ``payload``; best-effort on errors."""
        document = {"format_version": _FORMAT_VERSION, "result": result}
        try:
            maybe_raise("cache.store")
            path = atomic_write_json(self.path_for(payload), document)
        except (OSError, TypeError, ValueError):
            _CACHE_STATS.store_failures += 1
            return None  # caching is best-effort, never fatal
        _CACHE_STATS.stores += 1
        return path

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in self.root.glob(f"{self.prefix}*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
