"""``repro cache`` — cache-root maintenance.

Subcommands::

    repro cache gc [--max-age 7d] [--dry-run] [--cache-dir DIR]

``gc`` reclaims the debris that fault-tolerant execution deliberately
leaves behind for inspection, once it is old enough that nobody is coming
back for it:

* **quarantined artifacts** — corrupt per-point files that resumed sweeps
  moved to ``quarantine/`` instead of deleting (the operator has had
  ``--max-age`` to look at them);
* **orphaned sweep trees** — ``artifacts/sweeps/<grid>/<label>/``
  directories with no point artifacts *and* no aggregated ``sweep.json``
  (an aborted or override-digest-abandoned run that never produced data);
* **stale atomic-write temp files** — ``.<name>.<pid>.<seq>.tmp`` orphans
  of writers that died mid-write, anywhere under the cache root (these use
  the executor's one-hour staleness floor, never ``--max-age``, so a live
  concurrent writer is never raced).

Everything is age-gated on mtime, ``--dry-run`` prints the plan without
deleting, and the summary reports bytes reclaimed either way.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path
from typing import List, Tuple

from repro.runtime.cache import STALE_TMP_SECONDS


def _tree_size(path: Path) -> int:
    if path.is_file():
        try:
            return path.stat().st_size
        except OSError:
            return 0
    total = 0
    for item in path.rglob("*"):
        try:
            if item.is_file():
                total += item.stat().st_size
        except OSError:
            continue
    return total


def _newest_mtime(path: Path) -> float:
    try:
        newest = path.stat().st_mtime
    except OSError:
        return 0.0
    for item in path.rglob("*"):
        try:
            newest = max(newest, item.stat().st_mtime)
        except OSError:
            continue
    return newest


def _collect(
    cache_dir: Path, max_age: float, now: float
) -> List[Tuple[str, Path, int]]:
    """The GC plan: ``(category, path, bytes)`` per reclaimable item."""
    plan: List[Tuple[str, Path, int]] = []
    sweeps = cache_dir / "artifacts" / "sweeps"

    for quarantined in sorted(sweeps.glob("*/*/quarantine/*")):
        try:
            age = now - quarantined.stat().st_mtime
        except OSError:
            continue
        if age >= max_age:
            plan.append(("quarantine", quarantined, _tree_size(quarantined)))

    for label_dir in sorted(sweeps.glob("*/*")):
        if not label_dir.is_dir():
            continue
        has_points = any((label_dir / "points").glob("*.json"))
        has_sweep = (label_dir / "sweep.json").exists()
        if has_points or has_sweep:
            continue
        quarantined_here = {
            path for category, path, _ in plan if category == "quarantine"
            and label_dir in path.parents
        }
        leftovers = [
            item
            for item in label_dir.rglob("*")
            if item.is_file() and item not in quarantined_here
            and not item.name.endswith(".tmp")
        ]
        # Only run_telemetry.json and quarantine debris make a tree an
        # orphan; any other file means someone is storing data here.
        if any(item.name != "run_telemetry.json" for item in leftovers):
            continue
        if now - _newest_mtime(label_dir) >= max_age:
            plan = [
                entry for entry in plan
                if not (entry[0] == "quarantine" and label_dir in entry[1].parents)
            ]
            plan.append(("orphaned-sweep", label_dir, _tree_size(label_dir)))

    if cache_dir.is_dir():
        for tmp in sorted(cache_dir.rglob(".*.tmp")):
            try:
                age = now - tmp.stat().st_mtime
            except OSError:
                continue
            if age >= STALE_TMP_SECONDS:
                plan.append(("stale-tmp", tmp, _tree_size(tmp)))
    return plan


def _reclaim(path: Path) -> bool:
    try:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
        return True
    except OSError as error:
        print(f"warning: could not remove {path}: {error}", file=sys.stderr)
        return False


def _prune_empty_parents(path: Path, stop: Path) -> None:
    """Remove now-empty ancestor directories up to (not including) ``stop``."""
    parent = path.parent
    while parent != stop and stop in parent.parents:
        try:
            parent.rmdir()  # fails (caught) unless empty — exactly what we want
        except OSError:
            return
        parent = parent.parent


def run(args: argparse.Namespace) -> int:
    """``repro cache gc``, the one cache subcommand."""
    cache_dir = args.cache_dir
    plan = _collect(cache_dir, args.max_age, time.time())
    if not plan:
        print(f"nothing to reclaim under {cache_dir}")
        return 0
    verb = "would reclaim" if args.dry_run else "reclaimed"
    counts: dict = {}
    reclaimed_bytes = 0
    sweeps = cache_dir / "artifacts" / "sweeps"
    for category, path, size in plan:
        if not args.dry_run and not _reclaim(path):
            continue
        counts[category] = counts.get(category, 0) + 1
        reclaimed_bytes += size
        print(f"{verb} {category:<14} {path} ({size} bytes)")
        if not args.dry_run and category in ("quarantine", "orphaned-sweep"):
            _prune_empty_parents(path, sweeps)
    breakdown = ", ".join(f"{count} {name}" for name, count in sorted(counts.items()))
    print(f"\n{verb} {reclaimed_bytes} bytes ({breakdown or 'nothing'})")
    return 0

