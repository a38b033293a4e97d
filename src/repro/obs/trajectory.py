"""Per kernel × scheme × engine throughput trajectories across bench entries.

Raw cycles/second values from different hosts are not comparable — a
throttled CI runner is slower everywhere.  Every entry therefore gets a
**host-speed anchor**: the geometric mean of its own live legacy hot-loop
throughput over the two gate bracket kernels (the same live-legacy
reference the ``repro bench --gate`` CI gate compares against).  A
bracket's *normalized* trajectory value is ``cycles_per_second / anchor``
— both numerator and denominator pay the same host slowdown, so the
normalized series is flat across hosts unless the bracket itself changed.

Entries without a complete anchor (e.g. a run that only benchmarked the
fast engine) keep their raw points but contribute no normalized value,
and regression detection skips them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.schema import (
    HOT_LOOP_SCHEME,
    BenchEntry,
    BenchHistory,
)
from repro.runtime.bench import GATE_KERNELS

TRAJECTORY_FORMAT_VERSION = 2


@dataclass(frozen=True)
class TrajectoryPoint:
    """One bracket's measurement in one trajectory entry."""

    entry_index: int
    timestamp: str
    cycles_per_second: float
    normalized: Optional[float]  # None when the entry has no legacy anchor


@dataclass
class Trajectory:
    """The ordered measurement series of one kernel × scheme × engine."""

    kernel: str
    scheme: str
    engine: str
    points: List[TrajectoryPoint] = field(default_factory=list)

    @property
    def bracket(self) -> str:
        return f"{self.kernel}:{self.scheme}:{self.engine}"

    @property
    def normalized_values(self) -> List[float]:
        return [
            point.normalized for point in self.points if point.normalized is not None
        ]


def legacy_anchor(
    entry: BenchEntry, kernels: Sequence[str] = GATE_KERNELS
) -> Optional[float]:
    """The entry's host-speed anchor, or ``None`` when incomplete.

    Geometric mean of the live legacy hot-loop cycles/second over all
    ``kernels`` — all must be present for the anchor to be stable across
    entries.
    """
    values: List[float] = []
    for kernel in kernels:
        matches = [
            sample.cycles_per_second
            for sample in entry.samples
            if sample.kernel == kernel
            and sample.scheme == HOT_LOOP_SCHEME
            and sample.engine == "legacy"
        ]
        if not matches or matches[0] <= 0:
            return None
        values.append(matches[0])
    return math.exp(sum(math.log(value) for value in values) / len(values))


def build_trajectories(history: BenchHistory) -> Dict[str, Trajectory]:
    """Every bracket's series, keyed by ``kernel:scheme:engine``.

    Insertion order follows first appearance in the history, so older
    brackets list first and the dict is deterministic for a given file.
    """
    trajectories: Dict[str, Trajectory] = {}
    for entry in history.entries:
        anchor = legacy_anchor(entry)
        for sample in entry.samples:
            trajectory = trajectories.setdefault(
                sample.bracket,
                Trajectory(kernel=sample.kernel, scheme=sample.scheme,
                           engine=sample.engine),
            )
            trajectory.points.append(TrajectoryPoint(
                entry_index=entry.index,
                timestamp=entry.timestamp,
                cycles_per_second=sample.cycles_per_second,
                normalized=(
                    sample.cycles_per_second / anchor if anchor is not None else None
                ),
            ))
    return trajectories


def trajectory_report(history: BenchHistory) -> dict:
    """The machine-readable trajectory document ``repro analyze ci`` emits."""
    trajectories = build_trajectories(history)
    return {
        "format_version": TRAJECTORY_FORMAT_VERSION,
        "kind": "bench-trajectory",
        "source": str(history.path) if history.path is not None else None,
        "entries": [
            {
                "index": entry.index,
                "timestamp": entry.timestamp,
                "samples": len(entry.samples),
                "legacy_anchor": legacy_anchor(entry),
            }
            for entry in history.entries
        ],
        "brackets": {
            bracket: {
                "kernel": trajectory.kernel,
                "scheme": trajectory.scheme,
                "engine": trajectory.engine,
                "points": [
                    {
                        "entry_index": point.entry_index,
                        "timestamp": point.timestamp,
                        "cycles_per_second": point.cycles_per_second,
                        "normalized": point.normalized,
                    }
                    for point in trajectory.points
                ],
            }
            for bracket, trajectory in trajectories.items()
        },
    }
