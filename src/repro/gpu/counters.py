"""Hardware performance counters.

The hardware inference engine of Poise reconstructs its feature vector from
seven 32-bit performance counters per SM (Section VII-I).  This module keeps
a superset of those counters so that every experiment in the paper (hit-rate
breakdowns, AML, energy, IPC) can be regenerated, and supports *window*
sampling: :func:`measure_window` pins a warp tuple, optionally warms up,
then lets the SM run for the sampling interval and reads back the delta.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class PerfCounters:
    """Raw event counters accumulated by the SM."""

    cycles: int = 0
    busy_cycles: int = 0
    stall_cycles: int = 0
    instructions: int = 0
    loads: int = 0

    l1_accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l1_bypasses: int = 0

    polluting_accesses: int = 0
    polluting_hits: int = 0
    nonpolluting_accesses: int = 0
    nonpolluting_hits: int = 0

    intra_warp_hits: int = 0
    inter_warp_hits: int = 0

    miss_requests: int = 0
    miss_latency_total: int = 0

    l2_accesses: int = 0
    l2_hits: int = 0
    dram_accesses: int = 0

    mshr_stall_cycles: int = 0

    # -- arithmetic ---------------------------------------------------------------

    def copy(self) -> "PerfCounters":
        return PerfCounters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def __sub__(self, other: "PerfCounters") -> "PerfCounters":
        return PerfCounters(
            **{f.name: getattr(self, f.name) - getattr(other, f.name) for f in fields(self)}
        )

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        return PerfCounters(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    # -- derived metrics ----------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l1_miss_rate(self) -> float:
        return 1.0 - self.l1_hit_rate if self.l1_accesses else 0.0

    @property
    def polluting_hit_rate(self) -> float:
        """Hit rate observed by cache-polluting warps (``hp``)."""
        if not self.polluting_accesses:
            return 0.0
        return self.polluting_hits / self.polluting_accesses

    @property
    def nonpolluting_hit_rate(self) -> float:
        """Hit rate observed by non-polluting warps (``hnp``)."""
        if not self.nonpolluting_accesses:
            return 0.0
        return self.nonpolluting_hits / self.nonpolluting_accesses

    @property
    def intra_warp_hit_rate(self) -> float:
        """Intra-warp hits as a fraction of all L1 accesses (``η``)."""
        return self.intra_warp_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def inter_warp_hit_rate(self) -> float:
        """Inter-warp hits as a fraction of all L1 accesses."""
        return self.inter_warp_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def intra_warp_hit_share(self) -> float:
        """Intra-warp hits as a fraction of all L1 hits (Fig. 4 annotation)."""
        return self.intra_warp_hits / self.l1_hits if self.l1_hits else 0.0

    @property
    def inter_warp_hit_share(self) -> float:
        return self.inter_warp_hits / self.l1_hits if self.l1_hits else 0.0

    @property
    def aml(self) -> float:
        """Average memory latency of requests that left the L1."""
        if not self.miss_requests:
            return 0.0
        return self.miss_latency_total / self.miss_requests

    @property
    def instructions_per_load(self) -> float:
        """Average instructions between adjacent global loads (``In``)."""
        if not self.loads:
            return float(self.instructions)
        return self.instructions / self.loads

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 0.0

    def as_dict(self) -> dict:
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        raw.update(
            ipc=self.ipc,
            l1_hit_rate=self.l1_hit_rate,
            aml=self.aml,
            instructions_per_load=self.instructions_per_load,
        )
        return raw


def measure_window(sm, n: int, p: int, warmup: int, cycles: int) -> PerfCounters:
    """Pin ``(n, p)`` on ``sm``, run ``warmup`` cycles when non-zero, and
    return the counters accumulated over the next ``cycles`` cycles.

    Every offline and online sampler measures through this one window, so
    a change to how windows are taken lands once.  With ``warmup=0`` on a
    freshly built SM the window is the whole run.
    """
    sm.set_warp_tuple(n, p)
    if warmup:
        sm.run_cycles(warmup)
    before = sm.snapshot()
    sm.run_cycles(cycles)
    return sm.counters - before
