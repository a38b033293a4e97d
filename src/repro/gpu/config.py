"""Configuration objects for the GPU model.

The defaults follow Table IIIb of the paper, scaled to the single-SM /
single-scheduler view used throughout the reproduction.
The paper's GPU has 32 SMs with two schedulers per SM and 24 warps per
scheduler; Poise's warp-tuples live in the per-scheduler space ``[1..24]²``,
which is exactly what this model exposes.  The other SMs are folded into
the per-SM L2 slice and DRAM bandwidth share of :class:`MemoryConfig`.  Setting ``num_sms > 1`` simulates
that many SMs against one shared L2/DRAM pair (see ``repro.gpu.chip``);
``num_sms = 1`` keeps the seed's single-SM model bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and behaviour of a set-associative cache."""

    size_bytes: int
    assoc: int
    line_size: int
    mshr_entries: int
    indexing: str = "hash"  # "hash" or "linear"

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc

    def __post_init__(self) -> None:
        if self.assoc < 1 or self.mshr_entries < 1:
            raise ValueError("associativity and MSHR count must be positive")
        if self.size_bytes % self.line_size:
            raise ValueError("cache size must be a multiple of the line size")
        if self.num_lines % self.assoc:
            raise ValueError("number of lines must be a multiple of associativity")
        if self.indexing not in ("hash", "linear"):
            raise ValueError(f"unknown indexing scheme: {self.indexing!r}")


@dataclass(frozen=True)
class MemoryConfig:
    """The shared memory system as seen by one SM.

    The L2 capacity is this SM's effective share of the chip-wide 2.25 MB L2.
    It is set to twice the arithmetic fair share (144 KB instead of 72 KB)
    because inter-SM sharing of read-only data means an SM's resident
    footprint in a shared L2 exceeds its fair slice.  ``dram_service_interval``
    is the per-line DRAM service time for this SM's share of the off-chip
    bandwidth (GDDR5 bandwidth divided by 32 SMs is roughly one 128-byte line
    every ~28 core cycles), so the DRAM server saturates under heavy miss
    traffic exactly as the paper's bandwidth bottleneck does.  Queueing at the
    L2 and DRAM is modelled with one busy server per level;
    ``congestion_factor`` scales the per-request service interval (used by
    sensitivity studies).
    """

    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=144 * 1024, assoc=8, line_size=128, mshr_entries=64
        )
    )
    l2_latency: int = 100
    l2_service_interval: float = 4.0
    dram_latency: int = 260
    dram_service_interval: float = 28.0
    congestion_factor: float = 1.0
    max_queue_delay: int = 4000


@dataclass(frozen=True)
class SMConfig:
    """Per-SM execution parameters (single-scheduler view)."""

    max_warps: int = 24
    warp_size: int = 32


@dataclass(frozen=True)
class EnergyConfig:
    """Per-event energy in picojoules and static power in pJ/cycle.

    The absolute values are representative of a 40 nm-class GPU (the
    GPUWattch generation); only ratios matter for the reproduction of
    Fig. 14.
    """

    alu_op_pj: float = 25.0
    l1_access_pj: float = 50.0
    l2_access_pj: float = 250.0
    dram_access_pj: float = 2000.0
    static_pj_per_cycle: float = 120.0


@dataclass(frozen=True)
class GPUConfig:
    """Top-level configuration bundle."""

    sm: SMConfig = field(default_factory=SMConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=16 * 1024, assoc=4, line_size=128, mshr_entries=32
        )
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    #: Number of SMs actually simulated.  1 (the default) is the paper's
    #: single-SM / single-scheduler view — the other 31 SMs of the chip are
    #: folded into the per-SM memory shares above.  Values > 1 instantiate a
    #: chip model: that many SMs time-multiplexed against one shared L2/DRAM
    #: busy-server pair, so inter-SM contention becomes measurable.
    num_sms: int = 1
    #: Chip interleave quantum in cycles: with ``num_sms > 1`` the shared
    #: L2 serves new requests in ``(cycle // sm_quantum, sm_id, per-SM)``
    #: order (:mod:`repro.gpu.chip`), which makes every counter independent
    #: of the engine and of controller windows that end on this grid.
    sm_quantum: int = 100
    max_cycles: int = 200_000
    track_reuse_distance: bool = False

    def __post_init__(self) -> None:
        if self.num_sms < 1:
            raise ValueError("num_sms must be >= 1")
        if self.sm_quantum < 1:
            raise ValueError("sm_quantum must be >= 1")

    @property
    def max_warps(self) -> int:
        return self.sm.max_warps

    def with_l1(self, **changes) -> "GPUConfig":
        """Return a copy with modified L1 parameters (used by Fig. 12)."""
        return replace(self, l1=replace(self.l1, **changes))

    def with_l1_scale(self, scale: int) -> "GPUConfig":
        """Return a copy with the L1 capacity scaled by ``scale``."""
        return self.with_l1(size_bytes=self.l1.size_bytes * scale)

    def with_max_cycles(self, max_cycles: int) -> "GPUConfig":
        return replace(self, max_cycles=max_cycles)


def baseline_config(max_cycles: int = 200_000, **overrides) -> GPUConfig:
    """The baseline architecture of Table IIIb (single-scheduler view)."""
    config = GPUConfig(max_cycles=max_cycles)
    if overrides:
        config = replace(config, **overrides)
    return config
