"""Specifications for synthetic kernels and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of one synthetic kernel.

    Attributes:
        name: kernel identifier (unique within its benchmark).
        num_warps: warps launched on the scheduler (≤ 24 in the baseline).
        instructions_per_warp: total instructions each warp executes.  The
            default is large enough that kernels behave as a steady stream of
            work over any measurement window (real kernels launch far more
            thread blocks than an SM can hold, so warp supply never drains).
        instructions_per_load: average instructions between adjacent global
            loads — the paper's ``In``.  A value of 3 means every third
            instruction is a load.
        dep_distance: independent instructions between a load and its first
            use — the paper's ``Id``.
        intra_warp_fraction: probability a load touches the warp's private
            working set.
        inter_warp_fraction: probability a load touches the region shared by
            all warps.  The remaining probability is a streaming access.
        private_lines: size (in cache lines) of each warp's private working
            set; governs the reuse distance ``R``.
        shared_lines: size (in cache lines) of the shared region.
        seed: RNG seed for address generation (kernels are deterministic).
    """

    name: str
    num_warps: int = 24
    instructions_per_warp: int = 6000
    instructions_per_load: int = 3
    dep_distance: int = 5
    intra_warp_fraction: float = 0.6
    inter_warp_fraction: float = 0.2
    private_lines: int = 200
    shared_lines: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.intra_warp_fraction <= 1:
            raise ValueError("intra_warp_fraction must be in [0, 1]")
        if not 0 <= self.inter_warp_fraction <= 1:
            raise ValueError("inter_warp_fraction must be in [0, 1]")
        if self.intra_warp_fraction + self.inter_warp_fraction > 1 + 1e-9:
            raise ValueError("locality fractions must sum to at most 1")
        if self.num_warps < 1:
            raise ValueError("a kernel needs at least one warp")
        if self.instructions_per_warp < 0:
            raise ValueError("instructions_per_warp must be non-negative")
        if self.instructions_per_load < 1:
            raise ValueError("instructions_per_load must be at least 1")
        if self.dep_distance < 0:
            raise ValueError("dep_distance must be non-negative")
        if self.private_lines < 1 or self.shared_lines < 1:
            raise ValueError("working-set sizes must be positive")

    @property
    def streaming_fraction(self) -> float:
        return max(0.0, 1.0 - self.intra_warp_fraction - self.inter_warp_fraction)

    def variant(self, suffix: str, **changes) -> "KernelSpec":
        """Derive a jittered variant of this kernel (used to populate the
        multi-kernel training benchmarks)."""
        return replace(self, name=f"{self.name}_{suffix}", **changes)


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named benchmark: a suite label plus one or more kernels."""

    name: str
    suite: str
    kernels: List[KernelSpec] = field(default_factory=list)
    role: str = "evaluation"  # "training", "evaluation", "compute" or "trace"
    description: str = ""

    def __post_init__(self) -> None:
        if self.role not in ("training", "evaluation", "compute", "trace"):
            raise ValueError(f"unknown benchmark role {self.role!r}")
        if not self.kernels:
            raise ValueError("a benchmark needs at least one kernel")

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    def kernel(self, name: str) -> Optional[KernelSpec]:
        for spec in self.kernels:
            if spec.name == name:
                return spec
        return None
