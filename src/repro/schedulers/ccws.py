"""A dynamic cache-conscious warp throttling controller (CCWS-style).

Cache-Conscious Wavefront Scheduling throttles the number of schedulable
warps when it detects *lost intra-warp locality* — hits that would have
occurred had the warp's victims stayed resident.  The full design keeps a
victim tag array per warp; this controller implements the same feedback loop
at epoch granularity using the counters the simulator already maintains:

* when the intra-warp hit rate is poor and the L1 is thrashing (low overall
  hit rate with high miss traffic), reduce the warp limit;
* when the cache behaves well and warps are starved (stall cycles dominated
  by too little TLP rather than memory latency), raise the limit.

Like CCWS, it keeps ``N = p`` — scheduling and allocation are coupled — so
it can only walk the diagonal of the warp-tuple plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.gpu.counters import measure_window


@dataclass(frozen=True)
class CCWSParameters:
    epoch_cycles: int = 8_000
    thrash_hit_rate: float = 0.25
    recover_hit_rate: float = 0.55
    min_warps: int = 1
    decrease_step: int = 4
    increase_step: int = 2


class CCWSController:
    """Dynamic warp throttling with coupled allocation (diagonal only)."""

    def __init__(self, params: CCWSParameters = CCWSParameters()) -> None:
        self.params = params

    def execute(self, sm, max_cycles: int) -> Dict:
        params = self.params
        max_warps = min(sm.config.max_warps, len(sm.warps))
        limit = max_warps
        end_cycle = sm.cycle + max_cycles
        history: List[Tuple[int, float]] = []

        while not sm.done and sm.cycle < end_cycle:
            window = measure_window(
                sm, limit, limit, 0, min(params.epoch_cycles, end_cycle - sm.cycle)
            )
            hit_rate = window.l1_hit_rate
            history.append((limit, hit_rate))
            if window.l1_accesses == 0:
                continue
            if hit_rate < params.thrash_hit_rate and limit > params.min_warps:
                limit = max(params.min_warps, limit - params.decrease_step)
            elif hit_rate > params.recover_hit_rate and limit < max_warps:
                limit = min(max_warps, limit + params.increase_step)
        return {"warp_tuple": (limit, limit), "history": history}
