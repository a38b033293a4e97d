"""PCAL-SWL: priority-based cache allocation seeded by static warp limiting.

The paper's strongest prior-art comparison point (Section VII-C): the
dynamic PCAL search, but given the SWL profile point as its starting
position so it pays no runtime cost for the initial throttling decision.
The search then proceeds exactly as PCAL does:

1. **Parallel search in p** — PCAL evaluates candidate ``p`` values
   concurrently on different SMs; with a single simulated SM the candidates
   are evaluated in consecutive short sampling windows, which charges PCAL
   an equivalent (small) sampling cost.
2. **Hill climbing in N** — iterative ±1 steps from the SWL point, accepting
   a move only when the sampled throughput improves.  This is the step that
   is prone to the local optima discussed in Section III-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.gpu.counters import measure_window
from repro.profiling.profiler import StaticProfile
from repro.schedulers.base import WarpTupleController
from repro.schedulers.swl import derive_swl_limit


@dataclass(frozen=True)
class PCALParameters:
    warmup_cycles: int = 1_000
    sample_cycles: int = 3_000
    candidate_p: Tuple[int, ...] = (1, 2, 4, 8)
    max_hill_steps: int = 8


class PCALController(WarpTupleController):
    """PCAL-SWL dynamic search over the warp-tuple plane."""

    def __init__(
        self,
        swl_limit: Optional[int] = None,
        profile: Optional[StaticProfile] = None,
        params: PCALParameters = PCALParameters(),
    ) -> None:
        if swl_limit is None and profile is None:
            raise ValueError("PCAL-SWL needs an SWL limit or a static profile")
        if swl_limit is None:
            swl_limit = derive_swl_limit(profile)
        self.swl_limit = int(swl_limit)
        self.params = params

    # -- sampling -------------------------------------------------------------------

    def _sample(self, sm, n: int, p: int) -> float:
        params = self.params
        return measure_window(sm, n, p, params.warmup_cycles, params.sample_cycles).ipc

    # -- search ---------------------------------------------------------------------

    def _search(self, sm, max_warps: int) -> Tuple[Tuple[int, int], List[Tuple[int, int]]]:
        visited: List[Tuple[int, int]] = []
        start_n = min(self.swl_limit, max_warps)

        # Phase 1: parallel search in p at the SWL warp count.
        best_p = start_n
        best_ipc = self._sample(sm, start_n, min(start_n, start_n))
        visited.append((start_n, start_n))
        for p in self.params.candidate_p:
            if p > start_n or p == start_n:
                continue
            ipc = self._sample(sm, start_n, p)
            visited.append((start_n, p))
            if ipc > best_ipc:
                best_ipc = ipc
                best_p = p

        # Phase 2: hill climbing in N with the chosen p.
        current_n = start_n
        for _ in range(self.params.max_hill_steps):
            moved = False
            for direction in (1, -1):
                candidate_n = current_n + direction
                if not 1 <= candidate_n <= max_warps or candidate_n < best_p:
                    continue
                ipc = self._sample(sm, candidate_n, best_p)
                visited.append((candidate_n, best_p))
                if ipc > best_ipc:
                    best_ipc = ipc
                    current_n = candidate_n
                    moved = True
                    break
            if not moved:
                break
        return (current_n, best_p), visited

    def execute(self, sm, max_cycles: int) -> Dict:
        max_warps = min(sm.config.max_warps, len(sm.warps))
        end_cycle = sm.cycle + max_cycles
        final, visited = self._search(sm, max_warps)
        sm.set_warp_tuple(*final)
        if sm.cycle < end_cycle and not sm.done:
            sm.run_to_completion(end_cycle - sm.cycle)
        return {"warp_tuple": final, "visited": visited, "swl_limit": self.swl_limit}
