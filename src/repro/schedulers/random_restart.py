"""Random-restart stochastic search (Section VII-J).

The alternative to Poise's learned starting point: pick a random warp-tuple,
run the same stride-halving local search Poise uses, and repeat with new
random starting points throughout execution.  Stochastic restarts avoid
local optima eventually, but pay for it with many sampling iterations and no
guarantee of starting anywhere near the optimum — which is exactly the
behaviour the paper measures (Poise outperforms it by ~22% on average).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.gpu.counters import measure_window
from repro.schedulers.base import WarpTupleController


@dataclass(frozen=True)
class RandomRestartParameters:
    epoch_cycles: int = 50_000
    warmup_cycles: int = 1_000
    sample_cycles: int = 3_000
    stride_n: int = 2
    stride_p: int = 4
    seed: int = 0


class RandomRestartController(WarpTupleController):
    """Random starting point + gradient-ascent local search, per epoch."""

    def __init__(self, params: RandomRestartParameters = RandomRestartParameters()) -> None:
        self.params = params

    def _sample(self, sm, n: int, p: int) -> float:
        params = self.params
        return measure_window(sm, n, p, params.warmup_cycles, params.sample_cycles).ipc

    def _local_search(
        self, sm, start: Tuple[int, int], max_warps: int
    ) -> Tuple[Tuple[int, int], List[Tuple[int, int]]]:
        visited = [start]
        best_ipc = self._sample(sm, *start)
        current = start
        for axis, stride in ((0, self.params.stride_n), (1, self.params.stride_p)):
            step = stride
            while step > 0:
                improved = False
                for direction in (-1, 1):
                    candidate = list(current)
                    candidate[axis] += direction * step
                    n, p = candidate
                    n = max(1, min(n, max_warps))
                    p = max(1, min(p, n))
                    candidate = (n, p)
                    if candidate == current:
                        continue
                    ipc = self._sample(sm, *candidate)
                    visited.append(candidate)
                    if ipc > best_ipc:
                        best_ipc = ipc
                        current = candidate
                        improved = True
                if not improved:
                    step //= 2
        return current, visited

    def execute(self, sm, max_cycles: int) -> Dict:
        params = self.params
        rng = random.Random(params.seed)
        max_warps = min(sm.config.max_warps, len(sm.warps))
        end_cycle = sm.cycle + max_cycles
        chosen: List[Tuple[int, int]] = []
        visited_all: List[Tuple[int, int]] = []

        while not sm.done and sm.cycle < end_cycle:
            epoch_start = sm.cycle
            n = rng.randint(1, max_warps)
            p = rng.randint(1, n)
            final, visited = self._local_search(sm, (n, p), max_warps)
            chosen.append(final)
            visited_all.extend(visited)
            sm.set_warp_tuple(*final)
            remaining = params.epoch_cycles - (sm.cycle - epoch_start)
            if remaining > 0:
                sm.run_cycles(min(remaining, max(0, end_cycle - sm.cycle)))
        return {"chosen_tuples": chosen, "visited": visited_all}
