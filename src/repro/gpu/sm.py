"""The streaming multiprocessor cycle loop.

The SM issues at most one instruction per cycle from the warp picked by the
GTO scheduler.  Loads probe the L1; hits return immediately, misses allocate
an MSHR (merging with an in-flight request for the same line when possible)
and travel to the L2/DRAM model, whose response is delivered through a
completion heap.  When no vital warp can issue, the clock fast-forwards to
the next memory completion and the skipped cycles are accounted as stalls —
the ``Tstall`` of the paper's analytical model.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.counters import PerfCounters
from repro.gpu.isa import Instruction, Opcode
from repro.gpu.memory import MemorySubsystem
from repro.gpu.mshr import MSHRFile
from repro.gpu.reuse import ReuseDistanceTracker
from repro.gpu.scheduler import GTOScheduler
from repro.gpu.warp import Warp, make_warps


class CacheManagementPolicy:
    """Hook for instruction-based cache-management baselines (e.g. APCM).

    ``allow_allocate`` is consulted on every L1 miss *in addition to* the
    warp's pollute bit; returning ``False`` bypasses the allocation.
    ``observe_access`` sees every L1 access outcome so the policy can learn
    per-PC locality.
    """

    def allow_allocate(self, instruction: Instruction, warp_id: int) -> bool:
        return True

    def observe_access(self, instruction: Instruction, warp_id: int, hit: bool) -> None:
        return None


class StreamingMultiprocessor:
    """A single SM (single-scheduler view) executing a set of warps."""

    def __init__(
        self,
        config: GPUConfig,
        programs: Sequence[Sequence[Instruction]],
        cache_policy: Optional[CacheManagementPolicy] = None,
        memory: Optional[MemorySubsystem] = None,
    ) -> None:
        if len(programs) > config.sm.max_warps:
            raise ValueError(
                f"kernel launches {len(programs)} warps but the scheduler supports "
                f"{config.sm.max_warps}"
            )
        self.config = config
        self.warps: List[Warp] = make_warps(programs)
        self.scheduler = GTOScheduler(self.warps, config.sm.max_warps)
        self.l1 = SetAssociativeCache(config.l1, name="l1")
        self.mshr = MSHRFile(config.l1.mshr_entries)
        # ``memory`` lets a chip model (repro.gpu.chip) share one L2/DRAM
        # busy-server pair across SMs; standalone SMs own a private one.
        self.memory = memory if memory is not None else MemorySubsystem(config.memory)
        self.counters = PerfCounters()
        self.cache_policy = cache_policy or CacheManagementPolicy()
        self.reuse_tracker = ReuseDistanceTracker() if config.track_reuse_distance else None

        self.cycle = 0
        self._next_token = 0
        # (completion_cycle, sequence, line_addr, [(warp_id, token), ...])
        self._responses: List[Tuple[int, int, int, List[Tuple[int, int]]]] = []
        self._response_seq = 0
        # line_addr -> the waiter list of its in-flight response (the same
        # list object that sits in the heap entry), so merged misses attach
        # in O(1) instead of scanning every pending response.
        self._response_waiters: dict = {}
        self._warps_by_id = {warp.wid: warp for warp in self.warps}
        # Warps retire exactly at the two ``warp.done`` checks in the cycle
        # loop, so a simple countdown replaces the per-step all-warps scan.
        self._unfinished_warps = sum(1 for warp in self.warps if not warp.done)

    # -- public control -----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._unfinished_warps == 0

    def set_warp_tuple(self, n: int, p: int) -> None:
        self.scheduler.set_warp_tuple(n, p)

    @property
    def warp_tuple(self) -> Tuple[int, int]:
        return self.scheduler.warp_tuple

    def snapshot(self) -> PerfCounters:
        """Snapshot the counters for window (epoch) sampling."""
        return self.counters.copy()

    def run_cycles(self, budget: int) -> int:
        """Run for up to ``budget`` cycles (or until the kernel finishes).

        Returns the number of cycles actually consumed.
        """
        start = self.cycle
        limit = self.cycle + budget
        while self.cycle < limit and not self.done:
            self._step(limit)
        return self.cycle - start

    def run_to_completion(self, max_cycles: Optional[int] = None) -> int:
        limit = self.cycle + (max_cycles if max_cycles is not None else self.config.max_cycles)
        while self.cycle < limit and not self.done:
            self._step(limit)
        return self.cycle

    # -- cycle loop ---------------------------------------------------------------

    def _step(self, limit: int) -> None:
        self._deliver_responses()
        warp = self.scheduler.pick()
        if warp is None:
            self._fast_forward(limit)
            return
        self._issue(warp)
        self.cycle += 1
        self.counters.cycles += 1
        self.counters.busy_cycles += 1

    def _deliver_responses(self) -> None:
        while self._responses and self._responses[0][0] <= self.cycle:
            completion, _, line_addr, waiters = heapq.heappop(self._responses)
            del self._response_waiters[line_addr]
            for warp_id, token in waiters:
                warp = self._warps_by_id[warp_id]
                pending = warp.complete_load(token)
                # Each waiter is charged its own latency: merged loads issue
                # later than the primary, so their round trip is shorter.
                latency = completion - pending.issue_cycle
                self.counters.miss_requests += 1
                self.counters.miss_latency_total += latency
                if warp.done:
                    self._unfinished_warps -= 1
                    self.scheduler.on_warp_exit()
            self.mshr.release(line_addr)

    def _fast_forward(self, limit: int) -> None:
        """No vital warp can issue: jump to the next memory completion."""
        if self._responses:
            target = min(self._responses[0][0], limit)
            skipped = max(1, target - self.cycle)
        else:
            # Vital warps are all finished but non-vital warps still have work,
            # or every remaining warp is blocked behind a full MSHR retry.
            skipped = 1
        self.cycle += skipped
        self.counters.cycles += skipped
        self.counters.stall_cycles += skipped

    def _issue(self, warp: Warp) -> None:
        instruction = warp.current_instruction()
        assert instruction is not None
        self.counters.instructions += 1
        if instruction.opcode is Opcode.ALU:
            warp.advance()
        else:
            issued = self._issue_load(warp, instruction)
            if not issued:
                # MSHR full: the slot is wasted and the warp retries later.
                self.counters.instructions -= 1
                return
        if warp.done:
            self._unfinished_warps -= 1
            self.scheduler.on_warp_exit()
        self.scheduler.note_issue(warp)

    def _issue_load(self, warp: Warp, instruction: Instruction) -> bool:
        line_addr = instruction.line_addr
        assert line_addr is not None
        polluting = self.scheduler.is_polluting(warp)
        allocate = polluting and self.cache_policy.allow_allocate(instruction, warp.wid)

        # Structural hazard: a load that will miss needs an MSHR entry (new
        # or merged); without one the access cannot issue this cycle and the
        # warp retries later.  The MSHR availability check is O(1), so it is
        # evaluated up front and the cache access itself resolves hit/miss in
        # a single set walk — a would-be miss without an MSHR aborts the
        # access (returns ``None``) before any state changes.
        mshr_available = self.mshr.lookup(line_addr) is not None or not self.mshr.full
        result = self.l1.access(
            line_addr, warp.wid, allocate=allocate, block_on_miss=not mshr_available
        )
        if result is None:
            self.counters.mshr_stall_cycles += 1
            self.mshr.stalls += 1
            return False

        self.counters.loads += 1
        self.counters.l1_accesses += 1
        if polluting:
            self.counters.polluting_accesses += 1
        else:
            self.counters.nonpolluting_accesses += 1
        if self.reuse_tracker is not None:
            self.reuse_tracker.record(warp.wid, line_addr)

        self.cache_policy.observe_access(instruction, warp.wid, result.hit)

        if result.hit:
            self.counters.l1_hits += 1
            if polluting:
                self.counters.polluting_hits += 1
            else:
                self.counters.nonpolluting_hits += 1
            if result.intra_warp:
                self.counters.intra_warp_hits += 1
            else:
                self.counters.inter_warp_hits += 1
            warp.advance()
            return True

        # Miss: needs an MSHR (merged misses share the primary's entry).
        self.counters.l1_misses += 1
        if not allocate:
            self.counters.l1_bypasses += 1
        token = self._next_token
        status = self.mshr.allocate(line_addr, warp.wid, token)
        assert status != "full"  # guaranteed by the structural check above
        self._next_token += 1
        warp.record_load_issue(token, instruction.dep_distance, self.cycle)
        warp.advance()
        if status == "allocated":
            response = self.memory.request(line_addr, self.cycle, warp.wid)
            self.counters.l2_accesses += 1
            if response.served_by == "l2":
                self.counters.l2_hits += 1
            else:
                self.counters.dram_accesses += 1
            self._response_seq += 1
            waiters = [(warp.wid, token)]
            self._response_waiters[line_addr] = waiters
            heapq.heappush(
                self._responses,
                (response.completion_cycle, self._response_seq, line_addr, waiters),
            )
        else:  # merged: attach to the in-flight response for this line
            self._response_waiters[line_addr].append((warp.wid, token))
        return True
