"""Struct-of-arrays fast simulator core.

The legacy :class:`~repro.gpu.sm.StreamingMultiprocessor` walks per-warp
Python objects — ``Warp`` dataclasses, ``CacheLine`` instances, MSHR entry
objects — one instruction at a time, paying an attribute lookup (or an
object allocation) for every event.  On a single core that cost is the
binding constraint on how many scenarios the reproduction can afford to
sweep.

This module re-implements the *same* cycle loop over flat, preallocated
state:

* **warps** become parallel arrays indexed by warp id: ``pc``, program
  length, the incrementally maintained minimum first-dependent index, one
  pending-load dict (token → ``(first_dep, issue_cycle)``) per warp, and an
  alive flag;
* **programs** are read in place, without a copy, as lists of (slotted,
  frozen) :class:`~repro.gpu.isa.Instruction` objects — ``line_addr is
  None`` doubles as the ALU test, so no decode pass is paid.  A lazily
  filled synthetic program (:class:`~repro.workloads.generator.WarpProgram`)
  is read through its growing ``filled`` list and refilled when a warp's
  pc reaches its end, so instructions that never issue are never built
  (profiling windows touch a few percent of a kernel's stream);
* **the L1 and L2** keep each set as one insertion-ordered dict (L1: line →
  last warp; L2: line → ``None``).  A hit re-inserts its line and an
  allocating miss on a full set deletes the first one, which is exactly the
  legacy strict-LRU victim order, with no stamps and no way scans;
* **the L2/DRAM busy servers** are served inside the loop with the legacy
  arithmetic *operation for operation* (same float products, same
  ``max``/``min`` clamps, same ``int()`` truncation); the shared
  :class:`FastMemorySubsystem` state is bound to locals when a slice starts
  and written back when it ends;
* **the MSHR file** becomes a set of in-flight line addresses (capacity
  check is a ``len()``) plus the per-line waiter lists already shared with
  the response heap;
* **the GTO/SWL scheduler state** becomes a pollute flag list and two
  bitmasks over warp ids, ``vital`` (refreshed exactly where the legacy
  scheduler refreshes) and ``ready`` (the schedulable warps).  The
  greedy-then-oldest pick is the last warp if its bit is still set in
  ``ready & vital``, else the lowest set bit.

The whole ``deliver → pick → issue`` step is fused into one function with
every piece of mutable state bound to locals; runs of consecutive ALU
instructions issue as a single batched update (provably equivalent: an ALU
issue changes nothing but ``pc``, the cycle counter and three counters, so
``k`` sticky ALU issues commute with the loop as long as no response is due
and the warp stays schedulable — both of which bound ``k``).

Two classes of dead cycle advance the clock in one jump instead of one tick
each, both to ``min(next memory completion, run limit)``:

* **no-ready stalls** — no vital warp can issue, credited to
  ``cycles`` and ``stall_cycles``.  A slice that starts with no vital warp
  ready and no response due before its limit is one such stall, credited
  before any state is bound;
* **MSHR-full retries** — the greedy-then-oldest pick lands on a load that
  would miss while every MSHR entry is in flight, so the slot is wasted and
  the warp retries.  Memory-sensitive kernels spend most of their cycles
  here.  The span is credited to ``cycles``, ``busy_cycles`` and
  ``mshr_stall_cycles``.

The retry jump is exact because nothing a retry observes can move before
the next completion-heap head:

* no response is delivered, so no MSHR entry is released, no outstanding
  load completes and no warp's min-first-dependent index changes;
* the scheduler state is frozen, so the pick returns the *same* warp with
  the *same* blocked load every cycle of the span;
* the retry path mutates nothing: the legacy oracle rolls back its
  ``instructions`` increment and touches neither the L1 nor the MSHR file,
  and the cache policy's ``allow_allocate`` is a query.

Each cycle of the span is therefore an identical MSHR-stall cycle.  Every
jump target is clamped to the run limit, so a jump never crosses a
controller window boundary (``run_cycles`` / ``snapshot`` /
``set_warp_tuple``) and windowed controllers see the oracle's per-window
counter deltas.

Bit-identity with the legacy core — every counter, every cycle — is pinned
by the golden-counter fixtures and by the differential Hypothesis suite in
``tests/test_fastcore_differential.py``.
"""

from __future__ import annotations

import heapq
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.gpu.config import CacheConfig, GPUConfig, MemoryConfig
from repro.gpu.counters import PerfCounters
from repro.gpu.isa import Instruction
from repro.gpu.reuse import ReuseDistanceTracker
from repro.gpu.sm import CacheManagementPolicy

#: Sentinel for "no outstanding load blocks anything" (mirrors warp.py).
_NO_BLOCK = sys.maxsize
#: Sentinel for "no memory response in flight".
_NO_RESPONSE = sys.maxsize


class _CacheSets(dict):
    """A cache's tag state: ``sets[line]`` is the set dict ``line`` maps to.

    Each set is a dict in LRU order, oldest line first, holding at most
    ``assoc`` lines.  The set index — linear, or the XOR-fold of
    :meth:`repro.gpu.cache.SetAssociativeCache.set_index` — is computed on
    a line's first touch and memoised as this dict's entry.
    """

    __slots__ = ("assoc", "_sets", "_hashed")

    def __init__(self, config: CacheConfig) -> None:
        super().__init__()
        self.assoc = config.assoc
        self._sets: List[dict] = [{} for _ in range(config.num_sets)]
        # The fold cannot terminate for one set, whose index is 0 anyway.
        self._hashed = config.indexing == "hash" and config.num_sets > 1

    def __missing__(self, line: int) -> dict:
        nsets = len(self._sets)
        if self._hashed:
            folded, index = line, 0
            while folded:
                index ^= folded % nsets
                folded //= nsets
            index %= nsets
        else:
            index = line % nsets
        cache_set = self[line] = self._sets[index]
        return cache_set


class FastMemorySubsystem:
    """The state of :class:`repro.gpu.memory.MemorySubsystem` (L2 sets,
    both busy-server clocks, the request statistics), read and written by
    the fused loop of :class:`FastStreamingMultiprocessor`, which serves
    every request inline.  A chip's SMs share one instance; they run one
    slice at a time, so binding it to locals per slice is exact.
    """

    __slots__ = (
        "config",
        "l2",
        "l2_service",
        "dram_service",
        "_l2_busy_until",
        "_dram_busy_until",
        "l2_accesses",
        "l2_hits",
        "dram_accesses",
        "total_latency",
        "requests",
    )

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.l2 = _CacheSets(config.l2)
        # The legacy model's per-request products, computed once.
        self.l2_service = config.l2_service_interval * config.congestion_factor
        self.dram_service = config.dram_service_interval * config.congestion_factor
        self._l2_busy_until = 0.0
        self._dram_busy_until = 0.0
        self.l2_accesses = 0
        self.l2_hits = 0
        self.dram_accesses = 0
        self.total_latency = 0
        self.requests = 0

    # -- derived statistics (API parity with MemorySubsystem) -------------------

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def average_latency(self) -> float:
        return self.total_latency / self.requests if self.requests else 0.0


class FastStreamingMultiprocessor:
    """Drop-in replacement for the legacy SM with struct-of-arrays state.

    Exposes the same public surface the controllers and the profiler use:
    ``config``, ``warps`` (length = launched warps), ``counters``, ``cycle``,
    ``done``, ``warp_tuple``, ``set_warp_tuple``, ``snapshot``,
    ``run_cycles``, ``run_to_completion``, ``reuse_tracker`` and
    ``cache_policy``.
    """

    def __init__(
        self,
        config: GPUConfig,
        programs: Sequence[Sequence[Instruction]],
        cache_policy: Optional[CacheManagementPolicy] = None,
        memory: Optional[FastMemorySubsystem] = None,
    ) -> None:
        if len(programs) > config.sm.max_warps:
            raise ValueError(
                f"kernel launches {len(programs)} warps but the scheduler supports "
                f"{config.sm.max_warps}"
            )
        self.config = config
        #: The per-warp programs as given.  ``len(sm.warps)`` is part of the
        #: controller protocol; the loop reads the instruction lists bound
        #: below.
        self.warps: Tuple[Sequence[Instruction], ...] = tuple(programs)
        num_warps = len(self.warps)
        # A lazily filled program (one with ``fill``) is read through its
        # growing ``filled`` prefix and refilled when the pc reaches its end;
        # any other program is read as it is.
        self._fills: List[Optional[Callable[[int], int]]] = [
            getattr(program, "fill", None) for program in self.warps
        ]
        self._rows: List[Sequence[Instruction]] = [
            program if fill is None else program.filled
            for program, fill in zip(self.warps, self._fills)
        ]

        # -- warp state (struct of arrays, indexed by warp id) -----------------
        self._pcs: List[int] = [0] * num_warps
        self._plens: List[int] = [len(program) for program in self.warps]
        self._minfd: List[int] = [_NO_BLOCK] * num_warps
        self._outstanding: List[Dict[int, Tuple[int, int]]] = [
            {} for _ in range(num_warps)
        ]
        self._alive: List[bool] = [length > 0 for length in self._plens]
        self._unfinished = sum(self._alive)
        #: Bit ``wid`` caches ``is_schedulable`` (pc < plen and pc < minfd);
        #: maintained at the few points either input changes.
        self._ready = 0
        for wid, alive in enumerate(self._alive):
            self._ready |= alive << wid

        # -- scheduler state (vital mask and pollute bits over the GTO order) --
        self._max_warps = config.sm.max_warps
        self._n = self._max_warps
        self._p = self._max_warps
        self._vital = 0
        self._pollute_flags: List[bool] = [False] * num_warps
        self._last = -1
        self._refresh_bits()

        # -- L1, MSHR and memory ------------------------------------------------
        self._l1 = _CacheSets(config.l1)
        self._mshr_capacity = config.l1.mshr_entries
        self._mshr_lines: set = set()
        # ``memory`` lets a chip model (repro.gpu.chip) share one L2/DRAM
        # busy-server pair across SMs; standalone SMs own a private one.
        self.memory = memory if memory is not None else FastMemorySubsystem(config.memory)

        # -- bookkeeping -------------------------------------------------------
        self.counters = PerfCounters()
        self.cycle = 0
        self._next_token = 0
        # (completion_cycle, sequence, line_addr, [(warp_id, token), ...])
        self._responses: List[Tuple[int, int, int, List[Tuple[int, int]]]] = []
        self._response_seq = 0
        self._response_waiters: Dict[int, List[Tuple[int, int]]] = {}
        self.cache_policy = cache_policy or CacheManagementPolicy()
        # The base-class hooks are no-ops; skipping them entirely keeps the
        # hot loop free of two Python calls per load without changing state.
        self._policy_active = type(self.cache_policy) is not CacheManagementPolicy
        self.reuse_tracker = (
            ReuseDistanceTracker() if config.track_reuse_distance else None
        )

    # -- public control -----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._unfinished == 0

    @property
    def warp_tuple(self) -> Tuple[int, int]:
        return self._n, self._p

    def set_warp_tuple(self, n: int, p: int) -> None:
        n = max(1, min(int(n), self._max_warps))
        p = max(1, min(int(p), n))
        self._n, self._p = n, p
        self._refresh_bits()

    def snapshot(self) -> PerfCounters:
        """Snapshot the counters for window (epoch) sampling."""
        return self.counters.copy()

    def run_cycles(self, budget: int) -> int:
        """Run for up to ``budget`` cycles (or until the kernel finishes)."""
        start = self.cycle
        self._run(self.cycle + budget)
        return self.cycle - start

    def run_to_completion(self, max_cycles: Optional[int] = None) -> int:
        limit = self.cycle + (
            max_cycles if max_cycles is not None else self.config.max_cycles
        )
        self._run(limit)
        return self.cycle

    # -- scheduler bits -----------------------------------------------------------

    def _refresh_bits(self) -> None:
        """Recompute the vital mask and pollute bits over the active warps,
        oldest first — called exactly where the legacy scheduler refreshes
        (init, warp-tuple change, warp exit)."""
        pollute = self._pollute_flags
        n, p = self._n, self._p  # p <= n is enforced by set_warp_tuple
        vital = count = 0
        for wid, alive in enumerate(self._alive):
            pollute[wid] = alive and count < p
            if alive and count < n:
                vital |= 1 << wid
                count += 1
        self._vital = vital

    # -- the fused cycle loop -----------------------------------------------------

    def _run(self, limit: int) -> None:
        cycle = self.cycle
        unfinished = self._unfinished
        if cycle >= limit or not unfinished:
            return
        responses = self._responses
        next_completion = responses[0][0] if responses else _NO_RESPONSE
        if not self._ready & self._vital and next_completion >= limit:
            # An idle slice: no vital warp can issue and nothing lands before
            # the limit, so the whole span is one no-ready stall.
            self.cycle = limit
            self.counters.cycles += limit - cycle
            self.counters.stall_cycles += limit - cycle
            return

        # ---- counter accumulators (flushed to self.counters on exit) --------
        cycles_c = busy_c = stall_c = instr_c = loads_c = 0
        l1_acc = l1_hit = l1_miss = l1_byp = 0
        pol_acc = pol_hit = npol_acc = npol_hit = 0
        intra_c = inter_c = 0
        missreq_c = misslat_c = 0
        l2_acc = l2_hit = dram_c = latency_c = 0
        mshr_stall = 0

        # ---- state bound to locals ------------------------------------------
        pcs = self._pcs
        plens = self._plens
        minfd = self._minfd
        outstanding = self._outstanding
        alive = self._alive
        pollute = self._pollute_flags
        ready = self._ready
        vital = self._vital
        last = self._last
        last_bit = 1 << last if last >= 0 else 0
        progs = self._rows
        fills = self._fills
        l1 = self._l1
        l1_assoc = l1.assoc
        mshr_lines = self._mshr_lines
        mshr_cap = self._mshr_capacity
        waiters_map = self._response_waiters
        seq = self._response_seq
        next_token = self._next_token
        reuse = self.reuse_tracker
        reuse_record = reuse.record if reuse is not None else None
        policy_active = self._policy_active
        allow_allocate = self.cache_policy.allow_allocate if policy_active else None
        observe_access = self.cache_policy.observe_access if policy_active else None
        heappush = heapq.heappush
        heappop = heapq.heappop
        refresh = self._refresh_bits

        # ---- the shared L2/DRAM state, written back on exit ------------------
        memory = self.memory
        mem_cfg = memory.config
        l2 = memory.l2
        l2_assoc = l2.assoc
        l2_latency = mem_cfg.l2_latency
        dram_latency = mem_cfg.dram_latency
        max_queue_delay = mem_cfg.max_queue_delay
        l2_service = memory.l2_service
        dram_service = memory.dram_service
        l2_busy = memory._l2_busy_until
        dram_busy = memory._dram_busy_until

        # Per-warp row cache: GTO is sticky, so consecutive issues almost
        # always come from the same warp and the row locals stay hot.
        # Instructions are read straight off the (slotted, frozen) objects —
        # ``line_addr is None`` doubles as the ALU test, so no decode pass is
        # ever paid for instructions that never issue.  ``filled_w`` is how
        # much of the row exists; a lazily filled program is refilled when
        # the pc reaches it (a fully built one is filled to ``plen_w``).
        cur = -1
        prog_w: Sequence[Instruction] = ()
        plen_w = 0
        filled_w = 0
        out_w: Dict[int, Tuple[int, int]] = {}

        while cycle < limit and unfinished:
            # ---- deliver memory responses due this cycle --------------------
            while next_completion <= cycle:
                completion, _, line, waiters = heappop(responses)
                del waiters_map[line]
                for wid, token in waiters:
                    out = outstanding[wid]
                    fd, issue_cycle = out.pop(token)
                    # Each waiter is charged its own latency: merged loads
                    # issue later than the primary, so their round trip is
                    # shorter.
                    missreq_c += 1
                    misslat_c += completion - issue_cycle
                    if fd <= minfd[wid]:
                        new_min = _NO_BLOCK
                        for pending in out.values():
                            first_dep = pending[0]
                            if first_dep < new_min:
                                new_min = first_dep
                        minfd[wid] = new_min
                    pc = pcs[wid]
                    if not out and pc >= plens[wid]:
                        alive[wid] = False
                        unfinished -= 1
                        refresh()
                        vital = self._vital
                    elif (
                        not ready >> wid & 1 and pc < plens[wid] and pc < minfd[wid]
                    ):
                        # The raised min-first-dependent unblocked the warp.
                        ready |= 1 << wid
                mshr_lines.discard(line)
                next_completion = responses[0][0] if responses else _NO_RESPONSE

            # ---- pick a warp: sticky, else the oldest ready vital one -------
            candidates = ready & vital
            if not candidates:
                # No vital warp can issue: jump to the next completion (the
                # delivery loop left it in the future).  With none in flight
                # the last warp retired above, and the oracle's step ends
                # with one stall cycle.
                if responses:
                    target = next_completion if next_completion < limit else limit
                else:
                    target = cycle + 1
                cycles_c += target - cycle
                stall_c += target - cycle
                cycle = target
                continue
            if not candidates & last_bit:
                last_bit = candidates & -candidates
                last = last_bit.bit_length() - 1
            wid = last
            pc = pcs[wid]

            if wid != cur:
                cur = wid
                prog_w = progs[wid]
                plen_w = plens[wid]
                filled_w = len(prog_w)
                out_w = outstanding[wid]

            if pc >= filled_w:
                filled_w = fills[wid](pc)
            inst = prog_w[pc]
            line = inst.line_addr
            if line is None:
                # ---- ALU burst: issue every consecutive sticky ALU slot -----
                # Bounds: the warp must stay schedulable (pc < minfd, < plen),
                # no response may become due (cycle < next_completion) and the
                # budget holds (cycle < limit).  Within those bounds each step
                # is exactly one legacy ALU issue; a burst that stops at the
                # filled length (<= plen) resumes, after a refill, on the next
                # iteration — the sticky pick returns the same warp.
                stop = minfd[wid]
                if filled_w < stop:
                    stop = filled_w
                bound = pc + (limit - cycle)
                if bound < stop:
                    stop = bound
                bound = pc + (next_completion - cycle)
                if bound < stop:
                    stop = bound
                npc = pc + 1
                while npc < stop and prog_w[npc].line_addr is None:
                    npc += 1
                k = npc - pc
                pcs[wid] = npc
                instr_c += k
                cycle += k
                cycles_c += k
                busy_c += k
            else:
                # ---- load issue: one set lookup, the L2/DRAM inline ---------
                polluting = pollute[wid]
                if policy_active:
                    allocate = polluting and allow_allocate(inst, wid)
                else:
                    allocate = polluting
                l1_set = l1[line]
                # The line's last warp, or None on a miss; a hit is
                # re-inserted below as the set's newest line.
                prev = l1_set.pop(line, None)
                if (
                    prev is None
                    and line not in mshr_lines
                    and len(mshr_lines) >= mshr_cap
                ):
                    # ---- MSHR-retry span: jump to the next fill -------------
                    # A would-be miss with no MSHR entry (new or merged)
                    # wastes the slot, and every cycle up to the next response
                    # is the same wasted slot (see the module docstring), so
                    # the span is credited in one jump, clamped to ``limit``
                    # so no window boundary is crossed.  A full MSHR file
                    # means a response is in flight, and the delivery loop
                    # above left it in the future, so the jump is at least
                    # one cycle.
                    target = next_completion if next_completion < limit else limit
                    mshr_stall += target - cycle
                    cycles_c += target - cycle
                    busy_c += target - cycle
                    cycle = target
                    continue

                instr_c += 1
                loads_c += 1
                l1_acc += 1
                if polluting:
                    pol_acc += 1
                else:
                    npol_acc += 1
                if reuse_record is not None:
                    reuse_record(wid, line)
                if policy_active:
                    observe_access(inst, wid, prev is not None)
                npc = pc + 1
                pcs[wid] = npc
                if prev is not None:
                    l1_hit += 1
                    if polluting:
                        pol_hit += 1
                    else:
                        npol_hit += 1
                    if prev == wid:
                        intra_c += 1
                    else:
                        inter_c += 1
                    l1_set[line] = wid
                else:
                    l1_miss += 1
                    if allocate:
                        if len(l1_set) >= l1_assoc:
                            del l1_set[next(iter(l1_set))]
                        l1_set[line] = wid
                    else:
                        l1_byp += 1
                    token = next_token
                    next_token += 1
                    fd = pc + inst.dep_distance + 1
                    out_w[token] = (fd, cycle)
                    if fd < minfd[wid]:
                        minfd[wid] = fd
                    if line in mshr_lines:
                        # Merged miss: attach to the in-flight response.
                        waiters_map[line].append((wid, token))
                    else:
                        # New miss: one request through the L2/DRAM busy
                        # servers (MemorySubsystem.request, op for op).
                        mshr_lines.add(line)
                        l2_acc += 1
                        l2_start = l2_busy
                        if l2_start < cycle:
                            l2_start = float(cycle)
                        queue_delay = l2_start - cycle
                        if queue_delay > max_queue_delay:
                            queue_delay = max_queue_delay
                        l2_busy = l2_start + l2_service
                        l2_set = l2[line]
                        # The L2 always allocates: a hit re-inserts its line,
                        # a miss evicts the oldest one from a full set.
                        if l2_set.pop(line, False) is None:
                            l2_set[line] = None
                            l2_hit += 1
                            latency = int(l2_latency + queue_delay)
                        else:
                            if len(l2_set) >= l2_assoc:
                                del l2_set[next(iter(l2_set))]
                            l2_set[line] = None
                            dram_start = l2_start + l2_latency
                            if dram_start < dram_busy:
                                dram_start = dram_busy
                            dram_queue_delay = dram_start - (cycle + l2_latency)
                            if dram_queue_delay > max_queue_delay:
                                dram_queue_delay = max_queue_delay
                            dram_busy = dram_start + dram_service
                            dram_c += 1
                            latency = int(
                                l2_latency + queue_delay + dram_latency
                                + dram_queue_delay
                            )
                        latency_c += latency
                        completion = cycle + latency
                        seq += 1
                        entry_waiters = [(wid, token)]
                        waiters_map[line] = entry_waiters
                        heappush(responses, (completion, seq, line, entry_waiters))
                        if completion < next_completion:
                            next_completion = completion
                cycle += 1
                cycles_c += 1
                busy_c += 1

            # ---- after an issue: the warp may block or retire --------------
            if npc >= plen_w or npc >= minfd[wid]:
                ready ^= last_bit  # the issuing warp's bit, set at the pick
                if npc >= plen_w and not out_w:
                    alive[wid] = False
                    unfinished -= 1
                    refresh()
                    vital = self._vital

        # ---- write state and counters back ----------------------------------
        self.cycle = cycle
        self._unfinished = unfinished
        self._last = last
        self._ready = ready
        self._response_seq = seq
        self._next_token = next_token
        memory._l2_busy_until = l2_busy
        memory._dram_busy_until = dram_busy
        memory.requests += l2_acc
        memory.l2_accesses += l2_acc
        memory.l2_hits += l2_hit
        memory.dram_accesses += dram_c
        memory.total_latency += latency_c
        c = self.counters
        c.cycles += cycles_c
        c.busy_cycles += busy_c
        c.stall_cycles += stall_c
        c.instructions += instr_c
        c.loads += loads_c
        c.l1_accesses += l1_acc
        c.l1_hits += l1_hit
        c.l1_misses += l1_miss
        c.l1_bypasses += l1_byp
        c.polluting_accesses += pol_acc
        c.polluting_hits += pol_hit
        c.nonpolluting_accesses += npol_acc
        c.nonpolluting_hits += npol_hit
        c.intra_warp_hits += intra_c
        c.inter_warp_hits += inter_c
        c.miss_requests += missreq_c
        c.miss_latency_total += misslat_c
        c.l2_accesses += l2_acc
        c.l2_hits += l2_hit
        c.dram_accesses += dram_c
        c.mshr_stall_cycles += mshr_stall
