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
  list per warp of its pending loads' first-dependent indexes (a delivered
  load removes its own value; equal values are interchangeable, so the new
  minimum is the builtin ``min`` of what is left), and an alive flag;
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
  ``max``/``min`` clamps, same ``int()`` truncation).  The busy clocks of
  the shared :class:`FastMemorySubsystem` are reloaded each time the loop
  resumes and written back each time it stops, because other SMs' loops
  serve requests in between; its request statistics are published when
  the loop is closed;
* **the MSHR file** becomes one dict from each in-flight line to its
  waiters ``(warp, first_dep, issue_cycle)``, so the capacity check is a
  ``len()``; the response heap holds ``(completion, sequence, line)`` and a
  delivery pops the line's waiters from the dict;
* **the GTO/SWL scheduler state** becomes a pollute flag list and two
  bitmasks over warp ids, ``vital`` (refreshed exactly where the legacy
  scheduler refreshes) and ``ready`` (the schedulable warps).  The
  greedy-then-oldest pick is the last warp if its bit is still set in
  ``ready & vital``, else the lowest set bit.

The whole ``deliver → pick → issue`` step is fused into one coroutine,
:meth:`FastStreamingMultiprocessor.loop`, with every piece of mutable state
bound to locals once and kept there between resumes; runs of consecutive ALU
instructions issue as a single batched update (provably equivalent: an ALU
issue changes nothing but ``pc``, the cycle counter and three counters, so
``k`` sticky ALU issues commute with the loop as long as no response is due
and the warp stays schedulable — both of which bound ``k``).  Only the
counters that are not sums or differences of others are kept per event;
``cycles``, ``busy_cycles``, ``instructions``, the miss, non-polluting and
inter-warp counts and the L2 request counts are derived when the loop
publishes.

Two classes of dead cycle advance the clock in one jump instead of one tick
each, both to ``min(next memory completion, run limit)``:

* **no-ready stalls** — no vital warp can issue, credited to
  ``cycles`` and ``stall_cycles``;
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
jump target is clamped to the resume's limit, so a jump never crosses a
controller window boundary (``run_cycles`` / ``snapshot`` /
``set_warp_tuple``) nor a barrier of the chip scheduler, and windowed
controllers see the oracle's per-window counter deltas.  Jumps need no
clamp at the resume's *horizon*: they send no request to the L2, and the
loop stops only before a new L2 request at or past the horizon (see
:mod:`repro.gpu.chip`).  A loop stopped there waits at that load: nothing
of its SM moves until it is resumed, so the resume issues the load without
picking again.

Bit-identity with the legacy core — every counter, every cycle — is pinned
by the golden-counter fixtures and by the differential Hypothesis suite in
``tests/test_fastcore_differential.py``.
"""

from __future__ import annotations

import heapq
import sys
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.gpu.config import CacheConfig, GPUConfig, MemoryConfig
from repro.gpu.counters import PerfCounters
from repro.gpu.engine import run_alone
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
    every request inline.  A chip's SMs share one instance; the chip
    scheduler resumes one SM loop at a time, and each loop reloads the busy
    clocks when it resumes and writes them back when it stops, so serving
    requests from locals in between is exact.
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
        #: Each warp's pending loads, as their first-dependent indexes.
        self._pending: List[List[int]] = [[] for _ in range(num_warps)]
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
        #: The MSHR file: in-flight line -> its waiters, each
        #: ``(warp_id, first_dep, issue_cycle)``.
        self._mshr: Dict[int, List[Tuple[int, int, int]]] = {}
        # ``memory`` lets a chip model (repro.gpu.chip) share one L2/DRAM
        # busy-server pair across SMs; standalone SMs own a private one.
        self.memory = memory if memory is not None else FastMemorySubsystem(config.memory)

        # -- bookkeeping -------------------------------------------------------
        self.counters = PerfCounters()
        self.cycle = 0
        # (completion_cycle, sequence, line_addr); the sequence counts the
        # SM's L2 requests.
        self._responses: List[Tuple[int, int, int]] = []
        self._response_seq = 0
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
        run_alone(self, self.cycle + budget)
        return self.cycle - start

    def run_to_completion(self, max_cycles: Optional[int] = None) -> int:
        limit = self.cycle + (
            max_cycles if max_cycles is not None else self.config.max_cycles
        )
        run_alone(self, limit)
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

    def loop(self) -> Generator[Tuple[int, int], Tuple[int, int], None]:
        """The fused cycle loop as a coroutine: the core protocol of
        :mod:`repro.gpu.engine`.  State is bound to locals once; counters
        and state are published when the loop is closed."""
        cycle = start_cycle = self.cycle
        unfinished = self._unfinished
        responses = self._responses
        next_completion = responses[0][0] if responses else _NO_RESPONSE

        # ---- counter accumulators (published to self.counters on close) -----
        # Only counters that no other determines: the rest are derived on
        # close (see the ``finally`` block).
        alu_c = loads_c = stall_c = mshr_stall = 0
        l1_hit = l1_byp = pol_acc = pol_hit = intra_c = 0
        missreq_c = misslat_c = 0
        l2_hit = latency_c = 0

        # ---- state bound to locals ------------------------------------------
        pcs = self._pcs
        plens = self._plens
        minfd = self._minfd
        pending = self._pending
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
        mshr = self._mshr
        mshr_cap = self._mshr_capacity
        seq = start_seq = self._response_seq
        reuse = self.reuse_tracker
        reuse_record = reuse.record if reuse is not None else None
        policy_active = self._policy_active
        allow_allocate = self.cache_policy.allow_allocate if policy_active else None
        observe_access = self.cache_policy.observe_access if policy_active else None
        heappush = heapq.heappush
        heappop = heapq.heappop
        refresh = self._refresh_bits

        # ---- the shared L2/DRAM state: busy clocks reloaded at each resume --
        memory = self.memory
        mem_cfg = memory.config
        l2 = memory.l2
        l2_assoc = l2.assoc
        l2_latency = mem_cfg.l2_latency
        dram_latency = mem_cfg.dram_latency
        max_queue_delay = mem_cfg.max_queue_delay
        l2_service = memory.l2_service
        dram_service = memory.dram_service

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
        pend_w: List[int] = []

        try:
            while True:
                limit, horizon = yield cycle, unfinished
                l2_busy = memory._l2_busy_until
                dram_busy = memory._dram_busy_until
                while cycle < limit and unfinished:
                    # ---- deliver memory responses due this cycle ------------
                    while next_completion <= cycle:
                        completion, _, line = heappop(responses)
                        for wid, fd, issue_cycle in mshr.pop(line):
                            pend = pending[wid]
                            pend.remove(fd)
                            # Each waiter is charged its own latency: merged loads
                            # issue later than the primary, so their round trip is
                            # shorter.
                            missreq_c += 1
                            misslat_c += completion - issue_cycle
                            if fd == minfd[wid]:
                                minfd[wid] = min(pend) if pend else _NO_BLOCK
                            pc = pcs[wid]
                            if not pend and pc >= plens[wid]:
                                alive[wid] = False
                                unfinished -= 1
                                refresh()
                                vital = self._vital
                            elif pc < plens[wid] and pc < minfd[wid]:
                                # The raised min-first-dependent may have
                                # unblocked the warp.
                                ready |= 1 << wid
                        next_completion = responses[0][0] if responses else _NO_RESPONSE

                    # ---- pick a warp: sticky, else the oldest ready vital one
                    candidates = ready & vital
                    if not candidates:
                        # No vital warp can issue: jump to the next completion (the
                        # delivery loop left it in the future).  With none in flight
                        # the last warp retired above, and the oracle's step ends
                        # with one stall cycle.
                        if responses:
                            target = (
                                next_completion if next_completion < limit else limit
                            )
                        else:
                            target = cycle + 1
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
                        pend_w = pending[wid]

                    if pc >= filled_w:
                        filled_w = fills[wid](pc)
                    inst = prog_w[pc]
                    line = inst.line_addr
                    if line is None:
                        # ---- ALU burst: issue every consecutive sticky ALU slot
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
                        alu_c += k
                        cycle += k
                    else:
                        # ---- load issue: one set lookup, the L2/DRAM inline -
                        polluting = pollute[wid]
                        if policy_active:
                            allocate = polluting and allow_allocate(inst, wid)
                        else:
                            allocate = polluting
                        l1_set = l1[line]
                        # The line's last warp, or None on a miss; a hit is
                        # re-inserted below as the set's newest line.
                        prev = l1_set.pop(line, None)
                        if prev is None:
                            waiters = mshr.get(line)
                            if waiters is None:
                                if len(mshr) >= mshr_cap:
                                    # ---- MSHR-retry span: jump to the next fill
                                    # A would-be miss with no MSHR entry (new or
                                    # merged) wastes the slot, and every cycle up
                                    # to the next response is the same wasted
                                    # slot (see the module docstring), so the span
                                    # is credited in one jump, clamped to
                                    # ``limit``.  A full MSHR file means a response
                                    # is in flight, and the delivery loop above
                                    # left it in the future, so the jump is at
                                    # least one cycle.
                                    target = (
                                        next_completion
                                        if next_completion < limit
                                        else limit
                                    )
                                    mshr_stall += target - cycle
                                    cycle = target
                                    continue
                                if cycle >= horizon:
                                    # A new L2 request at or past the horizon:
                                    # stop before any state changes, and wait
                                    # here.  Nothing of this SM moves while it
                                    # waits, so a resume that lets it issue
                                    # picks up this load without a new pass.
                                    memory._l2_busy_until = l2_busy
                                    memory._dram_busy_until = dram_busy
                                    limit, horizon = yield cycle, unfinished
                                    while cycle >= limit or cycle >= horizon:
                                        limit, horizon = yield cycle, unfinished
                                    l2_busy = memory._l2_busy_until
                                    dram_busy = memory._dram_busy_until

                        loads_c += 1
                        pol_acc += polluting
                        if reuse_record is not None:
                            reuse_record(wid, line)
                        if policy_active:
                            observe_access(inst, wid, prev is not None)
                        npc = pc + 1
                        pcs[wid] = npc
                        if prev is not None:
                            l1_hit += 1
                            pol_hit += polluting
                            if prev == wid:
                                intra_c += 1
                            l1_set[line] = wid
                        else:
                            if allocate:
                                if len(l1_set) >= l1_assoc:
                                    del l1_set[next(iter(l1_set))]
                                l1_set[line] = wid
                            else:
                                l1_byp += 1
                            fd = pc + inst.dep_distance + 1
                            pend_w.append(fd)
                            if fd < minfd[wid]:
                                minfd[wid] = fd
                            if waiters is not None:
                                # Merged miss: wait on the in-flight response.
                                waiters.append((wid, fd, cycle))
                            else:
                                # New miss: one request through the L2/DRAM busy
                                # servers (MemorySubsystem.request, op for op).
                                mshr[line] = [(wid, fd, cycle)]
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
                                    latency = int(
                                        l2_latency + queue_delay + dram_latency
                                        + dram_queue_delay
                                    )
                                latency_c += latency
                                completion = cycle + latency
                                seq += 1
                                heappush(responses, (completion, seq, line))
                                if completion < next_completion:
                                    next_completion = completion
                        cycle += 1

                    # ---- after an issue: the warp may block or retire -------
                    if npc >= plen_w or npc >= minfd[wid]:
                        ready ^= last_bit  # the issuing warp's bit, set at the pick
                        if npc >= plen_w and not pend_w:
                            alive[wid] = False
                            unfinished -= 1
                            refresh()
                            vital = self._vital

                memory._l2_busy_until = l2_busy
                memory._dram_busy_until = dram_busy
        finally:
            # ---- publish state and counters ---------------------------------
            self.cycle = cycle
            self._unfinished = unfinished
            self._last = last
            self._ready = ready
            self._response_seq = seq
            cycles_c = cycle - start_cycle
            l1_miss = loads_c - l1_hit
            l2_acc = seq - start_seq
            memory.requests += l2_acc
            memory.l2_accesses += l2_acc
            memory.l2_hits += l2_hit
            memory.dram_accesses += l2_acc - l2_hit
            memory.total_latency += latency_c
            c = self.counters
            c.cycles += cycles_c
            c.busy_cycles += cycles_c - stall_c
            c.stall_cycles += stall_c
            c.instructions += alu_c + loads_c
            c.loads += loads_c
            c.l1_accesses += loads_c
            c.l1_hits += l1_hit
            c.l1_misses += l1_miss
            c.l1_bypasses += l1_byp
            c.polluting_accesses += pol_acc
            c.polluting_hits += pol_hit
            c.nonpolluting_accesses += loads_c - pol_acc
            c.nonpolluting_hits += l1_hit - pol_hit
            c.intra_warp_hits += intra_c
            c.inter_warp_hits += l1_hit - intra_c
            c.miss_requests += missreq_c
            c.miss_latency_total += misslat_c
            c.l2_accesses += l2_acc
            c.l2_hits += l2_hit
            c.dram_accesses += l2_acc - l2_hit
            c.mshr_stall_cycles += mshr_stall
