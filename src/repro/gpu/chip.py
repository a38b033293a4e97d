"""Multi-SM chip model: N SMs interleaved over one shared memory.

``Chip`` instantiates ``num_sms`` cores of the selected engine class and
wires them all to a *single* L2/DRAM busy-server pair
(:class:`~repro.gpu.memory.MemorySubsystem` for the legacy engine; the
state of one, :class:`~repro.gpu.fastcore.FastMemorySubsystem`, for the
fast engine), so the interleaved request streams contend for the same
service intervals — inter-SM contention becomes a first-class measurable
instead of a constant folded into the per-SM bandwidth share.

Determinism/bit-identity contract
---------------------------------
SMs share nothing but the L2/DRAM state, and an SM reads or writes it only
when a load sends a *new* request to the L2.  A chip run is therefore
fixed by the chip-wide order of those requests, which is: by quantum index
``cycle // config.sm_quantum``, then by ``sm_id``, then by each SM's own
order — the order of running every live SM one ``sm_quantum`` slice of an
absolute cycle grid at a time, in ascending ``sm_id`` order.

:class:`Interleave` keeps that order without slicing (conservative
synchronization, after Chandy & Misra, IEEE TSE 1979).  Each SM's cycle
loop is a coroutine (the core protocol of :mod:`repro.gpu.engine`); the
live SMs wait in a heap keyed ``(cycle // sm_quantum, sm_id)``, and the
least one is resumed until it is about to send a new L2 request at or past
its *horizon* ``(q2 + (sm_id < id2)) * sm_quantum``, where ``(q2, id2)``
is the next key in the heap: every request before that precedes any the
waiting SMs can still send.  A lone SM, or one sending no request, runs
straight through.  Three *barriers* come before the horizon when earlier:

* the end of a ``Chip`` window (``run_cycles`` / ``run_to_completion``):
  every SM stops there, and the window returns when all have;
* a graph node's retirement boundary, ``min(budget, max(ceil_Q(end),
  start + Q))``: the retirement and the launches that follow it are
  processed once every live SM has reached it, and until then no SM sends
  a request at or past it;
* for a ``Chip``'s background SMs, the end of the home SM's current
  quantum, or ``ceil_Q(end)`` once the home SM has finished: a chip run
  stops at the end of the quantum in which the home SM finishes.

Consequences:

* a window end is a barrier that every SM reaches before any SM passes it.
  A window ending on the ``sm_quantum`` grid leaves the request order
  unchanged, so windows on the grid see the same contention as one
  ``run_to_completion``.  A window ending off the grid splits its quantum:
  every SM's requests before the window end precede every SM's requests
  after it, so counters can differ from an unwindowed run;
* since both engines serve each request with the same arithmetic, op for
  op, both produce bit-identical counters for the same chip configuration
  (pinned by ``tests/engine_conformance``), and both reproduce the
  quantum-grid reference loops of ``tests/chip_grid_oracle.py``.

The chip exposes the single-SM controller protocol (``cycle``, ``counters``,
``done``, ``warp_tuple``, ``set_warp_tuple``, ``snapshot``, ``run_cycles``,
``run_to_completion``, ...), all delegated to the *home* SM (sm 0): existing
controllers, the profiler and ``GPU.run_kernel`` drive a chip unchanged.
The background SMs execute the same kernel symmetrically (the chip-level
view of one kernel spread across SMs sharing read-only data) and exist to
generate contention; their counters are reported via :meth:`sm_counters`.
"""

from __future__ import annotations

import heapq
from typing import Dict, Generator, Iterator, List, Optional, Sequence, Tuple

from repro.gpu.config import GPUConfig
from repro.gpu.counters import PerfCounters
from repro.gpu.isa import Instruction


class Chip:
    """``num_sms`` engine cores sharing one memory subsystem;
    :func:`build_chip` is the usual entry point."""

    def __init__(self, config: GPUConfig, cores: Sequence, memory) -> None:
        if not cores:
            raise ValueError("a chip needs at least one SM")
        self.config = config
        self.sms: List = list(cores)
        self.memory = memory
        self._home = self.sms[0]
        self._quantum = max(1, config.sm_quantum)

    # -- controller protocol (delegated to the home SM) ---------------------------

    @property
    def cycle(self) -> int:
        return self._home.cycle

    @property
    def counters(self) -> PerfCounters:
        return self._home.counters

    @property
    def warps(self):
        return self._home.warps

    @property
    def done(self) -> bool:
        return self._home.done

    @property
    def warp_tuple(self) -> Tuple[int, int]:
        return self._home.warp_tuple

    @property
    def cache_policy(self):
        return self._home.cache_policy

    @property
    def reuse_tracker(self):
        return self._home.reuse_tracker

    def set_warp_tuple(self, n: int, p: int) -> None:
        # Symmetric chip: every SM follows the controller's tuple, so the
        # background traffic reacts to throttling the same way the home SM
        # does (throttle the chip, not one SM of it).
        for sm in self.sms:
            sm.set_warp_tuple(n, p)

    def snapshot(self) -> PerfCounters:
        return self._home.snapshot()

    # -- chip-wide views ----------------------------------------------------------

    def sm_counters(self) -> List[PerfCounters]:
        """Per-SM counters, indexed by sm_id."""
        return [sm.counters for sm in self.sms]

    def aggregate_counters(self) -> PerfCounters:
        """Field-wise sum over all SMs (note: summed ``cycles`` is SM-cycles,
        not wall cycles — divide instruction totals by the makespan for
        chip-level IPC)."""
        total = PerfCounters()
        for sm in self.sms:
            total = total + sm.counters
        return total

    # -- execution ----------------------------------------------------------------

    def run_cycles(self, budget: int) -> int:
        start = self._home.cycle
        Interleave(self._quantum, start + budget).run_window(self.sms)
        return self._home.cycle - start

    def run_to_completion(self, max_cycles: Optional[int] = None) -> int:
        budget = max_cycles if max_cycles is not None else self.config.max_cycles
        Interleave(self._quantum, self._home.cycle + budget).run_window(self.sms)
        return self._home.cycle


class Interleave:
    """The SM loops of one chip run, resumed one at a time in
    ``(cycle // quantum, sm_id)`` order (see the module docstring).

    A ``Chip`` window is :meth:`run_window`; a kernel graph is
    :meth:`launch` plus :meth:`retirements`.  Every loop the scheduler opens
    is closed, and so publishes, before the SM is reported stopped.
    """

    def __init__(self, quantum: int, limit: int) -> None:
        self.quantum = quantum
        #: No SM runs past this cycle: the window end or the graph budget.
        self.limit = limit
        #: ``(cycle // quantum, sm_id)`` of every SM waiting to resume.
        self._heap: List[Tuple[int, int]] = []
        self._loops: Dict[int, Generator] = {}
        #: Graph runs: each node's launch cycle, and ``(boundary, sm_id)``
        #: of every finished node not yet retired.
        self._starts: Dict[int, int] = {}
        self._pending: List[Tuple[int, int]] = []

    def _open(self, sid: int, sm) -> Tuple[int, int]:
        self._loops[sid] = loop = sm.loop()
        return next(loop)

    def _resume(self, sid: int, limit: int, barrier: int) -> Tuple[int, int]:
        """Resume SM ``sid``, just taken off the heap, until ``limit``; it
        stops before a new L2 request at or past the next key's horizon, or
        at or past ``barrier`` if that is earlier."""
        heap = self._heap
        horizon = barrier
        if heap:
            quantum_index, next_sid = heap[0]
            ahead = (quantum_index + (sid < next_sid)) * self.quantum
            if ahead < horizon:
                horizon = ahead
        return self._loops[sid].send((limit, horizon))

    def run_window(self, sms: Sequence) -> None:
        """Run a chip's SMs to :attr:`limit`, or to the end of the quantum
        in which the home SM (``sms[0]``) finishes if that is earlier.  A
        finished home SM runs nothing."""
        if sms[0].done:
            return
        quantum = self.quantum
        heap = self._heap
        for sid, sm in enumerate(sms):
            if not sm.done and sm.cycle < self.limit:
                cycle, _ = self._open(sid, sm)
                heapq.heappush(heap, (cycle // quantum, sid))
        # Background SMs stay within the home SM's current quantum: the home
        # SM can finish in it, and the run then ends at that quantum's end.
        bound = (sms[0].cycle // quantum + 1) * quantum
        while heap:
            sid = heapq.heappop(heap)[1]
            limit = self.limit if sid == 0 or bound > self.limit else bound
            cycle, unfinished = self._resume(sid, limit, self.limit)
            if sid == 0:
                if unfinished:
                    bound = (cycle // quantum + 1) * quantum
                else:
                    bound = self.limit = min(self.limit, -(-cycle // quantum) * quantum)
            if unfinished and cycle < self.limit:
                heapq.heappush(heap, (cycle // quantum, sid))
            else:
                self._loops.pop(sid).close()

    def launch(self, sid: int, sm) -> None:
        """Queue graph node SM ``sid`` from its current cycle; one launched
        at or past :attr:`limit` never runs."""
        start = self._starts[sid] = sm.cycle
        if start < self.limit:
            self._settle(sid, *self._open(sid, sm))

    def _settle(self, sid: int, cycle: int, unfinished: int) -> None:
        """Queue a graph node's SM again, or close its loop and, if it
        finished, hold its retirement until its boundary."""
        if unfinished and cycle < self.limit:
            heapq.heappush(self._heap, (cycle // self.quantum, sid))
            return
        self._loops.pop(sid).close()
        if not unfinished:
            quantum = self.quantum
            boundary = max(-(-cycle // quantum) * quantum, self._starts[sid] + quantum)
            heapq.heappush(self._pending, (min(self.limit, boundary), sid))

    def retirements(self) -> Iterator[Tuple[int, List[int]]]:
        """Run the launched SMs, yielding each batch of finished nodes as
        ``(boundary, sm_ids)`` in boundary order, once every live SM has
        reached the boundary.  SMs launched while a batch is out start at
        its boundary."""
        quantum = self.quantum
        heap = self._heap
        pending = self._pending
        while heap or pending:
            barrier = pending[0][0] if pending else self.limit
            if pending and (not heap or heap[0][0] * quantum >= barrier):
                batch = []
                while pending and pending[0][0] == barrier:
                    batch.append(heapq.heappop(pending)[1])
                yield barrier, batch
                continue
            sid = heapq.heappop(heap)[1]
            self._settle(sid, *self._resume(sid, self.limit, barrier))


def shared_memory_for_engine(config: GPUConfig, resolved_engine: str):
    """One shared memory subsystem matching the engine family."""
    from repro.gpu.engine import ENGINE_LEGACY

    if resolved_engine == ENGINE_LEGACY:
        from repro.gpu.memory import MemorySubsystem

        return MemorySubsystem(config.memory)
    from repro.gpu.fastcore import FastMemorySubsystem

    return FastMemorySubsystem(config.memory)


def core_class_for_engine(resolved_engine: str):
    """The SM class that simulates ``resolved_engine`` — the one place
    engine names map to cores."""
    from repro.gpu.engine import ENGINE_LEGACY

    if resolved_engine == ENGINE_LEGACY:
        from repro.gpu.sm import StreamingMultiprocessor

        return StreamingMultiprocessor
    from repro.gpu.fastcore import FastStreamingMultiprocessor

    return FastStreamingMultiprocessor


def build_chip(
    config: GPUConfig,
    programs: Sequence[Sequence[Instruction]],
    resolved_engine: str,
    cache_policy=None,
) -> Chip:
    """Build a symmetric chip: every SM runs ``programs``; only the home SM
    carries the cache policy (a per-kernel observer, and the kernel's result
    is the home SM's)."""
    memory = shared_memory_for_engine(config, resolved_engine)
    core = core_class_for_engine(resolved_engine)
    cores = []
    for sm_id in range(config.num_sms):
        cores.append(
            core(
                config,
                programs,
                cache_policy=cache_policy if sm_id == 0 else None,
                memory=memory,
            )
        )
    return Chip(config, cores, memory)
