"""Multi-SM chip model: N SMs time-multiplexed over one shared memory.

``Chip`` instantiates ``num_sms`` cores of the selected engine class and
wires them all to a *single* L2/DRAM busy-server pair
(:class:`~repro.gpu.memory.MemorySubsystem` for the legacy engine; the
state of one, :class:`~repro.gpu.fastcore.FastMemorySubsystem`, for the
fast engine), so the interleaved request streams contend for the same
service intervals — inter-SM contention becomes a first-class measurable
instead of a constant folded into the per-SM bandwidth share.

Determinism/bit-identity contract
---------------------------------
SMs are advanced on an *absolute* cycle grid: no SM may cross a multiple of
``config.sm_quantum`` before every other live SM has reached it, and within
each quantum slice SMs run in ascending ``sm_id`` order.  Two consequences:

* the chip-global order of memory requests is a pure function of
  ``(quantum index, sm_id, per-SM request index)`` — independent of the
  controller's ``run_cycles`` window pattern, so windowed (profiled,
  controller-driven) runs and straight ``run_to_completion`` runs see the
  same contention;
* since both engines are bit-identical per window given identical memory
  responses, and the fast core's loop serves each request with
  ``MemorySubsystem.request``'s arithmetic, op for op, on the shared state
  it binds for the slice, both engines produce bit-identical counters for
  the same chip configuration (pinned by ``tests/engine_conformance``).

The chip exposes the single-SM controller protocol (``cycle``, ``counters``,
``done``, ``warp_tuple``, ``set_warp_tuple``, ``snapshot``, ``run_cycles``,
``run_to_completion``, ...), all delegated to the *home* SM (sm 0): existing
controllers, the profiler and ``GPU.run_kernel`` drive a chip unchanged.
The background SMs execute the same kernel symmetrically (the chip-level
view of one kernel spread across SMs sharing read-only data) and exist to
generate contention; their counters are reported via :meth:`sm_counters`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.gpu.config import GPUConfig
from repro.gpu.counters import PerfCounters
from repro.gpu.isa import Instruction


class Chip:
    """``num_sms`` engine cores sharing one memory subsystem.

    ``core_factory(sm_id) -> sm`` builds each core already wired to the
    shared memory; :func:`build_chip` is the usual entry point.
    """

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

    def _advance_to(self, limit: int) -> None:
        """Advance every live SM to ``limit`` in quantum-grid slices.

        Stops early once the home SM finishes: nothing observable happens
        to the kernel result after that, and background-only simulation
        would be pure wall-clock waste.
        """
        quantum = self._quantum
        sms = self.sms
        while not self._home.done:
            frontier = None
            for sm in sms:
                if not sm.done and sm.cycle < limit:
                    if frontier is None or sm.cycle < frontier:
                        frontier = sm.cycle
            if frontier is None:
                break
            boundary = min(limit, (frontier // quantum + 1) * quantum)
            for sm in sms:
                if not sm.done and sm.cycle < boundary:
                    sm.run_cycles(boundary - sm.cycle)

    def run_cycles(self, budget: int) -> int:
        start = self._home.cycle
        self._advance_to(start + budget)
        return self._home.cycle - start

    def run_to_completion(self, max_cycles: Optional[int] = None) -> int:
        budget = max_cycles if max_cycles is not None else self.config.max_cycles
        self._advance_to(self._home.cycle + budget)
        return self._home.cycle


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
