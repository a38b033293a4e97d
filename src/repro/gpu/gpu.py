"""Top-level kernel execution helpers.

``GPU.run_kernel`` builds an SM for a kernel's warp programs, optionally pins
a static warp-tuple, or hands control to a *controller* (a scheduling policy
such as Poise, PCAL or CCWS) that adjusts the warp-tuple while the kernel
runs.  The result bundles the performance counters, derived metrics and an
energy estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.gpu.chip import (
    Interleave,
    build_chip,
    core_class_for_engine,
    shared_memory_for_engine,
)
from repro.gpu.config import GPUConfig, baseline_config
from repro.gpu.counters import PerfCounters
from repro.gpu.energy import EnergyModel, EnergyReport
from repro.gpu.engine import resolve_engine
from repro.gpu.isa import Instruction
from repro.gpu.sm import CacheManagementPolicy


@dataclass
class RunResult:
    """Outcome of one kernel execution on one SM."""

    counters: PerfCounters
    cycles: int
    energy: EnergyReport
    warp_tuple: Tuple[int, int]
    completed: bool
    telemetry: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.counters.ipc

    @property
    def l1_hit_rate(self) -> float:
        return self.counters.l1_hit_rate

    @property
    def aml(self) -> float:
        return self.counters.aml

    def speedup_over(self, baseline: "RunResult") -> float:
        """IPC speedup of this run relative to ``baseline``."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc


@dataclass
class GraphRunResult:
    """Outcome of one DAG-structured multi-kernel execution on a chip."""

    node_results: dict  # node name -> RunResult
    schedule: tuple  # ScheduledNode per executed node, in retirement order
    makespan: int
    aggregate: PerfCounters
    completed: bool
    num_sms: int

    @property
    def aggregate_ipc(self) -> float:
        """Chip-level IPC: all instructions over the wall-clock makespan."""
        if not self.makespan:
            return 0.0
        return self.aggregate.instructions / self.makespan


class GPU:
    """Facade that runs kernels on the simulated SM.

    ``engine`` selects the simulator core (``"fast"``/``"legacy"``); when
    ``None`` the choice is deferred to build time so the ``REPRO_ENGINE``
    environment variable is honoured even if it changes after construction.
    Both engines are bit-identical on every counter, so the choice never
    affects results — only wall-clock.
    """

    def __init__(self, config: Optional[GPUConfig] = None, engine: Optional[str] = None) -> None:
        self.config = config or baseline_config()
        self.energy_model = EnergyModel(self.config.energy)
        if engine is not None:
            engine = resolve_engine(engine)  # fail fast on unknown names
        self.engine = engine

    def build_sm(
        self,
        programs: Sequence[Sequence[Instruction]],
        cache_policy: Optional[CacheManagementPolicy] = None,
        engine: Optional[str] = None,
    ):
        resolved = resolve_engine(engine if engine is not None else self.engine)
        if self.config.num_sms > 1:
            # Chip model: num_sms cores of the resolved engine sharing one
            # L2/DRAM busy-server pair.  num_sms == 1 keeps the plain-SM
            # path, so single-SM runs stay bit-for-bit the seed's.
            return build_chip(self.config, programs, resolved, cache_policy=cache_policy)
        return core_class_for_engine(resolved)(
            self.config, programs, cache_policy=cache_policy
        )

    def run_kernel(
        self,
        programs: Sequence[Sequence[Instruction]],
        warp_tuple: Optional[Tuple[int, int]] = None,
        controller=None,
        max_cycles: Optional[int] = None,
        cache_policy: Optional[CacheManagementPolicy] = None,
        engine: Optional[str] = None,
    ) -> RunResult:
        """Execute a kernel.

        Args:
            programs: one instruction sequence per warp.
            warp_tuple: a static ``(N, p)`` to pin for the whole run; defaults
                to maximum warps (the GTO baseline).
            controller: an object with ``execute(sm, max_cycles) -> dict``
                that drives the run dynamically (overrides ``warp_tuple``).
            max_cycles: cycle budget (defaults to the config's budget).
            cache_policy: optional instruction-based cache management hook.
            engine: simulator core override (``"fast"``/``"legacy"``);
                both engines produce the same counters.
        """
        sm = self.build_sm(programs, cache_policy=cache_policy, engine=engine)
        budget = max_cycles if max_cycles is not None else self.config.max_cycles
        telemetry: dict = {}
        if controller is not None:
            telemetry = controller.execute(sm, budget) or {}
        else:
            if warp_tuple is None:
                warp_tuple = (self.config.max_warps, self.config.max_warps)
            sm.set_warp_tuple(*warp_tuple)
            sm.run_to_completion(budget)
        counters = sm.counters
        return RunResult(
            counters=counters,
            cycles=counters.cycles,
            energy=self.energy_model.estimate(counters),
            warp_tuple=sm.warp_tuple,
            completed=sm.done,
            telemetry=telemetry,
        )

    def run_graph(
        self,
        graph,
        warp_tuple: Optional[Tuple[int, int]] = None,
        max_cycles: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> GraphRunResult:
        """Execute a :class:`~repro.workloads.graph.KernelGraph` on the chip.

        A deterministic list scheduler places ready nodes (dependencies
        retired) onto the lowest-numbered free SM, in topological-priority
        order, at quantum boundaries; all SMs share one L2/DRAM busy-server
        pair, so co-resident kernels contend for memory bandwidth.  The
        chip scheduler (:class:`~repro.gpu.chip.Interleave`) runs them and
        retires a node at ``min(budget, max(ceil_Q(end), start + Q))``.

        Args:
            graph: the kernel DAG; nodes are KernelSpec/TraceKernelSpec.
            warp_tuple: static ``(N, p)`` applied to every node (defaults to
                maximum warps — graph runs use static GTO scheduling).
            max_cycles: *total* chip-cycle budget; defaults to the config's
                per-kernel budget times the node count so serial chains can
                finish.
            engine: simulator core override; both engines are bit-identical.
        """
        from repro.workloads.generator import generate_kernel_programs
        from repro.workloads.graph import ScheduledNode

        resolved = resolve_engine(engine if engine is not None else self.engine)
        config = self.config
        quantum = max(1, config.sm_quantum)
        budget = (
            max_cycles
            if max_cycles is not None
            else config.max_cycles * max(1, len(graph.nodes))
        )
        if warp_tuple is None:
            warp_tuple = (config.max_warps, config.max_warps)
        memory = shared_memory_for_engine(config, resolved)
        core = core_class_for_engine(resolved)

        topo = graph.topo_order()
        priority = {name: index for index, name in enumerate(topo)}
        remaining_deps = {name: len(graph.predecessors(name)) for name in topo}
        ready = [name for name in topo if remaining_deps[name] == 0]
        free = list(range(config.num_sms))
        running: dict = {}  # sm slot -> (name, sm, start_cycle)
        schedule = []
        node_results = {}
        interleave = Interleave(quantum, budget)

        def launch_ready(clock: int) -> None:
            while ready and free:
                name = ready.pop(0)
                slot = min(free)
                free.remove(slot)
                sm = core(config, generate_kernel_programs(graph.node(name)), memory=memory)
                # Align the node's clock with the chip: completion cycles and
                # busy-server timestamps all live in absolute chip cycles.
                sm.cycle = clock
                sm.set_warp_tuple(*warp_tuple)
                running[slot] = (name, sm, clock)
                interleave.launch(slot, sm)

        def retire(slot: int, completed: bool) -> None:
            name, sm, start = running.pop(slot)
            free.append(slot)
            counters = sm.counters
            node_results[name] = RunResult(
                counters=counters,
                cycles=counters.cycles,
                energy=self.energy_model.estimate(counters),
                warp_tuple=sm.warp_tuple,
                completed=completed,
                telemetry={},
            )
            schedule.append(
                ScheduledNode(
                    name=name,
                    sm_slot=slot,
                    start_cycle=start,
                    end_cycle=sm.cycle,
                    completed=completed,
                )
            )
            if completed:
                for successor in graph.successors(name):
                    remaining_deps[successor] -= 1
                    if remaining_deps[successor] == 0:
                        ready.append(successor)
                ready.sort(key=priority.__getitem__)

        launch_ready(0)
        for clock, slots in interleave.retirements():
            for slot in slots:
                retire(slot, completed=True)
            launch_ready(clock)
        # Budget exhausted (or a dependency never completed): retire the
        # stragglers as incomplete.  Nodes never launched stay absent from
        # node_results — `completed` records the shortfall.
        for slot in sorted(running):
            retire(slot, completed=running[slot][1].done)

        aggregate = PerfCounters()
        for result in node_results.values():
            aggregate = aggregate + result.counters
        makespan = max((entry.end_cycle for entry in schedule), default=0)
        completed = len(node_results) == len(topo) and all(
            result.completed for result in node_results.values()
        )
        return GraphRunResult(
            node_results=node_results,
            schedule=tuple(schedule),
            makespan=makespan,
            aggregate=aggregate,
            completed=completed,
            num_sms=config.num_sms,
        )
