"""The chip's quantum-grid loops: the reference every chip run must equal.

These are ``Chip._advance_to`` and the quantum loop of ``GPU.run_graph`` as
they were before the event-ordered scheduler
(:class:`repro.gpu.chip.Interleave`) replaced them, kept unchanged but for
their names and the harness around them.  Every live SM runs one
``sm_quantum`` slice of an absolute cycle grid at a time, in ascending SM
order, through its own ``run_cycles``; a graph's finished nodes retire and
its ready nodes launch between slices.  ``tests/test_chip_scheduler.py``
asserts that both engines reproduce them under the scheduler.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.gpu.chip import Chip, build_chip, core_class_for_engine, shared_memory_for_engine
from repro.gpu.counters import PerfCounters
from repro.gpu.engine import resolve_engine
from repro.gpu.gpu import GPU, GraphRunResult, RunResult


class GridChip(Chip):
    """A chip advanced in quantum-grid slices."""

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


def build_grid_chip(config, programs, engine: str, cache_policy=None) -> GridChip:
    """:func:`repro.gpu.chip.build_chip`, advanced on the grid."""
    chip = build_chip(config, programs, resolve_engine(engine), cache_policy=cache_policy)
    return GridChip(config, chip.sms, chip.memory)


def run_graph(
    gpu: GPU,
    graph,
    warp_tuple: Optional[Tuple[int, int]] = None,
    max_cycles: Optional[int] = None,
    engine: Optional[str] = None,
) -> GraphRunResult:
    """``gpu.run_graph(graph, ...)``, run on the quantum grid."""
    from repro.workloads.generator import generate_kernel_programs
    from repro.workloads.graph import ScheduledNode

    resolved = resolve_engine(engine if engine is not None else gpu.engine)
    config = gpu.config
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
    clock = 0

    def launch_ready() -> None:
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

    def retire(slot: int, completed: bool) -> None:
        name, sm, start = running.pop(slot)
        free.append(slot)
        counters = sm.counters
        node_results[name] = RunResult(
            counters=counters,
            cycles=counters.cycles,
            energy=gpu.energy_model.estimate(counters),
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

    launch_ready()
    while running and clock < budget:
        frontier = min(sm.cycle for _, sm, _ in running.values())
        boundary = min(budget, (frontier // quantum + 1) * quantum)
        for slot in sorted(running):
            _, sm, _ = running[slot]
            if not sm.done and sm.cycle < boundary:
                sm.run_cycles(boundary - sm.cycle)
        clock = boundary
        for slot in sorted(running):
            if running[slot][1].done:
                retire(slot, completed=True)
        launch_ready()
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
