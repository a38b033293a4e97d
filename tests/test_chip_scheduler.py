"""The event-ordered chip scheduler (:class:`repro.gpu.chip.Interleave`).

* **the grid oracle** — under the scheduler, both engines reproduce the
  quantum-grid loops it replaced (``tests/chip_grid_oracle.py``, run on the
  legacy oracle engine): random small graphs on random chips under any
  budget (schedule, makespan, every node's counters), and random windowed
  ``Chip`` scripts (windows of 1–700 cycles, warp-tuple changes, a home SM
  that finishes mid-window; every window's counters and SM clocks, and
  every ``sm_counters()`` entry);
* **the ordering contract** — a window end is a barrier that every SM
  reaches before any passes it: windows on the ``sm_quantum`` grid leave a
  chip's counters as one ``run_to_completion`` leaves them, and windows
  off the grid do not;
* **the saving** — a chain graph resumes each node's SM once, and the
  diamond resumes fewer times than the grid makes ``run_cycles`` calls;
* **no reference cycle** — every SM of a graph run or of a windowed chip
  is freed with its last reference, without the cyclic collector.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chip_grid_oracle
from engine_conformance import NO_SHRINK, ORACLE, kernel_specs, multi_sm_archs, small_graphs
from repro.gpu.chip import build_chip, core_class_for_engine
from repro.gpu.config import baseline_config
from repro.gpu.engine import ENGINES
from repro.gpu.gpu import GPU
from repro.runtime import serialization
from repro.schedulers.apcm import APCMPolicy
from repro.workloads.generator import generate_kernel_programs
from repro.workloads.graph import shaped_graph
from repro.workloads.registry import get_benchmark
from test_graph_workloads import _chip_config, _diamond, _spec


def _graph_view(result) -> dict:
    """Everything a graph run reports, as plain data."""
    return {
        "nodes": {
            name: serialization.run_result_to_dict(node)
            for name, node in sorted(result.node_results.items())
        },
        "schedule": [entry.as_dict() for entry in result.schedule],
        "makespan": result.makespan,
        "completed": result.completed,
    }


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(
    graph=small_graphs,
    config=multi_sm_archs,
    budget=st.one_of(st.none(), st.integers(1, 20_000)),
)
def test_graphs_match_the_grid_oracle(graph, config, budget):
    oracle = _graph_view(
        chip_grid_oracle.run_graph(GPU(config), graph, max_cycles=budget, engine=ORACLE)
    )
    for engine in ENGINES:
        ran = _graph_view(GPU(config).run_graph(graph, max_cycles=budget, engine=engine))
        assert ran["schedule"] == oracle["schedule"], engine
        assert ran == oracle, engine


def _drive(chip, script) -> list:
    """Replay ``(n, p, window)`` steps, then run to completion: each
    window's consumed cycles, home-counter delta and SM clocks, then the
    final clock and every SM's counters."""
    trail = []
    for n, p, window in script:
        chip.set_warp_tuple(n, p)
        before = chip.snapshot()
        consumed = chip.run_cycles(window)
        delta = serialization.counters_to_dict(chip.counters - before)
        trail.append((consumed, delta, [sm.cycle for sm in chip.sms]))
    chip.run_to_completion(60_000)
    sm_counters = [serialization.counters_to_dict(c) for c in chip.sm_counters()]
    trail.append((chip.cycle, chip.done, sm_counters))
    return trail


chip_scripts = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 700)),
    min_size=1,
    max_size=24,
)


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(spec=kernel_specs, config=multi_sm_archs, script=chip_scripts, apcm=st.booleans())
def test_windowed_chips_match_the_grid_oracle(spec, config, script, apcm):
    programs = generate_kernel_programs(spec)

    def policy() -> Optional[APCMPolicy]:
        return APCMPolicy() if apcm else None

    oracle = _drive(
        chip_grid_oracle.build_grid_chip(config, programs, ORACLE, cache_policy=policy()),
        script,
    )
    for engine in ENGINES:
        chip = build_chip(config, programs, engine, cache_policy=policy())
        assert _drive(chip, script) == oracle, engine


@pytest.mark.parametrize("bench", ["mm", "bfs", "stencil"])
def test_window_ends_are_barriers_and_only_grid_windows_keep_the_order(bench):
    """On a 2-SM chip, 40,000 cycles of the benchmark's first kernel: every
    window ends with every SM at the window end; 100-cycle windows (on the
    grid) reproduce one ``run_to_completion``, and 1,234- and 777-cycle
    windows (off the grid) do not."""
    config = baseline_config(num_sms=2)
    programs = generate_kernel_programs(get_benchmark(bench).kernels[0])
    horizon = 40_000

    def sm_counters(window: Optional[int]) -> list:
        chip = GPU(config).build_sm(programs)
        if window is None:
            chip.run_to_completion(horizon)
        while chip.cycle < horizon and not chip.done:
            chip.run_cycles(min(window, horizon - chip.cycle))
            assert [sm.cycle for sm in chip.sms] == [chip.cycle] * len(chip.sms)
        assert chip.cycle == horizon
        return [serialization.counters_to_dict(c) for c in chip.sm_counters()]

    whole = sm_counters(None)
    assert sm_counters(100) == whole
    assert sm_counters(1_234) != whole
    assert sm_counters(777) != whole


@contextmanager
def resumes_per_sm(engine: str) -> Iterator[Counter]:
    """Count, per SM object, the resumes of every loop the engine's SMs
    open; a one-shot ``run_cycles`` counts one."""
    core = core_class_for_engine(engine)
    loop = core.loop
    resumes: Counter = Counter()

    def counted(sm):
        inner = loop(sm)
        stop = next(inner)
        try:
            while True:
                stop = inner.send((yield stop))
                resumes[sm] += 1
        finally:
            inner.close()

    with mock.patch.object(core, "loop", counted):
        yield resumes


@pytest.mark.parametrize("engine", ENGINES)
def test_a_chain_resumes_each_node_once(engine):
    """One node runs at a time, so nothing stops it before it finishes."""
    graph = shaped_graph(
        (_spec("a", seed=9), _spec("b", seed=10), _spec("c", seed=11)), "chain"
    )
    with resumes_per_sm(engine) as resumes:
        result = GPU(_chip_config(num_sms=4)).run_graph(graph, engine=engine)
    assert result.completed
    assert list(resumes.values()) == [1, 1, 1]


@pytest.mark.parametrize("engine", ENGINES)
def test_the_diamond_resumes_less_often_than_the_grid_slices(engine):
    config = _chip_config(num_sms=2)
    with resumes_per_sm(engine) as resumes:
        result = GPU(config).run_graph(_diamond(), engine=engine)
    with resumes_per_sm(engine) as run_cycles_calls:
        oracle = chip_grid_oracle.run_graph(GPU(config), _diamond(), engine=engine)
    assert _graph_view(result) == _graph_view(oracle)
    assert sum(resumes.values()) < sum(run_cycles_calls.values())


@pytest.mark.parametrize("engine", ENGINES)
def test_sms_are_freed_without_the_cyclic_collector(engine):
    """A loop's frame refers to its SM, so an SM that kept its loop would
    be a cycle that only the cyclic collector frees, and peak memory would
    grow with every graph node and every chip window."""
    core = core_class_for_engine(engine)
    loop = core.loop
    sms = []

    def tracked(sm):
        sms.append(weakref.ref(sm))
        return loop(sm)

    gc.collect()
    gc.disable()
    try:
        with mock.patch.object(core, "loop", tracked):
            GPU(_chip_config(num_sms=2)).run_graph(_diamond(), engine=engine)
            chip = build_chip(
                _chip_config(num_sms=2), generate_kernel_programs(_spec("w")), engine
            )
            for window in (37, 100, 250):
                chip.run_cycles(window)
            del chip
        assert sms and all(ref() is None for ref in sms)
    finally:
        gc.enable()
