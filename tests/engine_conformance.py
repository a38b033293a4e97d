"""N-way engine-conformance harness.

The reproduction ships several simulator engines (``repro.gpu.engine.ENGINES``)
that must all be *bit-identical* to the ``legacy`` oracle — every counter,
the cycle count, the final warp tuple, the completion flag and the
controller telemetry, on any kernel under any scheme.  This module is the
shared verification layer that proves it:

* :data:`ORACLE` / :data:`CANDIDATE_ENGINES` enumerate the registry, so a
  newly registered engine is covered by every conformance test with **zero
  new test code** — registering the name in ``ENGINES`` (plus its branch in
  ``repro.gpu.chip.core_class_for_engine``) is the entire integration
  surface;
* :func:`assert_conformance` runs the oracle once and every candidate
  engine against it, failing with the first drifting counter *named* (the
  differential debugging entry point);
* :func:`drive_windowed` replays an adversarial controller script — random
  interleavings of ``set_warp_tuple`` / ``run_cycles`` / ``snapshot`` (the
  access pattern of the PCAL/Poise sampling loops) — and returns the
  per-window counter trail for cross-engine comparison;
* :func:`run_graph_snapshot` / :func:`assert_graph_conformance` extend the
  same contract to multi-SM chips running DAG workloads — the legacy N-SM
  chip is the oracle, and every candidate must reproduce its schedule,
  per-node counters and aggregate counters exactly;
* :func:`fresh_runs_on` pins ``REPRO_ENGINE`` for runs that go through
  the result cache and checks that each one really simulated on it, not
  replayed an entry another engine computed;
* the Hypothesis strategies (:data:`kernel_specs`, :data:`raw_programs`,
  :data:`small_archs`, :data:`multi_sm_archs`, :data:`small_graphs`) and
  the deterministic controller/model builders are shared by the
  differential suite and any future engine's targeted tests.

To run the harness against a new engine: add its name to ``ENGINES``, map
it in ``core_class_for_engine``, then ``PYTHONPATH=src python -m pytest
tests/test_fastcore_differential.py tests/test_golden_counters.py`` — every
test in those files parameterizes over the registry.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, List, Optional, Tuple

from hypothesis import Phase
from hypothesis import strategies as st

from repro.core.inference import PoiseParameters
from repro.core.poise import PoiseController
from repro.core.training import TrainedModel
from repro.experiments.common import clear_caches
from repro.gpu.config import CacheConfig, GPUConfig, MemoryConfig, SMConfig
from repro.gpu.engine import ENGINE_ENV, ENGINE_LEGACY, ENGINES
from repro.gpu.gpu import GPU
from repro.gpu.isa import Instruction, alu, load
from repro.obs.telemetry import phase_totals
from repro.runtime import serialization
from repro.schedulers import (
    GTOController,
    PCALController,
    StaticBestController,
    SWLController,
)
from repro.schedulers.pcal import PCALParameters
from repro.workloads.graph import MIX_SHAPES, KernelGraph, shaped_graph
from repro.workloads.spec import KernelSpec

#: The specification: readable, heavily unit-tested, never optimised.
ORACLE = ENGINE_LEGACY

#: Every registered engine that must reproduce the oracle bit for bit.
CANDIDATE_ENGINES: Tuple[str, ...] = tuple(
    engine for engine in ENGINES if engine != ORACLE
)

SCHEMES = ("gto", "swl", "pcal", "poise", "static_best")

#: Hypothesis phases of the oracle-differential properties: generate and
#: replay examples, but never shrink a failure — every shrink step re-runs
#: the legacy oracle, turning seconds into minutes before a drift is shown.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def simulate_calls() -> int:
    """How many scheme or graph runs this process has simulated."""
    return int(phase_totals().get("simulate", {}).get("calls", 0))


@contextmanager
def fresh_runs_on(engine: str, monkeypatch, runs: int) -> Iterator[None]:
    """Run the body's cached runs on ``engine``, each one simulated afresh.

    Pins ``REPRO_ENGINE`` and clears the memo; the caller gives each
    engine its own cache dir.  The body must simulate exactly ``runs``
    runs: a memo or disk hit would replay a result another engine computed.
    """
    monkeypatch.setenv(ENGINE_ENV, engine)
    clear_caches()
    before = simulate_calls()
    yield
    assert simulate_calls() - before == runs, (
        f"{engine}: a run was served from the result cache instead of simulated"
    )


def fixed_model() -> TrainedModel:
    """Fixed-weight Poise model, as in the golden-counter suite."""
    return TrainedModel(
        alpha_weights=[0.02, -0.03, 0.05, 0.01, -0.02, 0.04, 0.60, 0.30],
        beta_weights=[0.01, -0.02, 0.03, 0.02, -0.01, 0.02, 0.30, 0.15],
        max_warps=24,
        dispersion_n=0.1,
        dispersion_p=0.1,
        num_training_kernels=0,
    )


def make_controller(scheme: str, seed: int):
    """A deterministic controller for ``scheme`` that needs no profile."""
    if scheme == "gto":
        return GTOController()
    if scheme == "swl":
        return SWLController(limit=1 + seed % 8)
    if scheme == "pcal":
        return PCALController(
            swl_limit=1 + seed % 8,
            params=PCALParameters(warmup_cycles=300, sample_cycles=700, max_hill_steps=3),
        )
    if scheme == "static_best":
        return StaticBestController(best_tuple=(1 + seed % 12, 1 + seed % 4))
    if scheme == "poise":
        return PoiseController(
            fixed_model(),
            PoiseParameters(
                t_period=6_000, t_warmup=400, t_feature=900, t_search=500,
                threshold_cycles=800,
            ),
        )
    raise ValueError(scheme)


def run_snapshot(engine: str, config: GPUConfig, programs, controller=None,
                 cache_policy=None, max_cycles: int = 20_000) -> dict:
    """One kernel execution on one engine, reduced to comparable plain data."""
    result = GPU(config).run_kernel(
        [list(program) for program in programs],
        controller=controller,
        cache_policy=cache_policy,
        max_cycles=max_cycles,
        engine=engine,
    )
    return {
        "counters": serialization.counters_to_dict(result.counters),
        "cycles": result.cycles,
        "warp_tuple": result.warp_tuple,
        "completed": result.completed,
        "telemetry": serialization.encode_value(result.telemetry),
    }


def assert_conformance(
    config: GPUConfig,
    programs,
    controller_factory=None,
    cache_policy_factory=None,
    max_cycles: int = 20_000,
    engines: Optional[Tuple[str, ...]] = None,
) -> None:
    """Run the oracle once, then every candidate engine, asserting that each
    reproduces the oracle exactly — first drifting counter named."""
    oracle = run_snapshot(
        ORACLE, config, programs,
        controller=controller_factory() if controller_factory else None,
        cache_policy=cache_policy_factory() if cache_policy_factory else None,
        max_cycles=max_cycles,
    )
    for engine in engines if engines is not None else CANDIDATE_ENGINES:
        candidate = run_snapshot(
            engine, config, programs,
            controller=controller_factory() if controller_factory else None,
            cache_policy=cache_policy_factory() if cache_policy_factory else None,
            max_cycles=max_cycles,
        )
        for counter, value in oracle["counters"].items():
            assert candidate["counters"][counter] == value, (
                f"counter {counter!r} drifted: {ORACLE}={value} "
                f"{engine}={candidate['counters'][counter]}"
            )
        assert candidate == oracle, f"engine {engine!r} drifted from {ORACLE}"


def run_graph_snapshot(
    engine: str, config: GPUConfig, graph: KernelGraph,
    max_cycles: Optional[int] = None,
) -> dict:
    """One DAG execution on one engine, reduced to comparable plain data.

    The multi-SM analogue of :func:`run_snapshot`: the whole graph runs on
    ``config.num_sms`` SMs sharing one memory subsystem, and everything that
    could drift — per-node counters, the schedule (placements and cycle
    spans), the makespan and the aggregated chip counters — is flattened
    into one dict for cross-engine comparison.
    """
    result = GPU(config).run_graph(graph, max_cycles=max_cycles, engine=engine)
    return {
        "nodes": {
            name: serialization.run_result_to_dict(node)
            for name, node in sorted(result.node_results.items())
        },
        "schedule": [entry.as_dict() for entry in result.schedule],
        "makespan": result.makespan,
        "aggregate": serialization.counters_to_dict(result.aggregate),
        "completed": result.completed,
        "num_sms": result.num_sms,
    }


def assert_graph_conformance(
    config: GPUConfig,
    graph: KernelGraph,
    max_cycles: Optional[int] = None,
    engines: Optional[Tuple[str, ...]] = None,
) -> None:
    """Run the DAG on the legacy N-SM oracle, then on every candidate
    engine, asserting bit-identical schedules and counters."""
    oracle = run_graph_snapshot(ORACLE, config, graph, max_cycles=max_cycles)
    for engine in engines if engines is not None else CANDIDATE_ENGINES:
        candidate = run_graph_snapshot(engine, config, graph, max_cycles=max_cycles)
        assert candidate["schedule"] == oracle["schedule"], (
            f"engine {engine!r} scheduled the graph differently from {ORACLE}: "
            f"{candidate['schedule']} != {oracle['schedule']}"
        )
        for name, node in oracle["nodes"].items():
            for counter, value in node["counters"].items():
                assert candidate["nodes"][name]["counters"][counter] == value, (
                    f"node {name!r} counter {counter!r} drifted: {ORACLE}={value} "
                    f"{engine}={candidate['nodes'][name]['counters'][counter]}"
                )
        assert candidate == oracle, f"engine {engine!r} drifted from {ORACLE} on the graph"


def drive_windowed(
    engine: str, config: GPUConfig, programs,
    script: List[Tuple[int, int, int]], tail_cycles: int = 50_000,
) -> list:
    """Replay a ``(n, p, window)`` controller script on ``engine`` and return
    the per-window counter-delta trail plus the final state."""
    sm = GPU(config).build_sm([list(p) for p in programs], engine=engine)
    trail = []
    for n, p, window in script:
        sm.set_warp_tuple(n, p)
        before = sm.snapshot()
        consumed = sm.run_cycles(window)
        trail.append(
            (consumed, serialization.counters_to_dict(sm.counters - before))
        )
    sm.run_to_completion(tail_cycles)
    trail.append((sm.cycle, sm.done, serialization.counters_to_dict(sm.counters)))
    return trail


# ---------------------------------------------------------------------------
# Shared Hypothesis strategies
# ---------------------------------------------------------------------------

kernel_specs = st.builds(
    KernelSpec,
    name=st.just("diff_kernel"),
    num_warps=st.integers(1, 10),
    instructions_per_warp=st.integers(20, 350),
    instructions_per_load=st.integers(1, 8),
    dep_distance=st.integers(0, 6),
    intra_warp_fraction=st.sampled_from([0.0, 0.2, 0.5, 0.8]),
    inter_warp_fraction=st.sampled_from([0.0, 0.1, 0.2]),
    private_lines=st.integers(1, 64),
    shared_lines=st.integers(1, 96),
    seed=st.integers(0, 10_000),
)

#: Lines a raw program's loads draw from: few enough that misses merge,
#: within one warp and across warps.
RAW_LINE_POOL = 20


def _raw_program(slots: List[Optional[Tuple[int, int]]]) -> List[Instruction]:
    """A warp program from ``slots``: ``None`` is an ALU, ``(line, dep)`` a
    load of pool line ``line`` with dependence distance ``dep``."""
    return [
        alu(pc=index) if slot is None else load(slot[0], dep_distance=slot[1], pc=index)
        for index, slot in enumerate(slots)
    ]


#: Warp programs the synthetic generator never writes: ALU and load mixes
#: with dependence distances 0-12 (``_SyntheticStream`` clamps them to
#: ``In - 1``), so one warp has several loads in flight and their
#: first-dependent indexes can tie, over a small line pool.
raw_programs = st.lists(
    st.lists(
        st.one_of(
            st.none(),
            st.tuples(st.integers(0, RAW_LINE_POOL - 1), st.integers(0, 12)),
        ),
        max_size=60,
    ).map(_raw_program),
    min_size=1,
    max_size=8,
)

#: Chip widths the multi-SM conformance sweeps cover — 1 proves the plain
#: single-SM path survives, 2 and 4 exercise the shared-memory interleave.
SM_COUNTS: Tuple[int, ...] = (1, 2, 4)


def small_arch(
    l1_sets: int, assoc: int, mshr: int, indexing: str, l2_indexing: str = "hash"
) -> GPUConfig:
    """A small GPU: ``l1_sets`` × ``assoc`` L1 lines, a 16-set 4-way L2 and
    a fast memory, so short kernels exercise eviction and queueing."""
    return GPUConfig(
        sm=SMConfig(max_warps=12),
        l1=CacheConfig(
            size_bytes=l1_sets * assoc * 128,
            assoc=assoc,
            line_size=128,
            mshr_entries=mshr,
            indexing=indexing,
        ),
        memory=MemoryConfig(
            l2=CacheConfig(
                size_bytes=64 * 128, assoc=4, line_size=128, mshr_entries=8,
                indexing=l2_indexing,
            ),
            l2_latency=20,
            l2_service_interval=2.0,
            dram_latency=60,
            dram_service_interval=8.0,
        ),
        max_cycles=30_000,
    )


small_archs = st.builds(
    small_arch,
    l1_sets=st.integers(1, 8),
    assoc=st.sampled_from([1, 2, 4]),
    mshr=st.integers(1, 6),
    indexing=st.sampled_from(["hash", "linear"]),
    l2_indexing=st.sampled_from(["hash", "linear"]),
)

#: ``small_archs`` widened into chips: num_sms ∈ {1, 2, 4} SMs sharing one
#: L2/DRAM, with a small quantum so the deterministic time-multiplexing
#: grid is crossed many times per run.
multi_sm_archs = st.builds(
    lambda config, num_sms, quantum: replace(
        config, num_sms=num_sms, sm_quantum=quantum
    ),
    config=small_archs,
    num_sms=st.sampled_from(SM_COUNTS),
    quantum=st.sampled_from([50, 100, 250]),
)

#: Small dependency graphs over distinct kernel variants: every shape the
#: mix library knows (chain / fanout / diamond / parallel), 2–4 nodes.
small_graphs = st.builds(
    lambda specs, shape: shaped_graph(
        tuple(
            replace(spec, name=f"g{index}", seed=spec.seed + index)
            for index, spec in enumerate(specs)
        ),
        shape,
        name=f"conformance-{shape}",
    ),
    specs=st.lists(kernel_specs, min_size=2, max_size=4),
    shape=st.sampled_from(MIX_SHAPES),
)
