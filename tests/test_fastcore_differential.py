"""Differential verification of every optimised engine against the oracle.

Built on :mod:`engine_conformance`: each scenario below runs the ``legacy``
oracle once and then *every* other engine registered in
``repro.gpu.engine.ENGINES`` — currently the struct-of-arrays ``fast`` core
— asserting bit-identical counters, cycles, warp tuple, completion flag and
telemetry.  A newly registered engine is covered by this entire file with
zero new test code.

Scenario coverage:

* random synthetic kernels under all five evaluation schemes
  (gto/swl/pcal/poise/static_best) plus CCWS and the APCM cache policy,
* random architecture variations (L1 geometry down to a single set, hash
  vs linear indexing of the L1 and the L2, MSHR pressure small enough to
  exercise the structural-hazard retry path — the spans the fast engine
  jumps over),
* the five trace-native families,
* adversarial controller scripts: random interleavings of warp-tuple
  changes, run windows and counter snapshots (the access pattern of the
  PCAL/Poise sampling loops), on 12-warp and 48-warp SMs, and the shared
  L2/DRAM statistics they leave on 1, 2 and 4 SMs,
* lazily filled programs refilled mid-run, every few instructions,
* degenerate shapes (empty warp programs, single-warp kernels).

Any divergence found here is a bug in the optimised engine by definition:
the legacy core is the specification.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from engine_conformance import (
    CANDIDATE_ENGINES,
    NO_SHRINK,
    ORACLE,
    SCHEMES,
    SM_COUNTS,
    assert_conformance,
    drive_windowed,
    kernel_specs,
    make_controller,
    run_snapshot,
    small_arch,
    small_archs,
)
from repro.gpu.config import (
    CacheConfig,
    GPUConfig,
    MemoryConfig,
    SMConfig,
    baseline_config,
)
from repro.gpu.gpu import GPU
from repro.gpu.isa import alu, load
from repro.runtime import serialization
from repro.schedulers import APCMPolicy, CCWSController, GTOController
from repro.trace.families import family_kernel, family_names
from repro.workloads import generator
from repro.workloads.generator import (
    WarpProgram,
    generate_kernel_programs,
    generate_warp_program,
)
from repro.workloads.spec import KernelSpec


def test_harness_covers_all_registered_engines() -> None:
    """The conformance harness must track the registry: every engine except
    the oracle is a candidate — a registry edit can't silently shrink
    coverage."""
    from repro.gpu.engine import ENGINES

    assert ORACLE in ENGINES
    assert set(CANDIDATE_ENGINES) == set(ENGINES) - {ORACLE}
    assert CANDIDATE_ENGINES == ("fast",)


# ---------------------------------------------------------------------------
# Synthetic kernels × schemes
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(spec=kernel_specs, scheme=st.sampled_from(SCHEMES))
def test_scheme_differential(spec: KernelSpec, scheme: str) -> None:
    """All engines agree under every evaluation scheme on random kernels."""
    programs = generate_kernel_programs(spec)
    config = baseline_config(max_cycles=30_000)
    assert_conformance(
        config, programs,
        controller_factory=lambda: make_controller(scheme, spec.seed),
        max_cycles=16_000,
    )


#: A kernel with private and shared reuse over more lines than the small
#: architectures hold, so every set fills and evicts.
PINNED_SPEC = KernelSpec(
    name="pinned_arch", num_warps=8, instructions_per_warp=300,
    instructions_per_load=2, dep_distance=3, intra_warp_fraction=0.5,
    inter_warp_fraction=0.2, private_lines=40, shared_lines=90, seed=11,
)


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(spec=kernel_specs, config=small_archs)
@example(spec=PINNED_SPEC, config=small_arch(1, 4, 3, "hash", l2_indexing="linear"))
@example(spec=PINNED_SPEC, config=small_arch(1, 2, 2, "linear", l2_indexing="linear"))
@example(spec=PINNED_SPEC, config=small_arch(8, 4, 6, "linear", l2_indexing="hash"))
def test_architecture_differential(spec: KernelSpec, config: GPUConfig) -> None:
    """Random L1 geometries (single-set ones included), linear or hashed
    L1 and L2 indexing and MSHR starvation (the structural-hazard retry
    path) stay bit-identical on every engine; the explicit examples pin a
    single-set L1 and a linear-indexed L2 into every run."""
    programs = generate_kernel_programs(spec)
    assert_conformance(config, programs, max_cycles=12_000)


@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(spec=kernel_specs)
def test_apcm_cache_policy_differential(spec: KernelSpec) -> None:
    """The per-PC allocate/observe hooks fire identically in every engine."""
    programs = generate_kernel_programs(spec)
    config = baseline_config(max_cycles=30_000)
    assert_conformance(
        config, programs,
        controller_factory=GTOController,
        cache_policy_factory=APCMPolicy,
        max_cycles=16_000,
    )


@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(spec=kernel_specs)
def test_ccws_differential(spec: KernelSpec) -> None:
    programs = generate_kernel_programs(spec)
    config = baseline_config(max_cycles=30_000)
    assert_conformance(
        config, programs, controller_factory=CCWSController, max_cycles=16_000
    )


# ---------------------------------------------------------------------------
# Trace-native families × schemes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(family_names()))
@pytest.mark.parametrize("scheme", ("gto", "poise"))
def test_trace_family_differential(family: str, scheme: str) -> None:
    spec = family_kernel(
        family, f"{family}_diff", num_warps=6, instructions_per_warp=300, seed=5
    )
    programs = generate_kernel_programs(spec)
    config = baseline_config(max_cycles=30_000)
    assert_conformance(
        config, programs,
        controller_factory=lambda: make_controller(scheme, 5),
        max_cycles=16_000,
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_trace_family_all_schemes(scheme: str) -> None:
    """One family through the full scheme matrix (the ISSUE's 5×trace leg)."""
    spec = family_kernel(
        "transpose", "transpose_diff", num_warps=8, instructions_per_warp=400, seed=9
    )
    programs = generate_kernel_programs(spec)
    config = baseline_config(max_cycles=30_000)
    assert_conformance(
        config, programs,
        controller_factory=lambda: make_controller(scheme, 9),
        max_cycles=16_000,
    )


# ---------------------------------------------------------------------------
# Adversarial control scripts (PCAL/Poise-style sampling)
# ---------------------------------------------------------------------------


#: Random ``(n, p, window)`` controller scripts over up to 12 warps.
window_scripts = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 2_500)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
@given(spec=kernel_specs, script=window_scripts)
def test_windowed_control_differential(
    spec: KernelSpec, script: List[Tuple[int, int, int]]
) -> None:
    """Random interleavings of set_warp_tuple / run_cycles / snapshot must
    produce identical per-window counter deltas on every engine.  For the
    fast engine's stall and MSHR-retry jumps this is the sharpest invariant:
    a jump may never cross a ``run_cycles`` window boundary, or the
    per-window deltas would smear."""
    config = baseline_config(max_cycles=60_000)
    programs = generate_kernel_programs(spec)
    oracle_trail = drive_windowed(ORACLE, config, programs, script)
    for engine in CANDIDATE_ENGINES:
        assert drive_windowed(engine, config, programs, script) == oracle_trail, (
            f"engine {engine!r} window trail drifted from {ORACLE}"
        )


@pytest.mark.parametrize("num_sms", SM_COUNTS)
@settings(max_examples=8, deadline=None, phases=NO_SHRINK)
@given(spec=kernel_specs, config=small_archs, script=window_scripts)
def test_shared_memory_statistics_match_the_oracle(
    num_sms: int, spec: KernelSpec, config: GPUConfig,
    script: List[Tuple[int, int, int]],
) -> None:
    """After a windowed run on ``num_sms`` SMs, the shared L2/DRAM's own
    statistics equal the legacy ``MemorySubsystem``'s.  The fast loop
    writes them back at the end of each slice, and the SM counters alone
    would not show a missed write-back."""
    config = replace(config, num_sms=num_sms)
    programs = generate_kernel_programs(spec)

    def memory_stats(engine: str) -> tuple:
        sm = GPU(config).build_sm([list(p) for p in programs], engine=engine)
        for n, p, window in script:
            sm.set_warp_tuple(n, p)
            sm.run_cycles(window)
        memory = sm.memory
        return (
            memory.requests, memory.l2_accesses, memory.l2_hits,
            memory.dram_accesses, memory.total_latency,
            memory.average_latency, memory.l2_hit_rate,
        )

    oracle = memory_stats(ORACLE)
    for engine in CANDIDATE_ENGINES:
        assert memory_stats(engine) == oracle, f"engine {engine!r} memory drifted"


#: Warp slots of the wide architecture: more than one 30-bit CPython digit.
WIDE_WARPS = 48


@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(
    spec=st.builds(
        lambda spec, num_warps, length: replace(
            spec, num_warps=num_warps, instructions_per_warp=length
        ),
        spec=kernel_specs,
        num_warps=st.integers(40, WIDE_WARPS),
        length=st.integers(20, 150),
    ),
    script=st.lists(
        st.tuples(
            st.integers(1, WIDE_WARPS), st.integers(1, WIDE_WARPS),
            st.integers(1, 2_500),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_wide_warp_masks_match_the_oracle(
    spec: KernelSpec, script: List[Tuple[int, int, int]]
) -> None:
    """40-48 warps on a 48-warp SM under random warp-tuple scripts: the
    fast core's ready and vital bitmasks span more than one CPython int
    digit and are rebuilt on every tuple change and warp exit, and every
    window must still match the oracle."""
    config = replace(
        baseline_config(max_cycles=60_000), sm=SMConfig(max_warps=WIDE_WARPS)
    )
    programs = generate_kernel_programs(spec)
    oracle_trail = drive_windowed(ORACLE, config, programs, script)
    for engine in CANDIDATE_ENGINES:
        assert drive_windowed(engine, config, programs, script) == oracle_trail, (
            f"engine {engine!r} window trail drifted from {ORACLE}"
        )


# ---------------------------------------------------------------------------
# Lazily filled programs
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
@given(spec=kernel_specs, scheme=st.sampled_from(SCHEMES), chunk=st.integers(1, 40))
def test_lazy_programs_refilled_mid_run_match_the_oracle(
    spec: KernelSpec, scheme: str, chunk: int
) -> None:
    """Every engine, run on fresh lazily filled programs that refill every
    ``chunk`` instructions (so ALU bursts are cut at each chunk edge and
    resumed), matches the oracle run on fully built lists."""
    config = baseline_config(max_cycles=30_000)
    built = [generate_warp_program(spec, warp_id) for warp_id in range(spec.num_warps)]
    oracle = run_snapshot(
        ORACLE, config, built,
        controller=make_controller(scheme, spec.seed), max_cycles=16_000,
    )
    with mock.patch.object(generator, "FILL_CHUNK", chunk):
        for engine in (ORACLE, *CANDIDATE_ENGINES):
            lazy = [WarpProgram(spec, warp_id) for warp_id in range(spec.num_warps)]
            result = GPU(config).run_kernel(
                lazy, controller=make_controller(scheme, spec.seed),
                max_cycles=16_000, engine=engine,
            )
            assert serialization.counters_to_dict(result.counters) == oracle["counters"]
            assert (result.cycles, result.warp_tuple, result.completed) == (
                oracle["cycles"], oracle["warp_tuple"], oracle["completed"],
            )


# ---------------------------------------------------------------------------
# Degenerate shapes
# ---------------------------------------------------------------------------


def test_empty_and_mixed_programs_differential() -> None:
    """Warps with empty programs (trace padding) and mixed lengths retire
    identically."""
    programs = [
        [],
        [alu(pc=0), load(17, dep_distance=1, pc=1), alu(pc=2)],
        [],
        [load(17, dep_distance=0, pc=0)],
        [alu(pc=i) for i in range(5)],
    ]
    config = baseline_config(max_cycles=10_000)
    assert_conformance(config, programs, max_cycles=10_000)


def test_single_warp_mshr_merge_differential() -> None:
    """Merged misses to one line (shared MSHR entry, per-waiter latency)."""
    programs = [
        [load(99, dep_distance=3, pc=0), load(99, dep_distance=2, pc=1), alu(pc=2)],
        [load(99, dep_distance=3, pc=0), alu(pc=1)],
    ]
    config = baseline_config(max_cycles=10_000)
    assert_conformance(config, programs, max_cycles=10_000)


def test_single_set_hash_cache_differential() -> None:
    """num_sets == 1 with hash indexing (the XOR-fold degenerate case that
    used to spin forever in the legacy fold loop) terminates and agrees."""
    config = GPUConfig(
        sm=SMConfig(max_warps=4),
        l1=CacheConfig(
            size_bytes=2 * 128, assoc=2, line_size=128, mshr_entries=4,
            indexing="hash",
        ),
        memory=MemoryConfig(
            l2=CacheConfig(
                size_bytes=4 * 128, assoc=4, line_size=128, mshr_entries=8,
                indexing="hash",
            ),
            l2_latency=20,
            l2_service_interval=2.0,
            dram_latency=60,
            dram_service_interval=8.0,
        ),
        max_cycles=10_000,
    )
    programs = [
        [load(base + index, dep_distance=1, pc=index) for index in range(40)]
        for base in (0, 1 << 20)
    ]
    assert_conformance(config, programs, max_cycles=10_000)


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_reuse_tracker_differential(engine: str) -> None:
    """With ``track_reuse_distance`` on (the Fig. 4 path), every engine feeds
    the tracker the identical access stream."""
    spec = KernelSpec(
        name="reuse_diff", num_warps=6, instructions_per_warp=300,
        instructions_per_load=2, dep_distance=2, intra_warp_fraction=0.7,
        inter_warp_fraction=0.2, private_lines=24, shared_lines=48, seed=3,
    )
    config = replace(baseline_config(max_cycles=20_000), track_reuse_distance=True)
    programs = generate_kernel_programs(spec)

    def stats(name: str):
        sm = GPU(config).build_sm([list(p) for p in programs], engine=name)
        sm.run_to_completion(20_000)
        tracker = sm.reuse_tracker
        return (
            tracker.total_distance,
            tracker.reuse_count,
            tracker.cold_count,
            serialization.counters_to_dict(sm.counters),
        )

    assert stats(engine) == stats(ORACLE)


def test_engine_selection_rejects_unknown_names() -> None:
    from repro.gpu.engine import resolve_engine

    with pytest.raises(ValueError):
        resolve_engine("warp-speed")
    assert resolve_engine("FAST") == "fast"
    assert resolve_engine(" legacy ") == "legacy"
    assert resolve_engine(" Fast ") == "fast"

