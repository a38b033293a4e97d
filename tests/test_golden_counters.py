"""Golden-counter regression tests.

PR 1 established the invariant that simulator/runtime optimisations keep the
performance counters **bit-identical**.  This test pins that guarantee to a
committed fixture: a tiny kernel is run under every evaluation scheme
(gto/swl/pcal/poise/static_best) and the resulting ``RunResult`` counters
must replay exactly — any drift (a changed int anywhere) fails the suite.

The Poise run uses a hand-written model with fixed weights, so the golden
run depends on no training pipeline and is deterministic by construction.

The fixture is engine-independent: both its base section and its
``extended`` section (a trace-family kernel whose structured address
stream the synthetic generator cannot express, plus a non-default
architecture point — 4 KB L1, 48-warp scheduler, 32-warp kernel) are
replayed under **every** engine registered in ``ENGINES`` against the same
golden counters.  A new engine must therefore reproduce the committed
fixture byte for byte *without regenerating it* — regeneration would mask
exactly the drift these tests exist to catch.

To regenerate the fixture after an *intentional* behaviour change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_counters.py -q
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from engine_conformance import fresh_runs_on
from repro.core.training import TrainedModel
from repro.experiments.common import ExperimentConfig, clear_caches, run_scheme_on_kernel
from repro.gpu.config import CacheConfig, SMConfig
from repro.gpu.engine import ENGINES
from repro.runtime import serialization
from repro.workloads.registry import get_benchmark
from repro.workloads.spec import KernelSpec

FIXTURE_PATH = Path(__file__).resolve().parent / "data" / "golden_counters.json"

GOLDEN_SCHEMES = ("gto", "swl", "pcal", "poise", "static_best")

#: Schemes used by the extended (engine-parity) cases — deliberately the
#: profile-free ones so the cases stay cheap under both engines.
EXTENDED_SCHEMES = ("gto", "ccws", "apcm")

#: Small enough that all five runs take a few seconds, memory-sensitive
#: enough that the schemes actually diverge (different warp-tuples, different
#: hit rates) — a golden fixture where every scheme ties would catch nothing.
GOLDEN_KERNEL = KernelSpec(
    name="golden_kernel",
    num_warps=8,
    instructions_per_warp=900,
    instructions_per_load=3,
    dep_distance=4,
    intra_warp_fraction=0.7,
    inter_warp_fraction=0.15,
    private_lines=48,
    shared_lines=96,
    seed=7,
)


def golden_config(cache_dir: Path) -> ExperimentConfig:
    return replace(
        ExperimentConfig.fast(),
        run_max_cycles=40_000,
        cache_dir=cache_dir,
        label="golden",
    )


def golden_model() -> TrainedModel:
    """Fixed-weight model: the Poise controller's behaviour is pinned without
    depending on the (expensive) training pipeline."""
    return TrainedModel(
        alpha_weights=[0.02, -0.03, 0.05, 0.01, -0.02, 0.04, 0.60, 0.30],
        beta_weights=[0.01, -0.02, 0.03, 0.02, -0.01, 0.02, 0.30, 0.15],
        max_warps=24,
        dispersion_n=0.1,
        dispersion_p=0.1,
        num_training_kernels=0,
    )


def extended_cases(cache_dir: Path) -> dict:
    """The engine-parity cases: (kernel, config) pairs beyond the baseline."""
    base = golden_config(cache_dir)
    trace_kernel = get_benchmark("stencil").kernels[0]
    wide_kernel = replace(
        GOLDEN_KERNEL, name="golden_kernel_wide", num_warps=32, private_lines=24
    )
    small_l1_wide_gpu = replace(
        base.gpu,
        sm=SMConfig(max_warps=48),
        l1=CacheConfig(size_bytes=4 * 1024, assoc=4, line_size=128, mshr_entries=32),
    )
    return {
        "trace_stencil": (trace_kernel, base),
        "small_l1_wide": (wide_kernel, base.with_gpu(small_l1_wide_gpu)),
    }


def _replay_schemes(kernel: KernelSpec, config: ExperimentConfig, schemes) -> dict:
    result_by_scheme = {}
    for scheme in schemes:
        result = run_scheme_on_kernel(
            scheme,
            kernel,
            config,
            model=golden_model() if scheme.startswith("poise") else None,
        )
        result_by_scheme[scheme] = {
            "counters": serialization.counters_to_dict(result.counters),
            "cycles": result.cycles,
            "warp_tuple": list(result.warp_tuple),
            "completed": result.completed,
        }
    return result_by_scheme


def run_golden(cache_dir: Path) -> dict:
    config = golden_config(cache_dir)
    return {
        "kernel": GOLDEN_KERNEL.name,
        "run_max_cycles": config.run_max_cycles,
        "schemes": _replay_schemes(GOLDEN_KERNEL, config, GOLDEN_SCHEMES),
        "extended": {
            case: {
                "kernel": kernel.name,
                "schemes": _replay_schemes(kernel, case_config, EXTENDED_SCHEMES),
            }
            for case, (kernel, case_config) in extended_cases(cache_dir).items()
        },
    }


@pytest.fixture(scope="module")
def golden_replay(tmp_path_factory) -> dict:
    clear_caches()  # a fresh cache dir and memo: every run simulates
    return run_golden(tmp_path_factory.mktemp("golden-cache"))


def test_fixture_exists_or_regenerate(golden_replay):
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE_PATH.write_text(json.dumps(golden_replay, indent=2, sort_keys=True) + "\n")
    assert FIXTURE_PATH.exists(), (
        f"golden fixture missing — regenerate with "
        f"REPRO_REGEN_GOLDEN=1 pytest {Path(__file__).name}"
    )


@pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
def test_counters_replay_bit_identical(golden_replay, scheme):
    fixture = json.loads(FIXTURE_PATH.read_text())
    expected = fixture["schemes"][scheme]
    actual = golden_replay["schemes"][scheme]
    assert actual["cycles"] == expected["cycles"]
    assert actual["warp_tuple"] == expected["warp_tuple"]
    assert actual["completed"] == expected["completed"]
    # Compare counter-by-counter so a drift names the counter that moved.
    for name, value in expected["counters"].items():
        assert actual["counters"][name] == value, f"{scheme}: counter {name!r} drifted"
    assert set(actual["counters"]) == set(expected["counters"])


@pytest.mark.parametrize("engine", ENGINES)
def test_base_counters_replay_under_every_engine(engine, tmp_path, monkeypatch):
    """The base golden section replays byte-identically under every
    registered engine, against the committed fixture as-is.  This is the
    strongest form of the engine-parity guarantee: ``legacy`` and ``fast``
    both serialize to the very bytes already on disk."""
    fixture = json.loads(FIXTURE_PATH.read_text())
    config = golden_config(tmp_path / "cache")
    with fresh_runs_on(engine, monkeypatch, runs=len(GOLDEN_SCHEMES)):
        replayed = _replay_schemes(GOLDEN_KERNEL, config, GOLDEN_SCHEMES)
    expected = {scheme: fixture["schemes"][scheme] for scheme in GOLDEN_SCHEMES}
    assert json.dumps(replayed, sort_keys=True) == json.dumps(expected, sort_keys=True), (
        f"base golden section drifted under engine {engine!r}"
    )


def test_schemes_actually_diverge(golden_replay):
    """Guard the guard: if every scheme produced identical counters the
    fixture would be vacuous (e.g. the kernel became compute-bound)."""
    fingerprints = {
        json.dumps(entry["counters"], sort_keys=True)
        for entry in golden_replay["schemes"].values()
    }
    assert len(fingerprints) > 1


# ---------------------------------------------------------------------------
# Extended cases: trace-family kernel + non-default architecture, both engines
# ---------------------------------------------------------------------------

EXTENDED_CASES = ("trace_stencil", "small_l1_wide")


@pytest.mark.parametrize("case", EXTENDED_CASES)
def test_extended_counters_replay(golden_replay, case):
    fixture = json.loads(FIXTURE_PATH.read_text())
    expected = fixture["extended"][case]
    actual = golden_replay["extended"][case]
    assert actual["kernel"] == expected["kernel"]
    for scheme, entry in expected["schemes"].items():
        assert actual["schemes"][scheme] == entry, f"{case}/{scheme} drifted"
    assert set(actual["schemes"]) == set(expected["schemes"])


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", EXTENDED_CASES)
def test_extended_engine_parity(case, engine, tmp_path, monkeypatch):
    """Both engines replay the extended cases to the same golden counters —
    parity is pinned beyond the default architecture and workload family."""
    fixture = json.loads(FIXTURE_PATH.read_text())
    kernel, config = extended_cases(tmp_path)[case]
    with fresh_runs_on(engine, monkeypatch, runs=len(EXTENDED_SCHEMES)):
        replayed = _replay_schemes(kernel, config, EXTENDED_SCHEMES)
    assert replayed == fixture["extended"][case]["schemes"], f"{case} under {engine}"


@pytest.mark.parametrize("case", EXTENDED_CASES)
def test_extended_schemes_diverge(golden_replay, case):
    fingerprints = {
        json.dumps(entry["counters"], sort_keys=True)
        for entry in golden_replay["extended"][case]["schemes"].values()
    }
    assert len(fingerprints) > 1
