"""Engine parity at the API seam: caches and serialization.

The fast and legacy engines are bit-identical, so every artefact above the
simulator — serialized ``RunResult``s, disk-cache entries, the in-memory
run/profile caches — must be *engine-agnostic*: cache keys must not encode
the engine, and an entry produced under one engine must be a valid hit for
the other.  These tests pin that contract; breaking it would silently double
every cache and fork the experiment artefacts by environment variable.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from engine_conformance import fresh_runs_on
from repro.experiments import common
from repro.experiments.common import (
    ExperimentConfig,
    _profile_key_payload,
    _run_key_payload,
    clear_caches,
    get_profile,
    run_scheme_on_kernel,
)
from repro.gpu.engine import ENGINE_ENV
from repro.runtime import serialization
from repro.runtime.cache import content_key
from repro.workloads.spec import KernelSpec

PARITY_KERNEL = KernelSpec(
    name="parity_kernel",
    num_warps=6,
    instructions_per_warp=400,
    instructions_per_load=3,
    dep_distance=3,
    intra_warp_fraction=0.6,
    inter_warp_fraction=0.2,
    private_lines=32,
    shared_lines=64,
    seed=13,
)


def parity_config(tmp_path: Path) -> ExperimentConfig:
    return replace(
        ExperimentConfig.fast(),
        run_max_cycles=20_000,
        cache_dir=tmp_path,
        label="parity",
    )


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class _ExplodingGPU:
    """Injected in place of the real GPU to prove no simulation happens."""

    def __init__(self, *args, **kwargs):
        raise AssertionError(
            "simulation ran — the cache entry written by the other engine "
            "was not hit"
        )


def test_cache_key_payloads_do_not_encode_engine(tmp_path, monkeypatch):
    """Run/profile content keys and the in-memory key are byte-identical
    regardless of REPRO_ENGINE (and contain no engine field at all)."""
    config = parity_config(tmp_path)
    payloads = {}
    for engine in ("fast", "legacy"):
        monkeypatch.setenv(ENGINE_ENV, engine)
        payloads[engine] = (
            json.dumps(_run_key_payload("gto", PARITY_KERNEL, config, None), sort_keys=True),
            json.dumps(_profile_key_payload(PARITY_KERNEL, config), sort_keys=True),
            content_key(_run_key_payload("gto", PARITY_KERNEL, config, None)),
        )
    assert payloads["fast"] == payloads["legacy"]
    for blob in payloads["fast"]:
        assert "engine" not in blob.lower()


@pytest.mark.parametrize(
    "write_engine,read_engine", [("fast", "legacy"), ("legacy", "fast")]
)
def test_disk_cache_run_entries_hit_across_engines(
    tmp_path, monkeypatch, write_engine, read_engine
):
    """A RunResult cached to disk by one engine is served to the other
    without any simulation."""
    config = parity_config(tmp_path)
    monkeypatch.setenv(ENGINE_ENV, write_engine)
    written = run_scheme_on_kernel("gto", PARITY_KERNEL, config)

    clear_caches()  # drop the in-memory layer; the disk layer persists
    monkeypatch.setenv(ENGINE_ENV, read_engine)
    monkeypatch.setattr(common, "GPU", _ExplodingGPU)
    served = run_scheme_on_kernel("gto", PARITY_KERNEL, config)

    assert serialization.run_result_to_dict(served) == serialization.run_result_to_dict(
        written
    )


@pytest.mark.parametrize(
    "write_engine,read_engine", [("fast", "legacy"), ("legacy", "fast")]
)
def test_disk_cache_profiles_hit_across_engines(
    tmp_path, monkeypatch, write_engine, read_engine
):
    config = parity_config(tmp_path)
    monkeypatch.setenv(ENGINE_ENV, write_engine)
    written = get_profile(PARITY_KERNEL, config)

    clear_caches()
    monkeypatch.setenv(ENGINE_ENV, read_engine)
    import repro.profiling.profiler as profiler_module

    monkeypatch.setattr(profiler_module, "GPU", _ExplodingGPU)
    served = get_profile(PARITY_KERNEL, config)

    assert served.ipc == written.ipc
    assert served.baseline_ipc == written.baseline_ipc
    assert serialization.profile_to_dict(served) == serialization.profile_to_dict(written)


def test_run_result_serialization_identical_across_engines(tmp_path, monkeypatch):
    """The serialized form of a run — counters, energy, telemetry tuples —
    is byte-identical whichever engine produced it, and survives a
    round-trip comparing equal."""
    dicts = {}
    for engine in ("fast", "legacy"):
        config = parity_config(tmp_path / engine)
        with fresh_runs_on(engine, monkeypatch, runs=1):
            result = run_scheme_on_kernel("pcal", PARITY_KERNEL, config)
        dicts[engine] = serialization.run_result_to_dict(result)
    assert dicts["fast"] == dicts["legacy"]
    round_tripped = serialization.run_result_from_dict(
        json.loads(json.dumps(dicts["fast"]))
    )
    assert serialization.run_result_to_dict(round_tripped) == dicts["fast"]


def test_in_memory_run_cache_shared_across_engine_switch(tmp_path, monkeypatch):
    """Switching REPRO_ENGINE mid-process must keep hitting the same
    in-memory cache slots (the key ignores the engine)."""
    config = parity_config(tmp_path)
    monkeypatch.setenv(ENGINE_ENV, "legacy")
    first = run_scheme_on_kernel("gto", PARITY_KERNEL, config)

    monkeypatch.setenv(ENGINE_ENV, "fast")
    monkeypatch.setattr(common, "GPU", _ExplodingGPU)
    second = run_scheme_on_kernel("gto", PARITY_KERNEL, config)
    assert second is first
