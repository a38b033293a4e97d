"""Shared fixtures for the test suite.

The expensive artefacts (training on the fast configuration, static
profiles) are session-scoped so the integration tests share them.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.experiments.common import ExperimentConfig, clear_caches, train_model
from repro.gpu.config import CacheConfig, GPUConfig, MemoryConfig, SMConfig, baseline_config
from repro.gpu.isa import alu, load
from repro.workloads.spec import KernelSpec


@pytest.fixture(scope="session")
def fast_config() -> ExperimentConfig:
    """The scaled-down experiment configuration used by integration tests."""
    return ExperimentConfig.fast()


@pytest.fixture(scope="session")
def tiny_model(fast_config):
    """A model trained once per session on the fast configuration."""
    return train_model(fast_config)


@pytest.fixture
def no_children_left():
    """A check that this process has no live multiprocessing child left.

    A killed pool worker is reaped by whichever of the executor's teardown
    and the pool's own management thread gets to it first, so the check
    waits up to ``timeout`` seconds for the reaping to finish."""

    def check(timeout: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.01)
        return not multiprocessing.active_children()

    return check


@pytest.fixture(scope="session", autouse=True)
def _isolate_caches(tmp_path_factory):
    """Point the default result cache (``REPRO_CACHE_DIR``) at one fresh
    dir per test session, restoring the old value afterwards: no profile,
    run or trained model left by another checkout leaks in (the shape
    benchmarks train their own model, as on a fresh CI runner), and the
    session leaves nothing in the user's cache.  ``tests/`` and
    ``benchmarks/`` define this same fixture and share the dir."""
    cache_dir = tmp_path_factory.getbasetemp() / "repro-cache"
    cache_dir.mkdir(exist_ok=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        yield


@pytest.fixture
def small_gpu_config() -> GPUConfig:
    """A deliberately tiny GPU so cache behaviour is easy to reason about."""
    return GPUConfig(
        sm=SMConfig(max_warps=4),
        l1=CacheConfig(size_bytes=8 * 128, assoc=2, line_size=128, mshr_entries=4),
        memory=MemoryConfig(
            l2=CacheConfig(size_bytes=32 * 128, assoc=4, line_size=128, mshr_entries=8),
            l2_latency=20,
            l2_service_interval=2.0,
            dram_latency=60,
            dram_service_interval=8.0,
        ),
        max_cycles=50_000,
    )


@pytest.fixture
def baseline_gpu_config() -> GPUConfig:
    return baseline_config(max_cycles=60_000)


@pytest.fixture
def simple_kernel_spec() -> KernelSpec:
    """A small, memory-sensitive kernel used across unit tests."""
    return KernelSpec(
        name="unit_kernel",
        num_warps=8,
        instructions_per_warp=600,
        instructions_per_load=3,
        dep_distance=4,
        intra_warp_fraction=0.8,
        inter_warp_fraction=0.1,
        private_lines=40,
        shared_lines=80,
        seed=42,
    )


def make_streaming_program(num_loads: int, base: int = 0, dep: int = 0):
    """A program of loads to consecutive, never-reused lines."""
    return [load(base + index, dep_distance=dep, pc=index) for index in range(num_loads)]


def make_looping_program(num_loads: int, footprint: int, base: int = 0, dep: int = 0):
    """A program that loops over a fixed set of lines (high intra-warp reuse)."""
    return [
        load(base + (index % footprint), dep_distance=dep, pc=index % footprint)
        for index in range(num_loads)
    ]


def make_alu_program(length: int):
    return [alu(pc=index) for index in range(length)]


@pytest.fixture
def streaming_program():
    return make_streaming_program(64)


@pytest.fixture
def looping_program():
    return make_looping_program(64, footprint=8)
