"""Benchmark-harness configuration.

Each benchmark regenerates one table or figure of the paper and prints the
same rows/series the paper reports.  Because several experiments involve
training and full evaluation sweeps, the harness defaults to the scaled-down
``fast`` experiment configuration; set ``REPRO_BENCH_PROFILE=full`` to rerun
everything at the paper-shaped ``full`` configuration (several minutes per
figure).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import registry
from repro.experiments.common import ExperimentConfig


def bench_config() -> ExperimentConfig:
    profile = os.environ.get("REPRO_BENCH_PROFILE", "fast").lower()
    if profile == "full":
        return ExperimentConfig.full()
    return ExperimentConfig.fast()


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


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    return bench_config()


def run_and_print(benchmark, experiment_id, config):
    """Run one registered experiment under pytest-benchmark and print its tables."""
    result = benchmark.pedantic(
        registry.get(experiment_id).run, kwargs={"config": config}, rounds=1, iterations=1
    )
    print()
    print(result.to_text())
    return result
