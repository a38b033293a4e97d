"""Bench-matrix timing: every cell keeps the fastest of ``BENCH_ROUNDS``
rounds, each on a fresh controller with the cyclic collector paused, and
the rounds change nothing but the timing fields."""

from __future__ import annotations

import gc
from types import SimpleNamespace

import pytest

from repro.runtime import bench
from repro.trace.families import family_kernel
from repro.workloads.spec import KernelSpec

TIMING_FIELDS = ("wall_seconds", "cycles_per_second", "instructions_per_second")


def tiny_kernels():
    return [
        {
            "kind": "synthetic",
            "spec": KernelSpec(name="bench_tiny", num_warps=4, instructions_per_warp=600, seed=3),
        },
        {
            "kind": "trace",
            "spec": family_kernel(
                "gather", "bench_tiny_gather", num_warps=4, instructions_per_warp=600
            ),
        },
    ]


def without_timing(rows):
    return [{key: row[key] for key in row if key not in TIMING_FIELDS} for row in rows]


def test_rounds_leave_every_counter_unchanged(monkeypatch):
    def matrix(rounds):
        monkeypatch.setattr(bench, "BENCH_ROUNDS", rounds)
        return bench.measure_matrix(
            engines=("fast", "legacy"),
            schemes=("gto", "poise", "static_best"),
            max_cycles=3_000,
            kernels=tiny_kernels(),
        )

    single = matrix(1)
    assert len(single) == 2 * 3 * 2
    assert without_timing(matrix(3)) == without_timing(single)


def test_a_cell_keeps_its_fastest_round_on_fresh_controllers(monkeypatch):
    # A scripted clock: the three rounds take 0.5, 0.2 and 0.3 s.
    ticks = iter([0.0, 0.5, 1.0, 1.2, 2.0, 2.3])
    collector_enabled = []

    def perf_counter():
        collector_enabled.append(gc.isenabled())
        return next(ticks)

    controllers = []
    make_controller = bench._matrix_controller

    def recording_controller(*args):
        controllers.append(make_controller(*args))
        return controllers[-1]

    monkeypatch.setattr(bench, "BENCH_ROUNDS", 3)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=perf_counter))
    monkeypatch.setattr(bench, "_matrix_controller", recording_controller)
    [row] = bench.measure_matrix(
        engines=("fast",), schemes=("gto",), max_cycles=3_000, kernels=tiny_kernels()[:1]
    )
    assert row["wall_seconds"] == pytest.approx(0.2)
    assert row["cycles_per_second"] == pytest.approx(row["cycles"] / 0.2)
    assert len(collector_enabled) == 6 and not any(collector_enabled)
    assert len(controllers) == 3 and len({id(controller) for controller in controllers}) == 3
