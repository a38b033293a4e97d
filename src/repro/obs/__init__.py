"""Observability: run telemetry + longitudinal analysis over the artifacts.

Two halves, consumed by ``repro analyze``:

* :mod:`repro.obs.telemetry` — structured run-telemetry counters (cache
  hit/miss/corrupt-fallback, per-phase wall-clock for profile/train/
  simulate/generate) threaded through the existing execution seams and emitted
  into every bench entry and sweep telemetry sidecar.
* :mod:`repro.obs.schema` / :mod:`repro.obs.trajectory` /
  :mod:`repro.obs.regress` / :mod:`repro.obs.compare` — the analysis
  layer: the v2 ``BENCH_throughput.json`` schema with the history's one
  strict reader and one atomic append, per kernel×scheme×engine
  throughput trajectories, statistical regression detection with a
  CI-consumable ``verdict.json``, and cross-sweep comparison of two sweep
  label trees.

Import the submodules directly; this package re-exports nothing.
"""
