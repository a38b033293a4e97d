"""repro — a full reproduction of Poise (HPCA 2019) in Python.

Poise balances thread-level parallelism and memory-system performance in
GPUs by learning, offline, a mapping from architectural/application features
to good *warp-tuples* ``{N, p}`` (vital warps, cache-polluting warps), and by
applying that mapping at runtime in a tiny hardware inference engine with a
local search.

Package layout:

* :mod:`repro.gpu` — the GPU simulator substrate (SM, GTO scheduler with
  vital/pollute bits, L1/MSHR, L2/DRAM, counters, energy).
* :mod:`repro.workloads` — synthetic benchmark suites standing in for the
  paper's CUDA workloads.
* :mod:`repro.profiling` — ``{N, p}`` grid profiling and aggregate metrics.
* :mod:`repro.core` — Poise itself: analytical model, feature vector,
  scoring, Negative Binomial regression, training pipeline, hardware
  inference engine and the runtime controller.
* :mod:`repro.schedulers` — GTO, SWL, CCWS, PCAL-SWL, Static-Best,
  random-restart and APCM baselines.
* :mod:`repro.trace` — trace capture/replay: a binary per-warp trace codec,
  graph-trace directories, and trace-native workload families.
* :mod:`repro.experiments` — one module per table/figure of the paper.

Quickstart::

    from repro import quick_poise_demo
    result = quick_poise_demo()
    print(result["speedup"])
"""

from repro.version import __version__

__all__ = ["__version__", "quick_poise_demo"]


def quick_poise_demo(benchmark: str = "ii", fast: bool = True) -> dict:
    """Train a small model and run Poise on one evaluation benchmark.

    This is a convenience wrapper used by the README quickstart; the example
    scripts under ``examples/`` show the underlying API in full.
    """
    from repro.experiments.common import (
        ExperimentConfig,
        run_scheme_on_benchmark,
        train_or_load_model,
    )

    config = ExperimentConfig.fast() if fast else ExperimentConfig.full()
    model = train_or_load_model(config)
    outcome = run_scheme_on_benchmark("poise", benchmark, model=model, config=config)
    return {
        "benchmark": outcome.benchmark,
        "speedup": outcome.speedup,
        "l1_hit_rate": outcome.l1_hit_rate,
        "aml": outcome.aml,
        "energy_uj": outcome.energy_uj,
    }
