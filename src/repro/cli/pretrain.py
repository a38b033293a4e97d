"""``repro pretrain`` — offline, one-time training of the Poise model.

This is the GPU-vendor side of the paper's workflow (Section V): profile the
training benchmarks over the warp-tuple plane, build the training examples,
fit the two Negative Binomial regressions and serialise the feature weights,
which play the role of the compiler-provided constant-memory weights of
Table II.  The model is stored in the result cache (``REPRO_CACHE_DIR``) as
the preset's ``model-<key>.json`` entry, so later runs of the same preset
use it instead of training; ``--output`` also writes a copy, which a config's
``model_path`` can name.

Usage::

    python -m repro pretrain [--fast] [--output PATH] [--jobs N]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.core.model_store import save_model
from repro.core.training import prediction_errors
from repro.experiments.common import ExperimentConfig, store_model
from repro.runtime.executor import jobs_arg, jobs_budget
from repro.workloads.registry import training_benchmarks


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro pretrain", description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="use the scaled-down test configuration"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the trained model JSON here",
    )
    parser.add_argument(
        "--jobs",
        type=jobs_arg,
        default=None,
        metavar="N",
        help="profile training kernels over N worker processes "
        "(0 or 'auto' = one per CPU core; overrides REPRO_JOBS)",
    )
    args = parser.parse_args(argv)

    config = ExperimentConfig.fast() if args.fast else ExperimentConfig.full()
    pipeline = config.training_pipeline()
    benchmarks = [
        config.limited_benchmark(benchmark, training=True)
        for benchmark in training_benchmarks()
    ]
    total_kernels = sum(len(benchmark.kernels) for benchmark in benchmarks)
    print(f"profiling {total_kernels} training kernels ({config.label} configuration)...")

    start = time.perf_counter()
    with jobs_budget(args.jobs):
        examples = pipeline.collect_examples(benchmarks)
    model = pipeline.fit(examples)
    elapsed = time.perf_counter() - start

    error_n, error_p = prediction_errors(model, examples)
    print(f"trained on {model.num_training_kernels} admitted kernels in {elapsed:.1f}s")
    print(f"training-set mean prediction error: N {error_n:.1%}, p {error_p:.1%}")
    print("feature weights (alpha for N, beta for p):")
    for index, (alpha, beta) in enumerate(zip(model.alpha_weights, model.beta_weights), start=1):
        print(f"  x{index}: alpha={alpha:+.6f}  beta={beta:+.6f}")

    path = store_model(config, model)
    if path is None:
        print("error: could not store the model in the result cache", file=sys.stderr)
        return 1
    print(f"model stored in the result cache: {path}")
    if args.output is not None:
        print(f"model written to {save_model(model, args.output)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
