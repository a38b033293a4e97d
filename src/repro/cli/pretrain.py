"""``repro pretrain`` — offline, one-time training of the Poise model.

This is the GPU-vendor side of the paper's workflow (Section V): profile the
training benchmarks over the warp-tuple plane, build the training examples,
fit the two Negative Binomial regressions and serialise the feature weights,
which play the role of the compiler-provided constant-memory weights of
Table II.  The model is stored in the result cache (``--cache-dir``) as
the preset's ``model-<key>.json`` entry, so later runs of the same preset
use it instead of training; ``--output`` also writes a copy, which a config's
``model_path`` can name.

Usage::

    python -m repro pretrain [--fast|--full] [--cache-dir DIR] [--output PATH]
                             [--jobs N] [--timeout SECS] [--retries N]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cli.main import experiment_config
from repro.core.model_store import save_model
from repro.core.training import prediction_errors
from repro.experiments.common import plan_training, run_plan, store_model
from repro.runtime.executor import SweepExecutor


def run(args: argparse.Namespace) -> int:
    config = experiment_config(args)
    pipeline = config.training_pipeline()
    benchmarks = config.training_split()
    total_kernels = sum(len(benchmark.kernels) for benchmark in benchmarks)
    print(f"profiling {total_kernels} training kernels ({config.label} configuration)...")

    start = time.perf_counter()
    executor = SweepExecutor(jobs=args.jobs, timeout=args.timeout, retries=args.retries)
    run_plan(plan_training(config), executor)
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
