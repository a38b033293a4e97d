#!/usr/bin/env python
"""Quickstart: run Poise on one unseen benchmark and compare with GTO.

This example uses the model ``repro pretrain`` stored in the result cache
when there is one (the equivalent of the vendor-shipped feature weights of
Table II) and otherwise trains a small model on the training suite, then runs
the Poise controller on an evaluation benchmark and prints the headline
metrics.

Run with::

    python examples/quickstart.py [--benchmark ii] [--fast]
"""

from __future__ import annotations

import argparse

from repro.experiments.common import (
    ExperimentConfig,
    run_scheme_on_benchmark,
    train_or_load_model,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="ii", help="evaluation benchmark name")
    parser.add_argument(
        "--fast", action="store_true", help="use the scaled-down test configuration"
    )
    args = parser.parse_args()

    config = ExperimentConfig.fast() if args.fast else ExperimentConfig.full()
    print(f"configuration: {config.label}")

    model = train_or_load_model(config)
    print(f"model: trained on {model.num_training_kernels} kernels, "
          f"{len(model.alpha_weights)} features")

    gto = run_scheme_on_benchmark("gto", args.benchmark, config)
    poise = run_scheme_on_benchmark("poise", args.benchmark, config, model=model)

    print(f"\nbenchmark: {args.benchmark}")
    print(f"  GTO   : IPC {gto.ipc:.3f}  L1 hit {gto.l1_hit_rate:5.1%}  "
          f"AML {gto.aml:6.1f}  energy {gto.energy_uj:8.1f} uJ")
    print(f"  Poise : IPC {poise.ipc:.3f}  L1 hit {poise.l1_hit_rate:5.1%}  "
          f"AML {poise.aml:6.1f}  energy {poise.energy_uj:8.1f} uJ")
    print(f"\n  Poise speedup over GTO : {poise.speedup:.3f}x")
    print(f"  Energy relative to GTO : {poise.energy_ratio:.3f}x")
    for kernel, telemetry in poise.telemetry.items():
        print(f"  {kernel}: predicted {telemetry['predicted_tuples']}, "
              f"searched {telemetry['searched_tuples']}")


if __name__ == "__main__":
    main()
