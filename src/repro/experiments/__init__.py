"""Experiment modules — one per table/figure of the paper.

Every module defines one :class:`~repro.experiments.registry.Experiment`
subclass, auto-discovered by :mod:`repro.experiments.registry` and run
through ``python -m repro run ID``.  Each subclass names the paper table
or figure it reproduces; ``python -m repro list`` and the README's
experiment catalog list the mapping.
"""

from repro.experiments.common import (
    EVALUATION_SCHEMES,
    ExperimentConfig,
    evaluate_schemes,
    preset_config,
    run_scheme_on_benchmark,
    run_scheme_on_kernel,
    train_or_load_model,
)

__all__ = [
    "EVALUATION_SCHEMES",
    "ExperimentConfig",
    "evaluate_schemes",
    "preset_config",
    "run_scheme_on_benchmark",
    "run_scheme_on_kernel",
    "train_or_load_model",
]
