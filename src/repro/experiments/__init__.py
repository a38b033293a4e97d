"""Experiment modules — one per table/figure of the paper.

Every module defines one :class:`~repro.experiments.common.ExperimentBase`
subclass (auto-discovered by :mod:`repro.experiments.registry` and exposed
through ``python -m repro``), plus thin module-level ``run(config)`` /
``main()`` shims kept for direct scripting.  Each subclass names the
paper table or figure it reproduces; ``python -m repro list`` and the
README's experiment catalog list the mapping.
"""

from repro.experiments.common import (
    EVALUATION_SCHEMES,
    ArtifactSchema,
    ExperimentBase,
    ExperimentConfig,
    evaluate_schemes,
    preset_config,
    run_scheme_on_benchmark,
    run_scheme_on_kernel,
    train_or_load_model,
)

__all__ = [
    "EVALUATION_SCHEMES",
    "ArtifactSchema",
    "ExperimentBase",
    "ExperimentConfig",
    "evaluate_schemes",
    "preset_config",
    "run_scheme_on_benchmark",
    "run_scheme_on_kernel",
    "train_or_load_model",
]
