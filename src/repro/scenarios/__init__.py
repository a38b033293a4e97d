"""Declarative scenario sweeps.

One :class:`~repro.scenarios.grid.ScenarioGrid` declares a cross-product of
axes — schemes, benchmarks, architecture knobs from
:mod:`repro.gpu.config`, Poise's strides and features, kernel graphs — and expands
deterministically into frozen :class:`~repro.scenarios.grid.ScenarioPoint`
objects.  The :class:`~repro.scenarios.runner.SweepRunner` executes points
with one content-stable JSON artifact each, so N containers can split a
grid with ``--shard K/N`` and the union of their artifacts is byte-identical
to a single full run; ``--resume`` skips points whose artifact already
validates.  :mod:`repro.scenarios.report` folds the per-point artifacts into
one schema-validated sweep artifact (per-axis sensitivity, best scheme per
point).  :mod:`repro.scenarios.library` registers the named grids the
``repro sweep`` CLI exposes, including the grids behind Figures 11–13.
"""

from repro.scenarios.grid import (
    AXIS_ORDER,
    ScenarioError,
    ScenarioGrid,
    ScenarioPoint,
    parse_shard,
)
from repro.scenarios.runner import (
    CorruptPointArtifact,
    SweepRunner,
    evaluate_grid,
    evaluate_point,
)
from repro.scenarios.report import SweepSchema, aggregate, sweep_artifact_path
from repro.scenarios.library import get_grid, named_grids

__all__ = [
    "AXIS_ORDER",
    "CorruptPointArtifact",
    "ScenarioError",
    "ScenarioGrid",
    "ScenarioPoint",
    "SweepRunner",
    "SweepSchema",
    "aggregate",
    "evaluate_grid",
    "evaluate_point",
    "get_grid",
    "named_grids",
    "parse_shard",
    "sweep_artifact_path",
]
