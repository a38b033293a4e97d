"""Auto-discovered registry of every experiment in the evaluation suite.

Every ``fig*``/``table*``/``sec*`` module under :mod:`repro.experiments`
must define exactly one :class:`~repro.experiments.common.ExperimentBase`
subclass; discovery imports each module, harvests the subclass and exposes
it as a declarative :class:`Experiment` descriptor.  A module matching the
naming pattern that defines no subclass (a new experiment that forgot to
register) makes discovery fail loudly — the registry smoke test turns that
into a CI failure.

The registry is the single source of truth for the unified CLI
(``python -m repro list|run|run-all|report``) and for the artifact
validation performed by the smoke-test harness.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple, Type

import repro.experiments as _experiments_pkg
from repro.analysis.tables import ExperimentResult
from repro.experiments.common import ArtifactSchema, Entry, ExperimentBase, ExperimentConfig

#: Module names matching this pattern must contribute a registered experiment.
EXPERIMENT_MODULE_PATTERN = re.compile(r"^(fig|table|sec)")


class RegistryError(ValueError):
    """An experiment module violates the registration contract."""


@dataclass(frozen=True)
class Experiment:
    """Declarative descriptor of one registered experiment."""

    id: str
    title: str
    artifact: str
    module: str
    cls: Type[ExperimentBase]
    schema: ArtifactSchema

    def plan(self, config: ExperimentConfig) -> List[Entry]:
        """The result-cache entries the experiment reads under ``config``."""
        return self.cls().plan(config)

    def run(
        self, config: Optional[ExperimentConfig] = None, **overrides
    ) -> ExperimentResult:
        return self.cls().run(config, **overrides)

    def validate_artifact(self, payload: dict) -> None:
        """Raise ``ValueError`` when an artifact payload violates the schema."""
        if payload.get("experiment_id") != self.id:
            raise ValueError(
                f"artifact names experiment {payload.get('experiment_id')!r}, "
                f"expected {self.id!r}"
            )
        self.schema.validate(payload)


def experiment_module_names() -> List[str]:
    """Every experiment module name under ``repro.experiments``."""
    return sorted(
        name
        for _, name, is_pkg in pkgutil.iter_modules(_experiments_pkg.__path__)
        if not is_pkg and EXPERIMENT_MODULE_PATTERN.match(name)
    )


def _harvest(module_name: str) -> Type[ExperimentBase]:
    qualified = f"repro.experiments.{module_name}"
    module = importlib.import_module(qualified)
    classes = [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, ExperimentBase)
        and obj is not ExperimentBase
        and obj.__module__ == qualified
    ]
    if len(classes) != 1:
        raise RegistryError(
            f"experiment module {qualified} must define exactly one ExperimentBase "
            f"subclass, found {len(classes)}"
        )
    cls = classes[0]
    for attribute in ("experiment_id", "artifact", "title"):
        if not getattr(cls, attribute, ""):
            raise RegistryError(f"{qualified}.{cls.__name__} does not set {attribute!r}")
    return cls


@lru_cache(maxsize=1)
def _discover() -> Tuple[Experiment, ...]:
    experiments: List[Experiment] = []
    seen = {}
    for module_name in experiment_module_names():
        cls = _harvest(module_name)
        if cls.experiment_id in seen:
            raise RegistryError(
                f"duplicate experiment id {cls.experiment_id!r} "
                f"({seen[cls.experiment_id]} and {module_name})"
            )
        seen[cls.experiment_id] = module_name
        experiments.append(
            Experiment(
                id=cls.experiment_id,
                title=cls.title,
                artifact=cls.artifact,
                module=f"repro.experiments.{module_name}",
                cls=cls,
                schema=cls.schema,
            )
        )
    return tuple(sorted(experiments, key=lambda experiment: experiment.id))


def all_experiments() -> List[Experiment]:
    """Every registered experiment, sorted by id."""
    return list(_discover())


def experiment_ids() -> List[str]:
    return [experiment.id for experiment in _discover()]


def get(experiment_id: str) -> Experiment:
    """Look up one experiment by id; raises ``KeyError`` with suggestions."""
    for experiment in _discover():
        if experiment.id == experiment_id:
            return experiment
    known = ", ".join(experiment_ids())
    raise KeyError(f"unknown experiment {experiment_id!r} (known: {known})")
