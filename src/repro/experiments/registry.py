"""The experiment type, and the auto-discovered registry of every experiment
in the evaluation suite.

Every ``fig*``/``table*``/``sec*`` module under :mod:`repro.experiments`
must define exactly one :class:`Experiment` subclass; discovery imports
each module and keeps one instance of its subclass.  A module matching the
naming pattern that defines no subclass (a new experiment that forgot to
register) makes discovery fail loudly — the registry smoke test turns that
into a CI failure.

The registry is the single source of truth for the unified CLI
(``python -m repro list|run|run-all|report``), the shape benchmarks and
the artifact validation performed by the smoke-test harness.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple, Type

import repro.experiments as _experiments_pkg
from repro.analysis.tables import ExperimentResult
from repro.experiments.common import Entry, ExperimentConfig

#: Module names matching this pattern must contribute a registered experiment.
EXPERIMENT_MODULE_PATTERN = re.compile(r"^(fig|table|sec)")


class RegistryError(ValueError):
    """An experiment module violates the registration contract."""


@dataclass(frozen=True)
class ArtifactSchema:
    """What a well-formed artifact of one experiment must contain.

    Deliberately structural rather than numeric: it checks that the emitted
    JSON has the tables and scalars the experiment promises (so a refactor
    that silently drops a series fails loudly), not that the values match
    the paper — that is the benchmark suite's job.
    """

    min_tables: int = 1
    required_scalars: Tuple[str, ...] = ()
    #: Case-insensitive fragments that must each match some table title.
    required_tables: Tuple[str, ...] = ()

    def validate(self, payload: Dict[str, object]) -> None:
        """Raise ``ValueError`` if an artifact payload violates the schema."""
        tables = payload.get("tables")
        if not isinstance(tables, list) or len(tables) < self.min_tables:
            found = len(tables) if isinstance(tables, list) else "none"
            raise ValueError(f"expected at least {self.min_tables} table(s), found {found}")
        titles = []
        for table in tables:
            if not isinstance(table, dict):
                raise ValueError("every table must be a JSON object")
            for key in ("title", "columns", "rows"):
                if key not in table:
                    raise ValueError(f"table is missing the {key!r} field")
            for row in table["rows"]:
                if len(row) != len(table["columns"]):
                    raise ValueError(
                        f"table {table['title']!r} has a row of width {len(row)} "
                        f"but {len(table['columns'])} columns"
                    )
            titles.append(str(table["title"]).lower())
        for fragment in self.required_tables:
            if not any(fragment.lower() in title for title in titles):
                raise ValueError(f"no table title matches {fragment!r}")
        scalars = payload.get("scalars")
        if not isinstance(scalars, dict):
            raise ValueError("artifact payload has no scalars object")
        missing = [name for name in self.required_scalars if name not in scalars]
        if missing:
            raise ValueError(f"missing required scalars: {', '.join(missing)}")


class Experiment:
    """Base class of every experiment.

    A subclass declares its identity (``experiment_id``, the paper
    ``artifact`` it reproduces, a human ``title``), an :class:`ArtifactSchema`
    for its output, implements :meth:`build` and declares what the build
    reads in :meth:`plan`.  Discovery keeps one instance per module, which
    :func:`get` and :func:`all_experiments` return.
    """

    #: Stable identifier, e.g. ``fig07`` — doubles as the CLI/artifact name.
    experiment_id: str = ""
    #: The paper artefact reproduced, e.g. ``Figure 7``.
    artifact: str = ""
    #: One-line human description.
    title: str = ""
    #: Structural expectations for the emitted artifact.
    schema: ArtifactSchema = ArtifactSchema()

    def plan(self, config: ExperimentConfig) -> List[Entry]:
        """The result-cache entries :meth:`run` reads under ``config``;
        none by default."""
        return []

    def build(self, config: ExperimentConfig) -> ExperimentResult:
        """Produce the experiment's result (implemented by subclasses)."""
        raise NotImplementedError

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        """The experiment's result under ``config``: the one method every
        caller runs an experiment through."""
        return self.build(config)

    def validate_artifact(self, payload: dict) -> None:
        """Raise ``ValueError`` when an artifact payload violates the schema."""
        if payload.get("experiment_id") != self.experiment_id:
            raise ValueError(
                f"artifact names experiment {payload.get('experiment_id')!r}, "
                f"expected {self.experiment_id!r}"
            )
        self.schema.validate(payload)


def experiment_module_names() -> List[str]:
    """Every experiment module name under ``repro.experiments``."""
    return sorted(
        name
        for _, name, is_pkg in pkgutil.iter_modules(_experiments_pkg.__path__)
        if not is_pkg and EXPERIMENT_MODULE_PATTERN.match(name)
    )


def _harvest(module_name: str) -> Type[Experiment]:
    qualified = f"repro.experiments.{module_name}"
    module = importlib.import_module(qualified)
    classes = [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, Experiment)
        and obj is not Experiment
        and obj.__module__ == qualified
    ]
    if len(classes) != 1:
        raise RegistryError(
            f"experiment module {qualified} must define exactly one Experiment "
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
        experiments.append(cls())
    return tuple(sorted(experiments, key=lambda experiment: experiment.experiment_id))


def all_experiments() -> List[Experiment]:
    """Every registered experiment, sorted by id."""
    return list(_discover())


def experiment_ids() -> List[str]:
    return [experiment.experiment_id for experiment in _discover()]


def get(experiment_id: str) -> Experiment:
    """Look up one experiment by id; raises ``KeyError`` with suggestions."""
    for experiment in _discover():
        if experiment.experiment_id == experiment_id:
            return experiment
    known = ", ".join(experiment_ids())
    raise KeyError(f"unknown experiment {experiment_id!r} (known: {known})")
