"""Experiment execution and JSON-artifact I/O for the unified CLI.

One experiment run produces one *artifact*: a JSON document with the
experiment's tables, scalars and notes plus provenance (config label,
cache key, package version, wall-clock).  Artifacts live under

    <cache_dir>/artifacts/<label>/<experiment_id>.json

and are written atomically, like the result cache.  The CLI builds each
experiment with :func:`run_experiment`, in-process, once its plan has
filled the result cache.
"""

from __future__ import annotations

import datetime
import json
import time
from pathlib import Path
from typing import Dict, List, Union

from repro.experiments.common import ExperimentConfig
from repro.experiments.registry import Experiment
from repro.runtime.cache import atomic_write_json
from repro.version import __version__

ARTIFACT_FORMAT_VERSION = 1


def artifacts_dir(cache_dir: Union[str, Path], label: str) -> Path:
    return Path(cache_dir) / "artifacts" / label


def artifact_path(cache_dir: Union[str, Path], label: str, experiment_id: str) -> Path:
    return artifacts_dir(cache_dir, label) / f"{experiment_id}.json"


def run_experiment(experiment: Experiment, config: ExperimentConfig) -> Dict[str, object]:
    """Run one registered experiment under ``config`` and return its
    artifact payload."""
    start = time.perf_counter()
    result = experiment.run(config)
    elapsed = time.perf_counter() - start
    payload: Dict[str, object] = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "version": __version__,
        "artifact": experiment.artifact,
        "title": experiment.title,
        "config": {"label": config.label, "cache_key": config.cache_key},
        "elapsed_seconds": round(elapsed, 3),
    }
    payload.update(result.to_dict())
    return payload


def write_artifact(
    payload: Dict[str, object], cache_dir: Union[str, Path], label: str
) -> Path:
    """Atomically write one artifact; returns the path written."""
    path = artifact_path(cache_dir, label, str(payload["experiment_id"]))
    return atomic_write_json(path, payload, indent=2, trailing_newline=True)


def load_artifacts(cache_dir: Union[str, Path], label: str) -> List[Dict[str, object]]:
    """Every readable artifact under the given cache dir and label, by id."""
    directory = artifacts_dir(cache_dir, label)
    artifacts = []
    if not directory.is_dir():
        return artifacts
    for path in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue  # unreadable artifact: skip, report shows what exists
        if isinstance(payload, dict) and payload.get("experiment_id"):
            artifacts.append(payload)
    return artifacts
