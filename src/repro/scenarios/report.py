"""Aggregation of per-point artifacts into one schema-validated sweep artifact.

The sweep artifact lives next to the point files::

    <cache_dir>/artifacts/sweeps/<grid>/<label>/sweep.json

and is as content-stable as they are (no timestamps): aggregating the union
of K shards' artifacts yields the same bytes as aggregating a single full
run.  It carries three views:

* ``points`` — every point's axis assignment and metrics, in expansion order;
* ``sensitivity`` — per-axis tables: for each swept axis (more than one
  value), the mean/harmonic-mean speedup of the points sharing each value;
* ``best_scheme`` — for every non-scheme axis combination, which scheme won.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.tables import Table
from repro.profiling.metrics import harmonic_mean
from repro.scenarios.grid import AXIS_ORDER, ScenarioError, ScenarioGrid
from repro.scenarios.runner import POINT_METRICS, SweepRunner, sweep_root

SWEEP_FORMAT_VERSION = 1


def sweep_artifact_path(cache_dir: Union[str, Path], grid_name: str, label: str) -> Path:
    return sweep_root(cache_dir, grid_name, label) / "sweep.json"


def _encode_axis_value(value: Any) -> Any:
    return list(value) if isinstance(value, tuple) else value


def aggregate(
    grid: ScenarioGrid,
    base_config,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Fold every point artifact of a grid into one sweep payload.

    Raises :class:`ScenarioError` when any point artifact is missing (listing
    the absent point ids, so a partially-run sharded sweep tells the operator
    which shards still owe results) and :class:`CorruptPointArtifact` when
    one exists but does not validate.
    """
    runner = SweepRunner(grid, base_config, cache_dir=cache_dir)
    documents: List[Dict[str, Any]] = []
    missing: List[str] = []
    for point in grid.points():
        document = runner.load_point(point)
        if document is None:
            missing.append(point.point_id)
        else:
            documents.append(document)
    if missing:
        preview = ", ".join(missing[:5]) + ("…" if len(missing) > 5 else "")
        base_name, _, overridden = grid.name.partition("@")
        hint = f"repro sweep run {base_name} --{runner.label}" + (
            " (with the same --set overrides)" if overridden else ""
        )
        raise ScenarioError(
            f"sweep {grid.name!r} ({runner.label}) is missing {len(missing)} of "
            f"{grid.size} point artifacts ({preview}) — run the remaining shards "
            f"with `{hint}` first"
        )
    payload: Dict[str, Any] = {
        "format_version": SWEEP_FORMAT_VERSION,
        "kind": "sweep",
        "grid": grid.name,
        "label": runner.label,
        "axes": {
            axis: [_encode_axis_value(value) for value in values]
            for axis, values in grid.axes.items()
        },
        "num_points": len(documents),
        "points": [
            {
                "point_id": document["point_id"],
                "point": document["point"],
                "metrics": document["metrics"],
            }
            for document in documents
        ],
        "sensitivity": _sensitivity(grid, documents),
        "best_scheme": _best_scheme(grid, documents),
    }
    return payload


def _sensitivity(
    grid: ScenarioGrid, documents: List[Dict[str, Any]]
) -> Dict[str, List[Dict[str, Any]]]:
    """Per-axis speedup aggregation over every swept (multi-valued) axis."""
    sensitivity: Dict[str, List[Dict[str, Any]]] = {}
    for axis, values in grid.axes.items():
        if len(values) < 2:
            continue
        rows = []
        for value in values:
            encoded = _encode_axis_value(value)
            speedups = [
                document["metrics"]["speedup"]
                for document in documents
                if document["point"][axis] == encoded
            ]
            rows.append(
                {
                    "value": encoded,
                    "points": len(speedups),
                    "mean_speedup": sum(speedups) / len(speedups),
                    "hmean_speedup": harmonic_mean([max(s, 1e-9) for s in speedups]),
                }
            )
        sensitivity[axis] = rows
    return sensitivity


def _best_scheme(
    grid: ScenarioGrid, documents: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """The winning scheme for every non-scheme axis combination.

    Ties break toward the scheme listed first on the scheme axis (documents
    arrive in expansion order, and a strictly-greater comparison keeps the
    first winner).
    """
    best: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for document in documents:
        rest = {
            axis: value
            for axis, value in document["point"].items()
            if axis != "scheme"
        }
        key = json.dumps(rest, sort_keys=True)
        speedup = document["metrics"]["speedup"]
        if key not in best:
            best[key] = {"point": rest, "scheme": document["point"]["scheme"], "speedup": speedup}
            order.append(key)
        elif speedup > best[key]["speedup"]:
            best[key].update(scheme=document["point"]["scheme"], speedup=speedup)
    return [best[key] for key in order]


def write_sweep_artifact(
    payload: Dict[str, Any],
    cache_dir: Union[str, Path],
) -> Path:
    """Atomically persist a sweep payload at its canonical location."""
    from repro.scenarios.runner import _write_json

    return _write_json(
        sweep_artifact_path(cache_dir, payload["grid"], payload["label"]), payload
    )


class SweepSchema:
    """Structural contract of a sweep artifact.

    Deliberately structural, like :class:`~repro.experiments.registry.ArtifactSchema`:
    it checks the payload's shape (every point carries the promised metrics,
    every swept axis has a sensitivity table, the winners name real schemes),
    not the numeric values.
    """

    def validate(self, payload: Dict[str, Any]) -> None:
        from repro.experiments.common import KNOWN_SCHEMES

        if not isinstance(payload, dict):
            raise ValueError("sweep artifact must be a JSON object")
        for key in ("format_version", "kind", "grid", "label", "axes",
                    "num_points", "points", "sensitivity", "best_scheme"):
            if key not in payload:
                raise ValueError(f"sweep artifact is missing the {key!r} field")
        if payload["kind"] != "sweep":
            raise ValueError(f"unexpected artifact kind {payload['kind']!r}")
        axes = payload["axes"]
        if not isinstance(axes, dict) or not axes:
            raise ValueError("sweep artifact has no axes object")
        unknown = sorted(set(axes) - set(AXIS_ORDER))
        if unknown:
            raise ValueError(f"sweep artifact names unknown axes: {', '.join(unknown)}")
        points = payload["points"]
        if not isinstance(points, list) or not points:
            raise ValueError("sweep artifact has no points")
        if payload["num_points"] != len(points):
            raise ValueError(
                f"num_points says {payload['num_points']} but {len(points)} points present"
            )
        seen_ids = set()
        for entry in points:
            for key in ("point_id", "point", "metrics"):
                if key not in entry:
                    raise ValueError(f"a point entry is missing the {key!r} field")
            if entry["point_id"] in seen_ids:
                raise ValueError(f"duplicate point id {entry['point_id']!r}")
            seen_ids.add(entry["point_id"])
            missing = [name for name in POINT_METRICS if name not in entry["metrics"]]
            if missing:
                raise ValueError(
                    f"point {entry['point_id']!r} is missing metrics: {', '.join(missing)}"
                )
        sensitivity = payload["sensitivity"]
        if not isinstance(sensitivity, dict):
            raise ValueError("sweep artifact has no sensitivity object")
        for axis, values in axes.items():
            if len(values) >= 2 and axis not in sensitivity:
                raise ValueError(f"swept axis {axis!r} has no sensitivity table")
        for axis, rows in sensitivity.items():
            if len(rows) != len(axes.get(axis, ())):
                raise ValueError(f"sensitivity table for {axis!r} does not cover the axis")
            for row in rows:
                for key in ("value", "points", "mean_speedup", "hmean_speedup"):
                    if key not in row:
                        raise ValueError(
                            f"sensitivity row for axis {axis!r} is missing {key!r}"
                        )
        for entry in payload["best_scheme"]:
            if entry.get("scheme") not in KNOWN_SCHEMES:
                raise ValueError(
                    f"best_scheme entry names unknown scheme {entry.get('scheme')!r}"
                )


def sweep_tables(payload: Dict[str, Any]) -> List[Table]:
    """Human-readable tables of a sweep artifact (for ``repro sweep report``)."""
    tables: List[Table] = []
    for axis, rows in payload["sensitivity"].items():
        table = Table(
            title=f"Sweep {payload['grid']} — sensitivity to {axis}",
            columns=[axis, "points", "mean speedup", "hmean speedup"],
        )
        for row in rows:
            table.add_row(
                str(row["value"]), row["points"], row["mean_speedup"], row["hmean_speedup"]
            )
        tables.append(table)
    best = payload["best_scheme"]
    if best:
        table = Table(
            title=f"Sweep {payload['grid']} — best scheme per point",
            columns=["benchmark", "architecture", "best scheme", "speedup"],
        )
        for entry in best:
            point = entry["point"]
            arch = ", ".join(
                f"{axis}={point[axis]}"
                for axis in ("l1_scale", "l1_indexing", "max_warps",
                             "poise_strides", "feature_mask")
                if point.get(axis) not in (None, 1)
            )
            table.add_row(point["benchmark"], arch or "baseline", entry["scheme"], entry["speedup"])
        tables.append(table)
    return tables
