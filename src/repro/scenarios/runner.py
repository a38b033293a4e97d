"""Execution of scenario grids with per-point artifacts, sharding and resume.

Every :class:`~repro.scenarios.grid.ScenarioPoint` produces exactly one JSON
artifact under::

    <cache_dir>/artifacts/sweeps/<grid>/<label>/points/<point_id>.json

The payload is *content-stable*: no timestamps, no wall-clock, no
host-dependent field — only the point's axis assignment and the
deterministic simulation metrics.  That is the property the whole sharding
story rests on: K containers running ``--shard k/K`` each write a disjoint
subset of the point files, and the union of their artifact directories is
byte-identical to what one unsharded run writes.

``resume=True`` skips points whose artifact already exists and validates
(same format version, same axis assignment, metrics present).  A *corrupt*
artifact — unreadable JSON, a different point under the same name, a
missing metrics object — is **quarantined and recomputed**: the offending
file is moved (never deleted — the operator can still inspect a torn copy
or a mixed-up artifact directory) to a ``quarantine/`` sibling of the
``points/`` directory and the point rejoins the to-compute list, so one
bad file can no longer abort a resumed sweep.  Every quarantine is
reported in the run's failure accounting.  Aggregation
(:func:`repro.scenarios.report.aggregate`) still *raises* on a corrupt
artifact: a report must never silently paper over bad inputs.

Each run also checkpoints defensively.  Stale atomic-write temp files left
by writers that died mid-write are swept on entry.  Points stream through
one :meth:`~repro.runtime.executor.SweepExecutor.imap`, serial or pooled,
so every artifact is written as soon as its point's metrics are final and
validated by reading it back (a torn write is quarantined and rewritten
from the in-memory metrics).  The executor's per-job
timeout/retry/salvage accounting is surfaced through
:class:`SweepRunReport`.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs.telemetry import (
    TELEMETRY_FORMAT_VERSION,
    add_worker_cache,
    describe_phases,
    describe_run_cache,
    telemetry_delta,
    telemetry_snapshot,
)
from repro.runtime import faults
from repro.runtime.cache import atomic_write_json, sweep_stale_tmps
from repro.runtime.executor import JobReport, SweepExecutor
from repro.scenarios.grid import ScenarioError, ScenarioGrid, ScenarioPoint

POINT_FORMAT_VERSION = 1

#: Metric names every point artifact carries (the deterministic aggregate of
#: one scheme over one benchmark, mirroring ``BenchmarkOutcome``).
POINT_METRICS = (
    "speedup",
    "ipc",
    "l1_hit_rate",
    "aml",
    "aml_ratio",
    "energy_ratio",
)


class CorruptPointArtifact(ScenarioError):
    """A per-point artifact exists but cannot be trusted."""


def sweep_root(cache_dir: Union[str, Path], grid_name: str, label: str) -> Path:
    return Path(cache_dir) / "artifacts" / "sweeps" / grid_name / label


def points_dir(cache_dir: Union[str, Path], grid_name: str, label: str) -> Path:
    return sweep_root(cache_dir, grid_name, label) / "points"


def _write_json(path: Path, payload: Dict[str, Any]) -> Path:
    """Atomic, canonical (sorted-keys, trailing-newline) JSON write."""
    return atomic_write_json(path, payload, indent=2, trailing_newline=True)


def _short_reason(error: CorruptPointArtifact) -> str:
    """The quarantine-record reason: the diagnosis without the delete hint."""
    return str(error).split(" — ")[0]


def evaluate_point(point: ScenarioPoint, base_config) -> Dict[str, Any]:
    """Run one scenario point and return its deterministic metrics.

    The model (for Poise schemes) is always resolved on the *base*
    configuration — architecture and stride axes are deployment-time
    changes, the regression is trained on the baseline platform, exactly as
    in the paper's sensitivity studies (Figs. 11–13).
    """
    from repro.experiments.common import (
        run_mix_on_benchmark,
        run_scheme_on_benchmark,
        train_or_load_model,
    )

    config = point.experiment_config(base_config)
    model = None
    if point.scheme.startswith("poise"):
        mask = list(point.feature_mask) if point.feature_mask is not None else None
        model = train_or_load_model(base_config, feature_mask=mask)
    if point.kernel_mix is not None:
        # DAG point: the benchmark's kernels run as a dependency graph on
        # the point's chip (grid validation pins the scheme to gto).
        outcome = run_mix_on_benchmark(point.benchmark, config, point.kernel_mix)
    else:
        outcome = run_scheme_on_benchmark(point.scheme, point.benchmark, config, model=model)
    return outcome_metrics(outcome)


def plan_point(point: ScenarioPoint, base_config) -> List:
    """The result-cache entries :func:`evaluate_point` reads."""
    from repro.experiments.common import model_entry, plan_benchmark, plan_mix

    config = point.experiment_config(base_config)
    if point.kernel_mix is not None:
        return plan_mix(point.benchmark, config, point.kernel_mix)
    model = model_entry(base_config, point.feature_mask)
    return plan_benchmark(point.scheme, point.benchmark, config, model)


def outcome_metrics(outcome) -> Dict[str, Any]:
    """The content-stable metrics payload of one ``BenchmarkOutcome``."""
    metrics: Dict[str, Any] = {name: getattr(outcome, name) for name in POINT_METRICS}
    metrics["kernels"] = {
        name: {
            "cycles": result.cycles,
            "instructions": result.counters.instructions,
            "l1_hit_rate": result.l1_hit_rate,
            "warp_tuple": list(result.warp_tuple),
            "completed": result.completed,
        }
        for name, result in sorted(outcome.kernel_results.items())
    }
    graph = (
        outcome.telemetry.get("graph") if isinstance(outcome.telemetry, dict) else None
    )
    if graph is not None:
        # DAG points carry their deterministic schedule (content-stable:
        # names, slots and cycle numbers only).
        metrics["graph"] = graph
    return metrics


def evaluate_grid(
    grid: ScenarioGrid, base_config
) -> Dict[ScenarioPoint, Dict[str, Any]]:
    """Evaluate every point of a grid in expansion order.

    This is the in-process path the refactored sensitivity figures use: no
    artifacts, just ``{point: metrics}`` backed by the ordinary run caches.
    """
    return {point: evaluate_point(point, base_config) for point in grid.points()}


def plan_grid(grid: ScenarioGrid, base_config) -> List:
    """The result-cache entries :func:`evaluate_grid` reads."""
    return [entry for point in grid.points() for entry in plan_point(point, base_config)]


@dataclass(frozen=True)
class PointStatus:
    """What happened to one point during a :meth:`SweepRunner.run`."""

    point: ScenarioPoint
    path: Path
    status: str  # "computed" or "skipped"


@dataclass(frozen=True)
class QuarantineRecord:
    """One corrupt artifact moved aside instead of aborting the sweep."""

    point: ScenarioPoint
    source: Path
    destination: Path
    reason: str


@dataclass
class SweepRunReport:
    """Failure accounting of one :meth:`SweepRunner.run_report` call."""

    statuses: List[PointStatus] = field(default_factory=list)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    repaired_writes: int = 0
    stale_tmps_removed: int = 0
    job_report: Optional[JobReport] = None
    #: Cache counters + phase wall-clock accumulated by this run.  The
    #: ``cache`` section is the parent's share; for a parallel run the
    #: worker-side deltas shipped home with the job results appear as
    #: ``cache_workers`` and the sum of both as ``cache_combined``.
    telemetry: Optional[Dict[str, Any]] = None
    #: True when a graceful-stop request (SIGINT/SIGTERM) ended the run
    #: before every point was computed; rerun with ``resume`` to finish.
    interrupted: bool = False

    @property
    def computed(self) -> int:
        return sum(status.status == "computed" for status in self.statuses)

    @property
    def skipped(self) -> int:
        return len(self.statuses) - self.computed

    def summary_lines(self) -> List[str]:
        """The failure-accounting lines ``repro sweep run`` prints."""
        lines = []
        if self.job_report is not None:
            lines.append(f"jobs: {self.job_report.summary()}")
        if self.stale_tmps_removed:
            plural = "" if self.stale_tmps_removed == 1 else "s"
            lines.append(f"swept {self.stale_tmps_removed} stale temp file{plural}")
        for record in self.quarantined:
            lines.append(
                f"quarantined {record.source.name} -> {record.destination} "
                f"({record.reason})"
            )
        if self.repaired_writes:
            plural = "" if self.repaired_writes == 1 else "s"
            lines.append(
                f"repaired {self.repaired_writes} torn artifact write{plural} "
                f"(validated after rewrite)"
            )
        spec = faults.active_spec()
        if spec is not None:
            lines.append(f"faults injected: {spec.describe()}")
        if self.telemetry is not None:
            lines.append(f"cache: {describe_run_cache(self.telemetry)}")
            phases = self.telemetry.get("phases") or {}
            if phases:
                lines.append(f"phases: {describe_phases(phases)}")
        if self.interrupted:
            lines.append(
                "interrupted before every point completed — rerun with "
                "--resume to finish"
            )
        return lines


class SweepRunner:
    """Executes a grid (or one shard of it) into per-point artifacts."""

    def __init__(
        self,
        grid: ScenarioGrid,
        base_config,
        cache_dir: Optional[Union[str, Path]] = None,
        evaluate: Optional[Callable[[ScenarioPoint], Dict[str, Any]]] = None,
    ) -> None:
        self.grid = grid
        self.config = base_config
        self.cache_dir = Path(cache_dir) if cache_dir is not None else Path(base_config.cache_dir)
        self._evaluate = evaluate

    # -- layout -----------------------------------------------------------------

    @property
    def label(self) -> str:
        return self.config.label

    @property
    def root(self) -> Path:
        return sweep_root(self.cache_dir, self.grid.name, self.label)

    def point_path(self, point: ScenarioPoint) -> Path:
        return points_dir(self.cache_dir, self.grid.name, self.label) / f"{point.point_id}.json"

    def point_payload(self, point: ScenarioPoint, metrics: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "format_version": POINT_FORMAT_VERSION,
            "kind": "sweep-point",
            "grid": self.grid.name,
            "label": self.label,
            "point_id": point.point_id,
            "point": point.payload(),
            "metrics": metrics,
        }

    # -- resume validation --------------------------------------------------------

    def load_point(self, point: ScenarioPoint) -> Optional[Dict[str, Any]]:
        """The validated artifact for ``point``, or ``None`` when absent.

        Raises :class:`CorruptPointArtifact` when a file exists but is not a
        well-formed artifact of exactly this point.
        """
        path = self.point_path(point)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as error:
            raise CorruptPointArtifact(
                f"point artifact {path} is unreadable ({error}) — "
                f"a resumed run quarantines and recomputes it"
            ) from None
        try:
            document = json.loads(text)
        except ValueError:
            raise CorruptPointArtifact(
                f"point artifact {path} is not valid JSON (truncated or corrupt) — "
                f"a resumed run quarantines and recomputes it"
            ) from None
        if not isinstance(document, dict) or document.get("format_version") != POINT_FORMAT_VERSION:
            raise CorruptPointArtifact(
                f"point artifact {path} has an unsupported format "
                f"(expected format_version {POINT_FORMAT_VERSION}) — "
                f"a resumed run quarantines and recomputes it"
            )
        if document.get("point") != point.payload() or document.get("grid") != self.grid.name:
            raise CorruptPointArtifact(
                f"point artifact {path} describes a different scenario than "
                f"{point.point_id!r} — the artifact directory is inconsistent; "
                f"a resumed run quarantines and recomputes it"
            )
        metrics = document.get("metrics")
        if not isinstance(metrics, dict):
            raise CorruptPointArtifact(
                f"point artifact {path} has no metrics object — "
                f"a resumed run quarantines and recomputes it"
            )
        incomplete = [name for name in POINT_METRICS if name not in metrics]
        if incomplete:
            raise CorruptPointArtifact(
                f"point artifact {path} is missing metrics "
                f"({', '.join(incomplete)}) — a resumed run quarantines and recomputes it"
            )
        return document

    # -- quarantine ---------------------------------------------------------------

    @property
    def quarantine_root(self) -> Path:
        return self.root / "quarantine"

    def _quarantine(
        self, point: ScenarioPoint, path: Path, reason: str
    ) -> QuarantineRecord:
        """Move a corrupt artifact aside (never delete — operators inspect it)."""
        self.quarantine_root.mkdir(parents=True, exist_ok=True)
        destination = self.quarantine_root / path.name
        suffix = 1
        while destination.exists():
            destination = self.quarantine_root / f"{path.name}.{suffix}"
            suffix += 1
        os.replace(path, destination)
        return QuarantineRecord(point, path, destination, reason)

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        shard: Optional[Tuple[int, int]] = None,
        resume: bool = False,
        jobs: Optional[int] = None,
        progress: Optional[Callable[[PointStatus], None]] = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> List[PointStatus]:
        """Execute the grid (or one shard), writing one artifact per point."""
        return self.run_report(
            shard=shard,
            resume=resume,
            jobs=jobs,
            progress=progress,
            timeout=timeout,
            retries=retries,
            stop=stop,
        ).statuses

    def run_report(
        self,
        shard: Optional[Tuple[int, int]] = None,
        resume: bool = False,
        jobs: Optional[int] = None,
        progress: Optional[Callable[[PointStatus], None]] = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> SweepRunReport:
        """Like :meth:`run`, returning the full failure accounting.

        Points stream through one executor whatever ``jobs`` is, and each
        artifact is written as soon as its metrics are final.  ``stop`` is
        a graceful-interrupt predicate checked before each point's result
        is taken: once it returns True no further point is *started* (the
        pool's queued points are cancelled and its workers stopped), the
        in-flight artifact write completes, the telemetry sidecar is still
        written and the report comes back with ``interrupted=True`` —
        nothing is ever torn, so a later ``resume`` run completes
        byte-identically.
        """
        points = self.grid.shard(*shard) if shard is not None else self.grid.points()
        telemetry_before = telemetry_snapshot()
        report = SweepRunReport()
        report.stale_tmps_removed = sweep_stale_tmps(
            points_dir(self.cache_dir, self.grid.name, self.label)
        )
        statuses: Dict[ScenarioPoint, PointStatus] = {}
        todo: List[ScenarioPoint] = []
        for point in points:
            if resume:
                try:
                    document = self.load_point(point)
                except CorruptPointArtifact as error:
                    record = self._quarantine(
                        point, self.point_path(point), _short_reason(error)
                    )
                    report.quarantined.append(record)
                    todo.append(point)
                    continue
                if document is not None:
                    statuses[point] = PointStatus(point, self.point_path(point), "skipped")
                    if progress is not None:
                        progress(statuses[point])
                    continue
            todo.append(point)
        spec = faults.active_spec()
        write_plan = spec.site_plan("runner.write", len(todo)) if spec else {}
        executor = SweepExecutor(jobs=jobs, timeout=timeout, retries=retries)
        if self._evaluate is not None:
            evaluate, job_args = self._evaluate, [(point,) for point in todo]
        else:
            from repro.experiments.common import model_entry, run_plan

            # The points' models, resolved once here for the workers to read.
            poise = [point for point in todo if point.scheme.startswith("poise")]
            run_plan([model_entry(self.config, point.feature_mask) for point in poise], executor)
            evaluate, job_args = evaluate_point, [(point, self.config) for point in todo]
        with closing(executor.imap(evaluate, job_args)) as results:
            for index, point in enumerate(todo):
                if stop is not None and stop():
                    break
                path = self._write_point(
                    point, next(results), report, write_plan.pop(index, None)
                )
                statuses[point] = PointStatus(point, path, "computed")
                if progress is not None:
                    progress(statuses[point])
        report.job_report = executor.last_report
        report.statuses = [statuses[point] for point in points if point in statuses]
        report.interrupted = len(report.statuses) < len(points)
        report.telemetry = add_worker_cache(
            telemetry_delta(telemetry_before),
            report.job_report.worker_cache if report.job_report is not None else None,
        )
        self._write_telemetry(report)
        return report

    def _write_telemetry(self, report: SweepRunReport) -> Optional[Path]:
        """Best-effort run-telemetry sidecar at the sweep root.

        Deliberately *outside* ``points/`` and ``sweep.json``: those are
        content-stable and byte-compared across shards and chaos runs,
        while telemetry is per-run wall-clock by nature.  A failed write
        never fails the sweep.
        """
        payload = {
            "format_version": TELEMETRY_FORMAT_VERSION,
            "kind": "sweep-run-telemetry",
            "grid": self.grid.name,
            "label": self.label,
            "computed": report.computed,
            "skipped": report.skipped,
            "interrupted": report.interrupted,
            "quarantined": len(report.quarantined),
            "repaired_writes": report.repaired_writes,
            "stale_tmps_removed": report.stale_tmps_removed,
            "job_report": (
                report.job_report.to_dict() if report.job_report is not None else None
            ),
            "telemetry": report.telemetry,
        }
        try:
            return _write_json(self.root / "run_telemetry.json", payload)
        except OSError:
            return None

    def _write_point(
        self,
        point: ScenarioPoint,
        metrics: Dict[str, Any],
        report: SweepRunReport,
        injected_mode: Optional[str] = None,
    ) -> Path:
        """Write one artifact and validate it back before trusting it.

        A write that does not validate (torn by a crash — or by the
        ``runner.write`` fault site simulating one) is quarantined and
        rewritten from the in-memory metrics; the metrics are deterministic,
        so the repaired artifact is byte-identical to an untorn one.
        """
        path = self.point_path(point)
        payload = self.point_payload(point, metrics)
        for attempt in range(3):
            _write_json(path, payload)
            if injected_mode is not None:
                faults.corrupt_artifact(path, injected_mode)
                injected_mode = None  # a torn write happens once, not per retry
            try:
                self.load_point(point)
                return path
            except CorruptPointArtifact as error:
                if attempt == 2:
                    raise
                report.quarantined.append(
                    self._quarantine(point, path, _short_reason(error))
                )
                report.repaired_writes += 1
        raise AssertionError("unreachable")  # pragma: no cover
