"""The ``BENCH_throughput.json`` record schema, its reader and its writer.

The bench history is an append-only JSON list of entries, each in the v2
shape :func:`validate_bench_entry` enforces: a ``bench_schema`` version
tag, the host ``environment``, a ``telemetry`` block (cache counters,
phase wall-clock, per-stage timings), hot-loop ``throughput`` rows nested
per engine (``throughput[engine][kernel]``) beside one ``trace_replay``
row, the scheme × kernel × engine ``matrix`` and the ``sweep`` timings.

This module is the only one that reads or writes the file.
:func:`load_bench_history` validates every entry and raises
:class:`BenchSchemaError` naming the file and the first bad entry, so no
reader or writer works on a torn or hand-edited history as if it were
whole; :func:`append_bench_entry` is the one writer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.runtime.cache import atomic_write_json

#: The schema generation every history entry carries.
BENCH_SCHEMA_VERSION = 2

#: Synthetic scheme names for the non-matrix throughput sections, so every
#: sample lives in one kernel × scheme × engine bracket space.
HOT_LOOP_SCHEME = "hot_loop"
TRACE_REPLAY_SCHEME = "trace_replay"

#: Numeric fields every throughput/matrix row must carry.
ROW_NUMERIC_FIELDS = (
    "cycles",
    "instructions",
    "wall_seconds",
    "cycles_per_second",
    "instructions_per_second",
)


class BenchSchemaError(ValueError):
    """A bench history or entry violates the v2 schema."""


@dataclass(frozen=True)
class BenchSample:
    """One comparable throughput measurement in bracket space."""

    kernel: str
    scheme: str
    engine: str
    cycles_per_second: float
    entry_index: int
    timestamp: str

    @property
    def bracket(self) -> str:
        return f"{self.kernel}:{self.scheme}:{self.engine}"


@dataclass
class BenchEntry:
    """One history entry plus the samples extracted from it."""

    index: int
    timestamp: str
    raw: dict
    samples: List[BenchSample] = field(default_factory=list)


@dataclass
class BenchHistory:
    """A loaded history file; every entry passed :func:`validate_bench_entry`."""

    path: Optional[Path]
    entries: List[BenchEntry] = field(default_factory=list)

    @property
    def samples(self) -> List[BenchSample]:
        return [sample for entry in self.entries for sample in entry.samples]


def _entry_samples(entry: dict, index: int) -> List[BenchSample]:
    """Every sample of one validated entry, in bracket space."""
    timestamp = entry["timestamp"]

    def sample(kernel: str, scheme: str, row: dict) -> BenchSample:
        return BenchSample(
            kernel=kernel, scheme=scheme, engine=row["engine"],
            cycles_per_second=float(row["cycles_per_second"]),
            entry_index=index, timestamp=timestamp,
        )

    samples: List[BenchSample] = []
    for key, value in entry["throughput"].items():
        if key == "trace_replay":
            samples.append(sample(value["kernel"], TRACE_REPLAY_SCHEME, value))
        else:
            samples.extend(
                sample(kernel, HOT_LOOP_SCHEME, row) for kernel, row in value.items()
            )
    samples.extend(sample(row["kernel"], row["scheme"], row) for row in entry["matrix"])
    return samples


def load_bench_history(path: Union[str, Path]) -> BenchHistory:
    """Read and validate a history file (a missing file is an empty history).

    Raises :class:`BenchSchemaError` naming the file when it is not valid
    JSON or not a list, or naming the first entry that fails
    :func:`validate_bench_entry`.
    """
    path = Path(path)
    history = BenchHistory(path=path)
    if not path.exists():
        return history
    try:
        items = json.loads(path.read_text())
    except ValueError as error:
        raise BenchSchemaError(f"{path}: not valid JSON ({error})") from None
    if not isinstance(items, list):
        raise BenchSchemaError(
            f"{path}: a bench history must be a JSON list of entries, "
            f"not {type(items).__name__}"
        )
    for index, item in enumerate(items):
        try:
            validate_bench_entry(item)
        except BenchSchemaError as error:
            raise BenchSchemaError(f"{path}: entry #{index + 1}: {error}") from None
        history.entries.append(BenchEntry(
            index=index, timestamp=item["timestamp"], raw=item,
            samples=_entry_samples(item, index),
        ))
    return history


def append_bench_entry(path: Union[str, Path], entry: dict) -> int:
    """Validate ``entry`` and atomically append it to the history at ``path``.

    Re-reads the history strictly first, so an append never rewrites a file
    it could not read.  Returns the new number of entries.
    """
    path = Path(path)
    validate_bench_entry(entry)
    entries = [item.raw for item in load_bench_history(path).entries] + [entry]
    atomic_write_json(path, entries, indent=2, trailing_newline=True)
    return len(entries)


# ---------------------------------------------------------------------------
# The v2 entry schema
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchSchemaError(message)


def _validate_row(row: object, where: str, extra: tuple = ()) -> None:
    _require(isinstance(row, dict), f"{where} must be an object")
    for field_name in ("kernel",) + extra:
        _require(
            isinstance(row.get(field_name), str) and row[field_name],
            f"{where} needs a non-empty string {field_name!r}",
        )
    for field_name in ROW_NUMERIC_FIELDS:
        _require(
            isinstance(row.get(field_name), (int, float)),
            f"{where} needs a numeric {field_name!r}",
        )


def validate_bench_entry(entry: object) -> None:
    """Enforce the v2 schema on one entry, read or about to be appended.

    Raises :class:`BenchSchemaError` naming the first violation.
    """
    _require(isinstance(entry, dict), "bench entry must be an object")
    _require(
        entry.get("bench_schema") == BENCH_SCHEMA_VERSION,
        f"bench entry must carry bench_schema == {BENCH_SCHEMA_VERSION}",
    )
    for field_name in ("timestamp", "version"):
        _require(
            isinstance(entry.get(field_name), str) and entry[field_name],
            f"bench entry needs a non-empty string {field_name!r}",
        )
    environment = entry.get("environment")
    _require(isinstance(environment, dict), "bench entry needs an environment object")
    _require(
        isinstance(environment.get("python_version"), str),
        "environment needs a string 'python_version'",
    )
    _require(
        isinstance(environment.get("cpu_count"), int),
        "environment needs an integer 'cpu_count'",
    )
    telemetry = entry.get("telemetry")
    _require(isinstance(telemetry, dict), "bench entry needs a telemetry object")
    for section in ("cache", "phases", "stages"):
        _require(
            isinstance(telemetry.get(section), dict),
            f"telemetry needs a {section!r} object",
        )
    throughput = entry.get("throughput")
    _require(
        isinstance(throughput, dict) and throughput,
        "bench entry needs a non-empty throughput object",
    )
    for key, value in throughput.items():
        if key == "trace_replay":
            _validate_row(value, "throughput['trace_replay']", extra=("engine",))
            continue
        _require(
            isinstance(value, dict) and value,
            f"throughput[{key!r}] must be a non-empty per-kernel object",
        )
        _require(
            "cycles_per_second" not in value,
            f"throughput[{key!r}] must nest rows per engine "
            f"(flat rows are the retired v0 shape)",
        )
        for kernel, row in value.items():
            _validate_row(row, f"throughput[{key!r}][{kernel!r}]", extra=("engine",))
    matrix = entry.get("matrix")
    _require(isinstance(matrix, list), "bench entry needs a matrix list (may be empty)")
    for position, row in enumerate(matrix):
        _validate_row(
            row, f"matrix row #{position}", extra=("scheme", "engine", "kind")
        )
    _require(isinstance(entry.get("sweep"), dict), "bench entry needs a sweep object")
