"""Tests for the bench history schema, its strict reader and its writer.

The committed ``BENCH_throughput.json`` is the living fixture: every entry
must pass the v2 schema.  A history the reader cannot trust — an entry of
another shape, a non-list document, a torn file — raises
:class:`BenchSchemaError` naming the file and the entry, and neither
``repro analyze`` nor ``repro bench`` reads past it or rewrites it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import bench as bench_cli
from repro.cli.main import main as repro_main
from repro.obs.schema import (
    BENCH_SCHEMA_VERSION,
    HOT_LOOP_SCHEME,
    BenchSchemaError,
    append_bench_entry,
    load_bench_history,
    validate_bench_entry,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMITTED_HISTORY = REPO_ROOT / "BENCH_throughput.json"


def make_row(kernel: str, engine: str, cps: float = 1_000_000.0) -> dict:
    return {
        "kernel": kernel,
        "engine": engine,
        "cycles": 100_000,
        "instructions": 50_000,
        "wall_seconds": 0.1,
        "cycles_per_second": cps,
        "instructions_per_second": cps / 2.0,
        "python_version": "3.11.0",
        "cpu_count": 4,
    }


def make_v2_entry() -> dict:
    """A minimal entry of the shape ``repro bench`` appends today."""
    return {
        "timestamp": "2026-08-08T00:00:00+00:00",
        "version": "0.5.0",
        "bench_schema": BENCH_SCHEMA_VERSION,
        "environment": {"python_version": "3.11.0", "cpu_count": 4},
        "telemetry": {
            "cache": {"hits": 0, "misses": 0, "corrupt": 0, "stores": 0,
                      "store_failures": 0},
            "phases": {"simulate": {"seconds": 0.5, "calls": 9}},
            "stages": {"throughput": 0.6},
        },
        "throughput": {
            "legacy": {
                "bench_memory_divergent": make_row(
                    "bench_memory_divergent", "legacy", 900_000.0),
                "bench_compute_intensive": make_row(
                    "bench_compute_intensive", "legacy", 640_000.0),
            },
            "fast": {
                "bench_memory_divergent": make_row(
                    "bench_memory_divergent", "fast", 3_200_000.0),
            },
            "trace_replay": make_row("bench_trace_replay", "fast", 1_100_000.0),
        },
        "matrix": [
            dict(make_row("bench_memory_divergent", "fast", 3_100_000.0),
                 scheme="gto", kind="synthetic"),
        ],
        "sweep": {},
    }


# ---------------------------------------------------------------------------
# The committed history: one shape
# ---------------------------------------------------------------------------


def test_committed_history_is_one_shape():
    entries = json.loads(COMMITTED_HISTORY.read_text())
    assert isinstance(entries, list) and len(entries) >= 4
    for entry in entries:
        validate_bench_entry(entry)
    history = load_bench_history(COMMITTED_HISTORY)
    assert all(entry.samples for entry in history.entries)
    # The first entry predates the engine seam and the environment block:
    # its rows were measured on the legacy core, on a host nobody recorded.
    first = history.entries[0]
    assert {(s.scheme, s.engine) for s in first.samples} == {(HOT_LOOP_SCHEME, "legacy")}
    assert first.raw["environment"] == {"python_version": "unrecorded", "cpu_count": 0}


# ---------------------------------------------------------------------------
# The strict reader: a bad history raises, naming the file and the entry
# ---------------------------------------------------------------------------


def _garbage_entry(path: Path) -> str:
    path.write_text(json.dumps([make_v2_entry(), "not an entry"]))
    return "entry #2: bench entry must be an object"


def _flat_row(path: Path) -> str:
    entry = make_v2_entry()
    entry["throughput"]["bench_memory_divergent"] = make_row(
        "bench_memory_divergent", "legacy")
    path.write_text(json.dumps([entry]))
    return "entry #1: throughput['bench_memory_divergent'] must nest rows per engine"


def _non_list(path: Path) -> str:
    path.write_text(json.dumps(make_v2_entry()))
    return "must be a JSON list of entries, not dict"


def _torn(path: Path) -> str:
    text = json.dumps([make_v2_entry()] * 3, indent=2)
    path.write_text(text[: len(text) // 2])
    return "not valid JSON"


BAD_HISTORIES = [_garbage_entry, _flat_row, _non_list, _torn]


@pytest.mark.parametrize("write_bad", BAD_HISTORIES, ids=lambda f: f.__name__[1:])
def test_bad_history_is_refused_by_name(tmp_path, capsys, write_bad):
    path = tmp_path / "history.json"
    violation = write_bad(path)
    before = path.read_bytes()
    with pytest.raises(BenchSchemaError, match=re.escape(f"{path}: ")) as excinfo:
        load_bench_history(path)
    assert violation in str(excinfo.value)
    with pytest.raises(BenchSchemaError):
        append_bench_entry(path, make_v2_entry())
    assert path.read_bytes() == before
    assert repro_main(["analyze", "regress", "--history", str(path)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert str(path) in captured.err and violation in captured.err


# ---------------------------------------------------------------------------
# Entry validation (run on every entry read and every entry appended)
# ---------------------------------------------------------------------------


def test_validate_accepts_a_fresh_entry():
    validate_bench_entry(make_v2_entry())  # must not raise


@pytest.mark.parametrize("mutate, fragment", [
    (lambda e: e.pop("environment"), "environment"),
    (lambda e: e.pop("telemetry"), "telemetry"),
    (lambda e: e.pop("bench_schema"), "bench_schema"),
    (lambda e: e.update(bench_schema=1), "bench_schema"),
    (lambda e: e.update(timestamp=""), "timestamp"),
    (lambda e: e["environment"].pop("cpu_count"), "cpu_count"),
    (lambda e: e["telemetry"].pop("stages"), "stages"),
    (lambda e: e["throughput"]["fast"]["bench_memory_divergent"].pop(
        "cycles_per_second"), "cycles_per_second"),
    (lambda e: e["matrix"][0].pop("scheme"), "scheme"),
    (lambda e: e.pop("sweep"), "sweep"),
    # Flat per-kernel rows are the retired v0 shape — a new entry must nest.
    (lambda e: e["throughput"].update(
        bench_memory_divergent={"cycles_per_second": 1.0}), "v0"),
])
def test_validate_rejects_shape_drift(mutate, fragment):
    entry = make_v2_entry()
    mutate(entry)
    with pytest.raises(BenchSchemaError, match=fragment):
        validate_bench_entry(entry)


def test_validated_entry_roundtrips_through_the_loader(tmp_path):
    entry = make_v2_entry()
    validate_bench_entry(entry)
    path = tmp_path / "history.json"
    path.write_text(json.dumps([entry]))
    history = load_bench_history(path)
    (loaded,) = history.entries
    assert loaded.raw == entry
    assert sorted(sample.bracket for sample in loaded.samples) == [
        "bench_compute_intensive:hot_loop:legacy",
        "bench_memory_divergent:gto:fast",
        "bench_memory_divergent:hot_loop:fast",
        "bench_memory_divergent:hot_loop:legacy",
        "bench_trace_replay:trace_replay:fast",
    ]


# ---------------------------------------------------------------------------
# The writer: one atomic append in canonical form
# ---------------------------------------------------------------------------


def test_append_writes_the_canonical_form(tmp_path):
    path = tmp_path / "history.json"
    first, second = make_v2_entry(), make_v2_entry()
    second["timestamp"] = "2026-08-09T00:00:00+00:00"
    assert append_bench_entry(path, first) == 1
    before = path.read_text()
    assert append_bench_entry(path, second) == 2
    after = path.read_text()
    assert after == json.dumps([first, second], indent=2, sort_keys=True) + "\n"
    # The append adds one entry and touches no byte of the ones before it.
    assert after.startswith(before[: before.rindex("}") + 1])
    assert [entry.raw for entry in load_bench_history(path).entries] == [first, second]


def test_append_refuses_an_invalid_entry(tmp_path):
    path = tmp_path / "history.json"
    entry = make_v2_entry()
    del entry["telemetry"]
    with pytest.raises(BenchSchemaError, match="telemetry"):
        append_bench_entry(path, entry)
    assert not path.exists()


# ---------------------------------------------------------------------------
# `repro bench` reads the history before it measures anything
# ---------------------------------------------------------------------------


def test_bench_exits_2_on_a_torn_history_without_measuring(tmp_path, capsys, monkeypatch):
    path = tmp_path / "torn.json"
    text = COMMITTED_HISTORY.read_text()
    path.write_text(text[:5_000])
    before = path.read_bytes()

    def measure(*args, **kwargs):
        raise AssertionError("repro bench measured before reading its history")

    monkeypatch.setattr(bench_cli, "measure_throughput", measure)
    code = repro_main([
        "bench", "--output", str(path), "--engines", "fast", "--skip-matrix",
        "--skip-sweep", "--max-cycles", "2000",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    assert f"{path}: not valid JSON" in captured.err
    assert path.read_bytes() == before


def test_bench_appends_one_valid_entry(tmp_path, capsys):
    path = tmp_path / "history.json"
    path.write_text(COMMITTED_HISTORY.read_text())
    committed = len(load_bench_history(path).entries)
    code = repro_main([
        "bench", "--output", str(path), "--engines", "fast", "--skip-matrix",
        "--skip-sweep", "--max-cycles", "2000",
    ])
    assert code == 0
    assert f"appended entry #{committed + 1}" in capsys.readouterr().out
    entries = load_bench_history(path).entries
    assert len(entries) == committed + 1
    assert path.read_text().startswith(COMMITTED_HISTORY.read_text()[:-len("\n]\n")])
