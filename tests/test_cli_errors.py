"""CLI failure paths must exit non-zero with a clear message — no traceback.

Pinned here for ``repro sweep``: unknown grids, unknown axis values,
malformed shard specs, and corrupt per-point artifacts under ``--resume``.
Every case asserts on the exit code, on the message fragment a user needs
to act, and on the absence of a Python traceback.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli.main import build_parser
from repro.cli.main import main as repro_main
from repro.gpu.engine import ENGINES


@pytest.fixture()
def sweep_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def run_cli(capsys, *argv):
    code = repro_main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "Traceback" not in captured.out
    return code, captured


def test_unknown_grid_name(sweep_cache, capsys):
    code, captured = run_cli(capsys, "sweep", "run", "bogus-grid", "--fast")
    assert code == 2
    assert "unknown sweep grid 'bogus-grid'" in captured.err
    assert "smoke" in captured.err  # suggests the known grids


def test_unknown_axis_value(sweep_cache, capsys):
    code, captured = run_cli(
        capsys, "sweep", "run", "smoke", "--fast", "--set", "scheme=gto,bogus"
    )
    assert code == 2
    assert "axis 'scheme'" in captured.err and "'bogus'" in captured.err


def test_unknown_axis_name(sweep_cache, capsys):
    code, captured = run_cli(
        capsys, "sweep", "run", "smoke", "--fast", "--set", "turbo=1"
    )
    assert code == 2
    assert "unknown axis 'turbo'" in captured.err


def test_unknown_benchmark_value(sweep_cache, capsys):
    code, captured = run_cli(
        capsys, "sweep", "plan", "smoke", "--fast", "--set", "benchmark=not-a-benchmark"
    )
    assert code == 2
    assert "axis 'benchmark'" in captured.err


def test_malformed_set_flag(sweep_cache, capsys):
    code, captured = run_cli(capsys, "sweep", "run", "smoke", "--fast", "--set", "scheme")
    assert code == 2
    assert "malformed --set" in captured.err


@pytest.mark.parametrize("spec", ["0/4", "5/4", "x/4", "1/2/3", "1/0"])
def test_malformed_shard_spec(sweep_cache, capsys, spec):
    code, captured = run_cli(
        capsys, "sweep", "run", "smoke", "--fast", "--shard", spec
    )
    assert code == 2
    assert "shard" in captured.err
    assert spec.split("/")[0] in captured.err or "malformed" in captured.err


def _first_point_artifact(cache: Path) -> Path:
    points = sorted((cache / "artifacts" / "sweeps" / "smoke" / "fast" / "points").glob("*.json"))
    assert points, "expected the sweep run to have written point artifacts"
    return points[0]


def test_corrupt_point_artifact_on_resume_is_quarantined(sweep_cache, capsys):
    # A real (tiny) run first, so there is an artifact to corrupt.
    code, _ = run_cli(capsys, "sweep", "run", "smoke", "--fast", "--shard", "1/2")
    assert code == 0
    victim = _first_point_artifact(sweep_cache)
    pristine = victim.read_bytes()
    victim.write_text("{truncated")
    # A corrupt artifact no longer aborts the resumed run: it is moved to
    # quarantine/, named in the summary, and the point is recomputed.
    code, captured = run_cli(
        capsys, "sweep", "run", "smoke", "--fast", "--shard", "1/2", "--resume"
    )
    assert code == 0
    assert "quarantined" in captured.out
    assert "not valid JSON" in captured.out
    assert victim.name in captured.out
    assert victim.read_bytes() == pristine
    quarantine = victim.parent.parent / "quarantine"
    assert (quarantine / victim.name).read_text() == "{truncated"

    # Same recovery for a parseable artifact describing a different scenario.
    payload = {"format_version": 1, "kind": "sweep-point", "grid": "smoke",
               "point": {"scheme": "other"}, "metrics": {}}
    victim.write_text(json.dumps(payload))
    code, captured = run_cli(
        capsys, "sweep", "run", "smoke", "--fast", "--shard", "1/2", "--resume"
    )
    assert code == 0
    assert "different scenario" in captured.out
    assert victim.read_bytes() == pristine

    # Aggregation, by contrast, still refuses corrupt inputs outright.
    victim.write_text("{truncated")
    code, captured = run_cli(capsys, "sweep", "report", "smoke", "--fast")
    assert code == 1
    assert "not valid JSON" in captured.err


def test_report_with_missing_points(sweep_cache, capsys):
    code, _ = run_cli(capsys, "sweep", "run", "smoke", "--fast", "--shard", "1/2")
    assert code == 0
    code, captured = run_cli(capsys, "sweep", "report", "smoke", "--fast")
    assert code == 2
    assert "missing 4 of 8 point artifacts" in captured.err
    # The remediation hint is runnable as-is: same grid, same label.
    assert "repro sweep run smoke --fast" in captured.err


def test_set_overrides_get_their_own_artifact_tree(sweep_cache, capsys):
    """An overridden grid must never mix points into (or clobber the
    sweep.json of) the canonical named grid's artifact tree."""
    code, captured = run_cli(
        capsys, "sweep", "run", "smoke", "--fast", "--set", "benchmark=mvt"
    )
    assert code == 0
    sweeps = sweep_cache / "artifacts" / "sweeps"
    derived = [path.name for path in sweeps.iterdir() if path.name.startswith("smoke@")]
    assert len(derived) == 1 and "smoke@" in captured.out
    assert not (sweeps / "smoke").exists()
    # The derived name is deterministic: the same overrides reuse the tree.
    code, _ = run_cli(
        capsys, "sweep", "run", "smoke", "--fast", "--set", "benchmark=mvt", "--resume"
    )
    assert code == 0
    assert [path.name for path in sweeps.iterdir()] == derived
    code, captured = run_cli(
        capsys, "sweep", "report", "smoke", "--fast", "--set", "benchmark=mvt"
    )
    assert code == 0
    assert (sweeps / derived[0] / "fast" / "sweep.json").exists()


def test_successful_shard_then_report_round_trip(sweep_cache, capsys):
    """The happy path the failure cases bracket: 2 shards + report succeed."""
    assert run_cli(capsys, "sweep", "run", "smoke", "--fast", "--shard", "1/2")[0] == 0
    assert run_cli(capsys, "sweep", "run", "smoke", "--fast", "--shard", "2/2")[0] == 0
    code, captured = run_cli(capsys, "sweep", "report", "smoke", "--fast")
    assert code == 0
    assert "8 points aggregated" in captured.out
    sweep_json = sweep_cache / "artifacts" / "sweeps" / "smoke" / "fast" / "sweep.json"
    assert sweep_json.exists()


def test_unknown_experiment_id_still_clean(sweep_cache, capsys):
    """The pre-existing contract the sweep CLI matches: unknown ids exit 2."""
    code, captured = run_cli(capsys, "run", "fig99", "--fast")
    assert code == 2
    assert "unknown experiment" in captured.err


def test_unknown_ambient_engine_fails_fast(sweep_cache, capsys, monkeypatch):
    """A bad REPRO_ENGINE must exit 2 up front with the valid names — not
    surface as a ValueError traceback deep inside build_sm mid-run."""
    monkeypatch.setenv("REPRO_ENGINE", "turbo")
    code, captured = run_cli(capsys, "run", "fig07", "--fast")
    assert code == 2
    assert "REPRO_ENGINE" in captured.err
    assert "unknown simulator engine 'turbo'" in captured.err
    for engine in ENGINES:
        assert engine in captured.err


def test_unknown_bench_engine_is_a_usage_error(capsys):
    """`repro bench --engines` with an unknown name is a usage error (exit 2,
    valid names listed) raised before anything is measured, like a bad
    REPRO_ENGINE."""
    with pytest.raises(SystemExit) as excinfo:
        repro_main(["bench", "--engines", "fast,turbo", "--dry-run"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "unknown simulator engine 'turbo'" in captured.err
    for engine in ENGINES:
        assert engine in captured.err


JOBS_COMMANDS = [
    ["run", "fig04", "--fast"],
    ["run-all", "--fast"],
    ["sweep", "run", "smoke", "--fast"],
    ["pretrain", "--fast"],
]


@pytest.mark.parametrize("argv", JOBS_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
@pytest.mark.parametrize("bad", ["-1", "lots"])
def test_bad_jobs_value_is_the_same_usage_error_everywhere(sweep_cache, capsys, argv, bad):
    """Every ``--jobs`` flag shares one grammar and rejects a bad value
    before anything runs."""
    with pytest.raises(SystemExit) as excinfo:
        repro_main([*argv, "--jobs", bad])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert f"--jobs must be a non-negative integer or 'auto', got '{bad}'" in captured.err


@pytest.mark.parametrize("value", ["0", "auto"])
def test_zero_and_auto_jobs_mean_one_worker_per_core(monkeypatch, value):
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert build_parser().parse_args(["run", "fig04", "--jobs", value]).jobs == 6
    assert build_parser().parse_args(["run-all", "--jobs", value]).jobs == 6
    assert build_parser().parse_args(["sweep", "run", "smoke", "--jobs", value]).jobs == 6
