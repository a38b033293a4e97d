"""Tests for trajectories, regression detection and the analyze CLI.

The regression-detection cases pin the ISSUE's acceptance behaviour:

* an injected 2x slowdown yields a ``regress`` verdict, a nonzero exit
  and the regressed kernel×scheme×engine bracket by name,
* a noisy-but-flat trajectory passes,
* a single-entry history is ``insufficient-data`` — never a false pass,
* the real committed ``BENCH_throughput.json`` passes with exit 0 and a
  schema-valid ``verdict.json``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli.main import main as repro_main
from repro.obs.regress import (
    STATUS_INSUFFICIENT,
    STATUS_PASS,
    STATUS_REGRESS,
    build_verdict,
    detect_regressions,
    validate_verdict,
)
from repro.obs.schema import BENCH_SCHEMA_VERSION, BenchSchemaError, load_bench_history
from repro.obs.trajectory import build_trajectories, legacy_anchor, trajectory_report

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMITTED_HISTORY = REPO_ROOT / "BENCH_throughput.json"

#: The bracket the synthetic fixtures slow down / keep flat.
FAST_MEMDIV = "bench_memory_divergent:hot_loop:fast"


def make_row(kernel: str, engine: str, cps: float) -> dict:
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


def make_entry(fast_memdiv: float, host_slowdown: float = 1.0,
               index: int = 0) -> dict:
    """One v2 entry; ``host_slowdown`` scales *everything* (a slower host),
    which normalization must cancel out."""
    scale = 1.0 / host_slowdown
    return {
        "timestamp": f"2026-08-0{index + 1}T00:00:00+00:00",
        "version": "0.5.0",
        "bench_schema": BENCH_SCHEMA_VERSION,
        "environment": {"python_version": "3.11.0", "cpu_count": 4},
        "telemetry": {"cache": {}, "phases": {}, "stages": {}},
        "throughput": {
            "legacy": {
                "bench_memory_divergent": make_row(
                    "bench_memory_divergent", "legacy", 900_000.0 * scale),
                "bench_compute_intensive": make_row(
                    "bench_compute_intensive", "legacy", 640_000.0 * scale),
            },
            "fast": {
                "bench_memory_divergent": make_row(
                    "bench_memory_divergent", "fast", fast_memdiv * scale),
                "bench_compute_intensive": make_row(
                    "bench_compute_intensive", "fast", 5_100_000.0 * scale),
            },
        },
        "matrix": [],
        "sweep": {},
    }


def write_history(tmp_path: Path, fast_memdiv_series, host_slowdowns=None) -> Path:
    host_slowdowns = host_slowdowns or [1.0] * len(fast_memdiv_series)
    path = tmp_path / "history.json"
    path.write_text(json.dumps([
        make_entry(cps, slowdown, index)
        for index, (cps, slowdown) in enumerate(zip(fast_memdiv_series, host_slowdowns))
    ]))
    return path


def run_cli(capsys, *argv):
    code = repro_main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured


# ---------------------------------------------------------------------------
# Trajectories + normalization
# ---------------------------------------------------------------------------


def test_normalization_cancels_host_speed(tmp_path):
    # Same machine-independent performance, measured on hosts 1x/3x/2x slower.
    path = write_history(tmp_path, [3_200_000.0] * 3, [1.0, 3.0, 2.0])
    trajectories = build_trajectories(load_bench_history(path))
    normalized = trajectories[FAST_MEMDIV].normalized_values
    assert len(normalized) == 3
    assert max(normalized) - min(normalized) < 1e-9  # perfectly flat
    raw = [p.cycles_per_second for p in trajectories[FAST_MEMDIV].points]
    assert max(raw) / min(raw) == pytest.approx(3.0)  # raw was all over


def test_entry_without_legacy_anchor_has_no_normalized_points(tmp_path):
    entry = make_entry(3_200_000.0)
    del entry["throughput"]["legacy"]
    path = tmp_path / "history.json"
    path.write_text(json.dumps([entry]))
    history = load_bench_history(path)
    assert legacy_anchor(history.entries[0]) is None
    trajectories = build_trajectories(history)
    assert trajectories[FAST_MEMDIV].normalized_values == []
    assert trajectories[FAST_MEMDIV].points  # raw point kept


def test_trajectory_report_is_machine_readable(tmp_path):
    path = write_history(tmp_path, [3_200_000.0, 3_100_000.0])
    report = trajectory_report(load_bench_history(path))
    assert report["kind"] == "bench-trajectory"
    assert len(report["entries"]) == 2
    assert all(e["legacy_anchor"] is not None for e in report["entries"])
    assert FAST_MEMDIV in report["brackets"]
    json.dumps(report)  # JSON-serializable end to end


# ---------------------------------------------------------------------------
# Regression detection (library level)
# ---------------------------------------------------------------------------


def judge(path):
    verdicts = detect_regressions(build_trajectories(load_bench_history(path)))
    return {verdict.bracket: verdict for verdict in verdicts}


def test_injected_2x_slowdown_regresses(tmp_path):
    path = write_history(
        tmp_path, [3_200_000.0, 3_250_000.0, 3_300_000.0, 1_600_000.0])
    verdict = judge(path)[FAST_MEMDIV]
    assert verdict.status == STATUS_REGRESS
    assert verdict.ratio == pytest.approx(0.492, abs=0.01)


def test_noisy_but_flat_passes(tmp_path):
    path = write_history(
        tmp_path, [3_200_000.0, 2_900_000.0, 3_400_000.0, 3_050_000.0])
    verdicts = judge(path)
    assert verdicts[FAST_MEMDIV].status == STATUS_PASS
    assert all(v.status != STATUS_REGRESS for v in verdicts.values())


def test_single_entry_history_is_insufficient_not_pass(tmp_path):
    path = write_history(tmp_path, [3_200_000.0])
    verdicts = judge(path)
    assert verdicts and all(
        verdict.status == STATUS_INSUFFICIENT for verdict in verdicts.values()
    )
    overall = build_verdict(list(verdicts.values()))
    assert overall["status"] == STATUS_INSUFFICIENT


def test_speedup_never_regresses(tmp_path):
    path = write_history(tmp_path, [3_200_000.0, 3_150_000.0, 9_000_000.0])
    assert judge(path)[FAST_MEMDIV].status == STATUS_PASS


def test_readme_verdict_example_validates():
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in readme.split("```json\n")[1:]]
    (example,) = [block for block in blocks if '"kind": "analyze-verdict"' in block]
    validate_verdict(json.loads(example))


def test_verdict_document_validates_and_counts(tmp_path):
    path = write_history(tmp_path, [3_200_000.0, 3_100_000.0, 1_000_000.0])
    verdicts = detect_regressions(build_trajectories(load_bench_history(path)))
    verdict = build_verdict(verdicts, source=str(path))
    validate_verdict(verdict)
    assert verdict["status"] == STATUS_REGRESS
    assert verdict["counts"]["regress"] >= 1
    with pytest.raises(BenchSchemaError):
        validate_verdict({**verdict, "counts": {"pass": 0, "regress": 0,
                                                "insufficient_data": 0}})


# ---------------------------------------------------------------------------
# The CLI: regress / ci / trajectory / compare
# ---------------------------------------------------------------------------


def test_cli_ci_names_regressed_bracket_and_exits_nonzero(tmp_path, capsys):
    history = write_history(
        tmp_path, [3_200_000.0, 3_250_000.0, 3_300_000.0, 1_600_000.0])
    out_dir = tmp_path / "report"
    code, captured = run_cli(
        capsys, "analyze", "ci", "--history", str(history),
        "--output-dir", str(out_dir))
    assert code == 1
    assert FAST_MEMDIV in captured.out  # names the kernel×scheme×engine bracket
    verdict = json.loads((out_dir / "verdict.json").read_text())
    validate_verdict(verdict)
    assert verdict["status"] == STATUS_REGRESS
    regressed = [b for b in verdict["brackets"] if b["status"] == STATUS_REGRESS]
    assert [b["bracket"] for b in regressed] == [FAST_MEMDIV]
    trajectory = json.loads((out_dir / "trajectory.json").read_text())
    assert trajectory["kind"] == "bench-trajectory"


def test_cli_ci_passes_on_the_committed_history(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code, captured = run_cli(
        capsys, "analyze", "ci", "--history", str(COMMITTED_HISTORY),
        "--output-dir", str(out_dir))
    assert code == 0
    verdict = json.loads((out_dir / "verdict.json").read_text())
    validate_verdict(verdict)
    assert verdict["status"] == STATUS_PASS


def test_reader_refuses_a_retired_engine_row(tmp_path):
    """A row of an engine not in ``ENGINES`` (the retired ``event`` engine,
    whose 23 rows entry #3 no longer holds) fails the strict reader.  On the
    four entries the committed history held when they were counted, the
    verdict is 47 pass, 0 regress and 10 insufficient-data (the 2-SM matrix
    cells)."""
    entries = json.loads(COMMITTED_HISTORY.read_text())
    matrix = entries[2]["matrix"]
    matrix.append(dict(matrix[0], engine="event"))
    path = tmp_path / "history.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(
        BenchSchemaError, match=f"entry #3: matrix row #{len(matrix) - 1} names engine 'event'"
    ):
        load_bench_history(path)
    history = load_bench_history(COMMITTED_HISTORY)
    first_four = replace(history, entries=history.entries[:4])
    verdict = build_verdict(detect_regressions(build_trajectories(first_four)))
    validate_verdict(verdict)
    assert verdict["counts"] == {"pass": 47, "regress": 0, "insufficient_data": 10}


def test_cli_regress_writes_verdict_and_flags_slowdown(tmp_path, capsys):
    history = write_history(tmp_path, [3_200_000.0, 3_300_000.0, 1_500_000.0])
    output = tmp_path / "verdict.json"
    code, captured = run_cli(
        capsys, "analyze", "regress", "--history", str(history),
        "--output", str(output))
    assert code == 1
    assert "regress" in captured.out and FAST_MEMDIV in captured.out
    validate_verdict(json.loads(output.read_text()))


def test_cli_regress_passes_flat_history(tmp_path, capsys):
    history = write_history(tmp_path, [3_200_000.0, 3_150_000.0, 3_250_000.0])
    code, captured = run_cli(
        capsys, "analyze", "regress", "--history", str(history))
    assert code == 0
    assert "verdict: pass" in captured.out


def test_cli_trajectory_lists_brackets(tmp_path, capsys):
    history = write_history(tmp_path, [3_200_000.0, 3_100_000.0])
    code, captured = run_cli(
        capsys, "analyze", "trajectory", "--history", str(history))
    assert code == 0
    assert FAST_MEMDIV in captured.out
    code, captured = run_cli(
        capsys, "analyze", "trajectory", "--history", str(history),
        "--bracket", "nonexistent")
    assert code == 2


def test_cli_errors_cleanly_on_missing_history(tmp_path, capsys):
    code, captured = run_cli(
        capsys, "analyze", "regress", "--history", str(tmp_path / "nope.json"))
    assert code == 2
    assert "no bench history" in captured.err


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def write_point(cache_dir: Path, grid: str, label: str, point_id: str,
                speedup: float) -> None:
    directory = cache_dir / "artifacts" / "sweeps" / grid / label / "points"
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{point_id}.json").write_text(json.dumps({
        "format_version": 1,
        "kind": "sweep-point",
        "grid": grid,
        "label": label,
        "point_id": point_id,
        "point": {},
        "metrics": {"speedup": speedup},
    }))


def test_cli_compare_lists_drifted_points(tmp_path, capsys):
    for point_id, fast, full in [("p1", 1.00, 1.01), ("p2", 2.00, 3.00)]:
        write_point(tmp_path, "g1", "fast", point_id, fast)
        write_point(tmp_path, "g1", "full", point_id, full)
    write_point(tmp_path, "g1", "fast", "only-a", 1.0)
    code, captured = run_cli(
        capsys, "analyze", "compare", "g1", "fast", "full",
        "--cache-dir", str(tmp_path))
    assert code == 0
    assert "drifted: p2" in captured.out and "drifted: p1" not in captured.out
    code, captured = run_cli(
        capsys, "analyze", "compare", "g1", "fast", "full",
        "--cache-dir", str(tmp_path), "--json")
    comparison = json.loads(captured.out)
    assert comparison["drifted"] == ["p2"]
    assert comparison["only_a"] == ["only-a"]


def test_cli_compare_errors_on_missing_tree(tmp_path, capsys):
    code, captured = run_cli(
        capsys, "analyze", "compare", "g1", "fast", "full",
        "--cache-dir", str(tmp_path))
    assert code == 2
    assert "no sweep artifacts" in captured.err
