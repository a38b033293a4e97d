"""Tests for ``repro cache gc`` — age-based reclamation of quarantine
debris, orphaned sweep trees and stale atomic-write temp files."""

from __future__ import annotations

import os
import time

import pytest

from repro.cli.main import main as repro_main, parse_age

OLD = time.time() - 30 * 86400  # a month ago
FRESH = time.time()


def age(path, when=OLD):
    os.utime(path, (when, when))


def make_sweep(cache_dir, grid, label="fast", points=("p1",), sweep_json=True):
    root = cache_dir / "artifacts" / "sweeps" / grid / label
    (root / "points").mkdir(parents=True)
    for name in points:
        (root / "points" / f"{name}.json").write_text("{}\n")
    if sweep_json:
        (root / "sweep.json").write_text("{}\n")
    return root


def run_gc(cache_dir, *flags):
    return repro_main(["cache", "gc", "--cache-dir", str(cache_dir), *flags])


# ---------------------------------------------------------------------------
# age parsing
# ---------------------------------------------------------------------------

def test_parse_age_suffixes():
    assert parse_age("30s") == 30.0
    assert parse_age("10m") == 600.0
    assert parse_age("6h") == 6 * 3600.0
    assert parse_age("7d") == 7 * 86400.0
    assert parse_age("90") == 90.0  # bare number = seconds


def test_parse_age_rejects_nonsense():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_age("soon")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_age("-1d")


# ---------------------------------------------------------------------------
# collection targets
# ---------------------------------------------------------------------------

def test_old_quarantine_files_reclaimed_fresh_kept(tmp_path, capsys):
    root = make_sweep(tmp_path, "grid-a")
    quarantine = root / "quarantine"
    quarantine.mkdir()
    stale = quarantine / "bad-point.json"
    stale.write_text("torn")
    recent = quarantine / "new-point.json"
    recent.write_text("torn")
    age(stale)
    assert run_gc(tmp_path) == 0
    assert not stale.exists()
    assert recent.exists()
    assert "quarantine" in capsys.readouterr().out
    # Live artifacts are never GC targets.
    assert (root / "points" / "p1.json").exists()
    assert (root / "sweep.json").exists()


def test_orphaned_sweep_tree_reclaimed(tmp_path):
    orphan = tmp_path / "artifacts" / "sweeps" / "grid-b@12345678" / "fast"
    (orphan / "points").mkdir(parents=True)  # aborted before any point landed
    (orphan / "run_telemetry.json").write_text("{}\n")
    for path in (orphan, orphan / "points", orphan / "run_telemetry.json"):
        age(path)
    populated = make_sweep(tmp_path, "grid-b")
    assert run_gc(tmp_path) == 0
    assert not orphan.exists()
    assert not orphan.parent.exists()  # empty grid dir pruned too
    assert populated.exists()


def test_tree_with_points_or_sweep_json_is_never_an_orphan(tmp_path):
    has_points = make_sweep(tmp_path, "grid-c", sweep_json=False)
    has_sweep = make_sweep(tmp_path, "grid-d", points=(), sweep_json=True)
    for root in (has_points, has_sweep):
        for path in [root, *root.rglob("*")]:
            age(path)
    assert run_gc(tmp_path) == 0
    assert has_points.exists()
    assert has_sweep.exists()


def test_fresh_orphan_is_left_alone(tmp_path):
    orphan = tmp_path / "artifacts" / "sweeps" / "grid-e" / "fast"
    (orphan / "points").mkdir(parents=True)
    assert run_gc(tmp_path) == 0
    assert orphan.exists()


def test_stale_tmp_files_reclaimed_live_ones_kept(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    stale = runs / ".result.json.123.0.tmp"
    stale.write_text("half-written")
    age(stale, when=time.time() - 7200)  # two hours: past the 1h floor
    live = runs / ".result.json.456.1.tmp"
    live.write_text("in-flight")
    assert run_gc(tmp_path) == 0
    assert not stale.exists()
    assert live.exists()  # younger than the staleness floor


# ---------------------------------------------------------------------------
# dry run + summary
# ---------------------------------------------------------------------------

def test_dry_run_deletes_nothing_and_reports_bytes(tmp_path, capsys):
    root = make_sweep(tmp_path, "grid-f")
    quarantine = root / "quarantine"
    quarantine.mkdir()
    stale = quarantine / "bad.json"
    stale.write_text("x" * 1000)
    age(stale)
    assert run_gc(tmp_path, "--dry-run") == 0
    out = capsys.readouterr().out
    assert stale.exists()
    assert "would reclaim" in out
    assert "1000 bytes" in out


def test_bytes_reclaimed_summary(tmp_path, capsys):
    root = make_sweep(tmp_path, "grid-g")
    quarantine = root / "quarantine"
    quarantine.mkdir()
    (quarantine / "a.json").write_text("x" * 600)
    (quarantine / "b.json").write_text("x" * 400)
    age(quarantine / "a.json")
    age(quarantine / "b.json")
    assert run_gc(tmp_path) == 0
    out = capsys.readouterr().out
    assert "reclaimed 1000 bytes" in out
    assert "2 quarantine" in out


def test_max_age_flag_widens_the_net(tmp_path, capsys):
    root = make_sweep(tmp_path, "grid-h")
    quarantine = root / "quarantine"
    quarantine.mkdir()
    recent = quarantine / "recent.json"
    recent.write_text("torn")
    age(recent, when=time.time() - 120)  # two minutes old
    assert run_gc(tmp_path) == 0  # default 7d: kept
    assert recent.exists()
    assert run_gc(tmp_path, "--max-age", "60s") == 0
    assert not recent.exists()


def test_empty_cache_reports_nothing(tmp_path, capsys):
    assert run_gc(tmp_path) == 0
    assert "nothing to reclaim" in capsys.readouterr().out
