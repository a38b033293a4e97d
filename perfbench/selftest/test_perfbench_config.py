"""BENCHMARK.json agrees with the code that produces its metrics."""

import json
import re

import pytest

import layers
import run

DOC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
METRICS = DOC["end_to_end"] + DOC["per_layer"]


@pytest.mark.parametrize("metric", METRICS, ids=[metric["name"] for metric in METRICS])
def test_metric_names_and_units_are_well_formed(metric):
    assert NAME.match(metric["name"]), metric["name"]
    assert UNIT.match(metric["unit"]), metric["unit"]
    assert metric["better"] in ("higher", "lower")


def test_names_are_unique_and_match_the_code():
    names = [metric["name"] for metric in METRICS] + [w["name"] for w in DOC["workloads"]]
    assert len(names) == len(set(names))
    assert [metric["name"] for metric in DOC["per_layer"]] == list(layers.PER_LAYER_METRICS)
    assert [w["name"] for w in DOC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_end_to_end_bounds():
    bounds = {metric["name"]: metric["bound"] for metric in DOC["end_to_end"]}
    assert set(bounds) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
