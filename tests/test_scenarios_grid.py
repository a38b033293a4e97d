"""Property-based and unit tests for the scenario-grid subsystem.

The Hypothesis properties pin the contracts the sharded sweep story rests
on: expansion is deterministic and duplicate-free, and every ``K/N``
partition is disjoint, order-stable and collectively exhaustive.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.grid import (
    AXIS_ORDER,
    ScenarioError,
    ScenarioGrid,
    ScenarioPoint,
    parse_shard,
)

BENCHMARK_POOL = ("mvt", "bfs", "syr2k", "stencil", "gather")
SCHEME_POOL = ("gto", "swl", "ccws", "apcm", "poise")


def axis_subset(values, max_size=None):
    return st.lists(
        st.sampled_from(values),
        min_size=1,
        max_size=max_size or len(values),
        unique=True,
    )


_RAW_AXES = st.fixed_dictionaries(
    {"benchmark": axis_subset(BENCHMARK_POOL, max_size=3)},
    optional={
        "scheme": axis_subset(SCHEME_POOL, max_size=3),
        "l1_scale": axis_subset((1, 2, 4)),
        "l1_indexing": axis_subset((None, "hash", "linear")),
        "max_warps": axis_subset((24, 32, 48)),
        "poise_strides": axis_subset((None, (0, 0), (1, 1), (2, 4))),
        "feature_mask": axis_subset((None, (2,), (3, 6))),
    },
)


@st.composite
def valid_axes(draw):
    """Random axes, patched so Poise-only axes always have a consumer
    (grids where they do not are rejected at construction — tested below)."""
    axes = draw(_RAW_AXES)
    needs_poise = any(
        value is not None
        for axis in ("poise_strides", "feature_mask")
        for value in axes.get(axis, ())
    )
    schemes = axes.get("scheme", ("gto",))
    if needs_poise and not any(scheme.startswith("poise") for scheme in schemes):
        axes = dict(axes)
        axes["scheme"] = [s for s in schemes if s != "poise"] + ["poise"]
    return axes


AXES_STRATEGY = valid_axes()


@settings(max_examples=60, deadline=None)
@given(axes=AXES_STRATEGY)
def test_expansion_deterministic_and_duplicate_free(axes):
    grid = ScenarioGrid("prop", axes)
    first = grid.points()
    second = grid.points()
    rebuilt = ScenarioGrid("prop", axes).points()
    assert first == second == rebuilt
    assert len(first) == grid.size
    assert len(set(first)) == len(first)
    ids = [point.point_id for point in first]
    assert len(set(ids)) == len(ids)


@settings(max_examples=60, deadline=None)
@given(axes=AXES_STRATEGY, num_shards=st.integers(min_value=1, max_value=7))
def test_shards_partition_the_grid(axes, num_shards):
    grid = ScenarioGrid("prop", axes)
    points = grid.points()
    index_of = {point: position for position, point in enumerate(points)}
    shards = [grid.shard(k, num_shards) for k in range(1, num_shards + 1)]
    # Disjoint...
    seen = set()
    for shard in shards:
        assert not (set(shard) & seen)
        seen.update(shard)
    # ...collectively exhaustive...
    assert seen == set(points)
    # ...and order-stable: every shard is a subsequence of the expansion.
    for shard in shards:
        positions = [index_of[point] for point in shard]
        assert positions == sorted(positions)


@settings(max_examples=60, deadline=None)
@given(axes=AXES_STRATEGY)
def test_point_payload_json_round_trip(axes):
    for point in ScenarioGrid("prop", axes).points():
        payload = point.payload()
        assert json.loads(json.dumps(payload)) == payload
        assert set(payload) == set(AXIS_ORDER)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_unknown_axis_name_rejected():
    with pytest.raises(ScenarioError, match="unknown axis 'bogus'"):
        ScenarioGrid("bad", {"benchmark": ["mvt"], "bogus": [1]})


@pytest.mark.parametrize(
    "axes, fragment",
    [
        ({"benchmark": ["mvt"], "scheme": ["bogus"]}, "axis 'scheme'"),
        ({"benchmark": ["not-a-benchmark"]}, "axis 'benchmark'"),
        # The engine is REPRO_ENGINE's, never a grid axis.
        ({"benchmark": ["mvt"], "engine": ["turbo"]}, "axis 'engine'"),
        ({"benchmark": ["mvt"], "l1_scale": [0]}, "axis 'l1_scale'"),
        ({"benchmark": ["mvt"], "l1_scale": [True]}, "axis 'l1_scale'"),
        ({"benchmark": ["mvt"], "l1_scale": ["2"]}, "axis 'l1_scale'"),
        ({"benchmark": ["mvt"], "l1_indexing": ["xor"]}, "axis 'l1_indexing'"),
        ({"benchmark": ["mvt"], "max_warps": [0]}, "axis 'max_warps'"),
        ({"benchmark": ["mvt"], "poise_strides": [(1,)]}, "axis 'poise_strides'"),
        ({"benchmark": ["mvt"], "poise_strides": [(1, -1)]}, "axis 'poise_strides'"),
        ({"benchmark": ["mvt"], "feature_mask": [(9,)]}, "axis 'feature_mask'"),
        ({"benchmark": ["mvt"], "feature_mask": [(2, 2)]}, "axis 'feature_mask'"),
        ({"benchmark": ["mvt"], "feature_mask": [()]}, "axis 'feature_mask'"),
        ({"benchmark": ["mvt"], "feature_mask": ["x6"]}, "axis 'feature_mask'"),
        ({"benchmark": ["mvt"], "scheme": []}, "has no values"),
        ({"benchmark": ["mvt", "mvt"]}, "duplicate values"),
        ({"scheme": ["gto"]}, "'benchmark' axis is required"),
    ],
)
def test_invalid_axes_rejected(axes, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        ScenarioGrid("bad", axes)


def test_feature_mask_canonicalised_sorted():
    grid = ScenarioGrid(
        "mask",
        {"benchmark": ["mvt"], "scheme": ["poise_nosearch"], "feature_mask": [(6, 3)]},
    )
    assert grid.axes["feature_mask"] == ((3, 6),)


def test_max_warps_must_hold_the_widest_kernel():
    with pytest.raises(ScenarioError, match="launches kernels of 24 warps"):
        ScenarioGrid("bad", {"benchmark": ["mvt"], "max_warps": [8, 24]})


@pytest.mark.parametrize("axis, values", [
    ("poise_strides", [(0, 0), (2, 4)]),
    ("feature_mask", [None, (6,)]),
])
def test_poise_only_axes_need_a_poise_scheme(axis, values):
    # No scheme axis at all defaults to gto — rejected.
    with pytest.raises(ScenarioError, match=f"axis '{axis}' varies"):
        ScenarioGrid("bad", {"benchmark": ["mvt"], axis: values})
    with pytest.raises(ScenarioError, match="no scheme on the scheme axis is Poise-based"):
        ScenarioGrid("bad", {"benchmark": ["mvt"], "scheme": ["gto", "ccws"], axis: values})
    # A Poise-based scheme anywhere on the axis makes the grid legitimate...
    mixed = ScenarioGrid(
        "ok", {"benchmark": ["mvt"], "scheme": ["gto", "poise"], axis: values}
    )
    assert mixed.size == 2 * len(values)
    # ...and an all-None (non-varying) axis is always harmless.
    ScenarioGrid("ok", {"benchmark": ["mvt"], axis: [None]})


def test_with_axes_revalidates():
    grid = ScenarioGrid("ok", {"benchmark": ["mvt"], "scheme": ["gto"]})
    widened = grid.with_axes(scheme=["gto", "ccws"])
    assert widened.size == 2
    with pytest.raises(ScenarioError, match="axis 'scheme'"):
        grid.with_axes(scheme=["bogus"])


def test_grid_needs_a_name():
    with pytest.raises(ScenarioError, match="non-empty name"):
        ScenarioGrid("", {"benchmark": ["mvt"]})


def test_point_describe_mentions_non_default_axes():
    point = ScenarioPoint(
        scheme="poise", benchmark="mvt", l1_scale=2, poise_strides=(2, 4)
    )
    description = point.describe()
    assert "poise" in description and "mvt" in description
    assert "l1_scale=2" in description and "poise_strides=(2, 4)" in description
    assert "max_warps" not in description


def test_experiment_config_derivation(fast_config):
    point = ScenarioPoint(
        scheme="poise", benchmark="mvt", l1_scale=2, l1_indexing="linear",
        max_warps=48, poise_strides=(2, 4),
    )
    derived = point.experiment_config(fast_config)
    assert derived.gpu.l1.size_bytes == fast_config.gpu.l1.size_bytes * 2
    assert derived.gpu.l1.indexing == "linear"
    assert derived.gpu.sm.max_warps == 48
    assert derived.poise_params.stride_n == 2 and derived.poise_params.stride_p == 4
    # A defaults-only point leaves the configuration untouched.
    untouched = ScenarioPoint(scheme="gto", benchmark="mvt").experiment_config(fast_config)
    assert untouched == fast_config


# ---------------------------------------------------------------------------
# shard specs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec, expected", [("1/1", (1, 1)), ("2/4", (2, 4)), ("4/4", (4, 4))])
def test_parse_shard_accepts_valid_specs(spec, expected):
    assert parse_shard(spec) == expected


@pytest.mark.parametrize(
    "spec", ["0/4", "5/4", "-1/4", "1/0", "x/4", "1/y", "1", "1/2/3", "", "/"]
)
def test_parse_shard_rejects_malformed_specs(spec):
    with pytest.raises(ScenarioError):
        parse_shard(spec)
