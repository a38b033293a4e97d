"""Named scenario grids.

These are the sweeps ``repro sweep`` exposes by name.  The three ``fig*``
grids are the declarative form of the paper's sensitivity studies — the
experiment modules for Figures 11–13 build their artifacts by evaluating
exactly these grids, so `repro sweep run fig11-strides` and `repro run
fig11` agree point for point.  The remaining grids generalize them: L1
capacity × profile-guided schemes over the trace-native families,
scheduler capacity × throttling schemes, an engine-parity cross-check, and
a tiny ``smoke`` grid sized for CI sharding checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.scenarios.grid import ScenarioError, ScenarioGrid

#: Fig. 11's local-search stride pairs (εN, εp).
FIG11_STRIDES: Tuple[Tuple[int, int], ...] = ((0, 0), (1, 1), (2, 2), (2, 4), (4, 4))

#: Fig. 12's L1 capacity multipliers (16/32/64 KB).
FIG12_SCALES: Tuple[int, ...] = (1, 2, 4)

#: Fig. 13's ablated feature indices (0-based into Table II's x1..x8).
FIG13_ABLATIONS: Tuple[int, ...] = (6, 5, 4, 3, 2)


def _evaluation_benchmarks() -> Tuple[str, ...]:
    from repro.workloads.registry import EVALUATION_ORDER

    return tuple(EVALUATION_ORDER)


def fig11_grid(
    strides: Optional[Sequence[Tuple[int, int]]] = None,
    benchmarks: Optional[Iterable[str]] = None,
) -> ScenarioGrid:
    """Fig. 11 — Poise over the evaluation suite × local-search strides."""
    return ScenarioGrid(
        "fig11-strides",
        {
            "scheme": ("poise",),
            "benchmark": tuple(benchmarks or _evaluation_benchmarks()),
            "poise_strides": tuple(tuple(stride) for stride in (strides or FIG11_STRIDES)),
        },
        description="Sensitivity to the Poise local-search stride (εN, εp)",
    )


def fig12_grid(
    scales: Optional[Sequence[int]] = None,
    benchmarks: Optional[Iterable[str]] = None,
) -> ScenarioGrid:
    """Fig. 12 — Poise on linearly-indexed L1s of 1×/2×/4× capacity."""
    return ScenarioGrid(
        "fig12-l1-size",
        {
            "scheme": ("poise",),
            "benchmark": tuple(benchmarks or _evaluation_benchmarks()),
            "l1_scale": tuple(scales or FIG12_SCALES),
            "l1_indexing": ("linear",),
        },
        description="Sensitivity to L1 capacity (linear indexing, baseline-trained model)",
    )


def fig13_grid(
    ablations: Optional[Sequence[int]] = None,
    benchmarks: Optional[Iterable[str]] = None,
) -> ScenarioGrid:
    """Fig. 13 — no-search Poise with one feature removed at a time.

    The ``None`` mask (full feature vector) is the reference column.
    """
    masks: Tuple[Optional[Tuple[int, ...]], ...] = (None,) + tuple(
        (index,) for index in (ablations if ablations is not None else FIG13_ABLATIONS)
    )
    return ScenarioGrid(
        "fig13-ablation",
        {
            "scheme": ("poise_nosearch",),
            "benchmark": tuple(benchmarks or _evaluation_benchmarks()),
            "feature_mask": masks,
        },
        description="Sensitivity to removing one feature (retrained, no local search)",
    )


def _builtin_grids() -> List[ScenarioGrid]:
    return [
        fig11_grid(),
        fig12_grid(),
        fig13_grid(),
        ScenarioGrid(
            "l1-trace",
            {
                "scheme": ("gto", "swl", "static_best"),
                "benchmark": ("stencil", "transpose", "gather"),
                "l1_scale": (1, 2, 4),
            },
            description="L1 capacity × profile-guided schemes over the trace-native families",
        ),
        ScenarioGrid(
            "warps-per-sm",
            {
                "scheme": ("gto", "ccws", "apcm"),
                "benchmark": ("mvt", "bfs", "syr2k"),
                "max_warps": (24, 32, 48),
            },
            description="Scheduler warp capacity × throttling schemes",
        ),
        ScenarioGrid(
            "engine-parity",
            {
                "engine": ("fast", "legacy"),
                "scheme": ("gto", "ccws"),
                "benchmark": ("mvt", "stencil"),
            },
            description="Both simulator engines over the same points (caches bypassed) "
            "— their metrics must be identical",
        ),
        ScenarioGrid(
            "smoke",
            {
                "scheme": ("gto", "ccws"),
                "benchmark": ("gather", "mvt"),
                "engine": ("fast", "legacy"),
                "num_sms": (None, 2),
            },
            description="Tiny 2×2×2×2 grid for CI shard/union checks "
            "(engine-pinned, so shards exercise the fast core and the legacy "
            "oracle; the num_sms axis covers the single-SM and 2-SM chip paths)",
        ),
    ]


def named_grids() -> Dict[str, ScenarioGrid]:
    """Every registered grid, keyed by name."""
    grids: Dict[str, ScenarioGrid] = {}
    for grid in _builtin_grids():
        if grid.name in grids:
            raise ScenarioError(f"duplicate grid name {grid.name!r}")
        grids[grid.name] = grid
    return grids


def get_grid(name: str) -> ScenarioGrid:
    """Look up a named grid; raises :class:`ScenarioError` with suggestions."""
    grids = named_grids()
    if name not in grids:
        raise ScenarioError(
            f"unknown sweep grid {name!r} (known grids: {', '.join(sorted(grids))})"
        )
    return grids[name]


# ---------------------------------------------------------------------------
# axis overrides (``repro sweep --set``)
# ---------------------------------------------------------------------------

def parse_override_value(axis: str, token: str):
    """Parse one ``--set AXIS=...`` value token into its axis-typed form."""
    token = token.strip()
    if token.lower() == "none":
        return None
    if axis in ("l1_scale", "max_warps", "num_sms"):
        try:
            return int(token)
        except ValueError:
            raise ScenarioError(f"axis {axis!r}: {token!r} is not an integer") from None
    if axis == "poise_strides":
        parts = token.split(":")
        if len(parts) != 2:
            raise ScenarioError(
                f"axis {axis!r}: {token!r} is not an N:P stride pair (e.g. 2:4)"
            )
        try:
            return (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ScenarioError(f"axis {axis!r}: {token!r} is not an N:P stride pair") from None
    if axis == "feature_mask":
        try:
            return tuple(int(part) for part in token.split(":"))
        except ValueError:
            raise ScenarioError(
                f"axis {axis!r}: {token!r} is not a colon-separated index list (e.g. 5:6)"
            ) from None
    return token


def apply_overrides(grid: ScenarioGrid, overrides: Sequence[str]) -> ScenarioGrid:
    """Apply ``AXIS=V1,V2`` overrides, deriving a distinct grid name.

    An overridden grid is a *different* grid, so it gets its own artifact
    tree (``<name>@<axes-digest>``): override runs can never mix points into
    — or clobber the ``sweep.json`` of — the canonical named grid, and the
    digest is deterministic, so sharded and resumed runs of the same
    overrides still converge on one directory.
    """
    import hashlib
    import json

    parsed: Dict[str, List] = {}
    for override in overrides:
        axis, separator, raw = override.partition("=")
        axis = axis.strip()
        if not separator or not raw.strip():
            raise ScenarioError(
                f"malformed --set override {override!r} — expected AXIS=V1,V2 "
                f"(e.g. scheme=gto,poise)"
            )
        parsed[axis] = [
            parse_override_value(axis, token) for token in raw.split(",") if token.strip()
        ]
    if not parsed:
        return grid
    derived = grid.with_axes(**parsed)
    canonical = json.dumps(
        {
            axis: [list(value) if isinstance(value, tuple) else value for value in values]
            for axis, values in derived.axes.items()
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]
    return ScenarioGrid(
        f"{grid.name}@{digest}", derived.axes, description=derived.description
    )
