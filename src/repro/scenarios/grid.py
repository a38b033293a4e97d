"""Scenario grids: declarative axis cross-products over the simulation space.

A grid is a dict of axes.  Each axis name is fixed (see :data:`AXIS_ORDER`)
and maps onto one knob of the evaluation machinery:

``scheme``
    A scheduling scheme name (anything
    :func:`repro.experiments.common._build_controller` accepts).
``benchmark``
    A registered benchmark name — synthetic suites and the trace-native
    families alike.
``l1_scale`` / ``l1_indexing`` / ``max_warps``
    Architecture parameters applied to :class:`repro.gpu.config.GPUConfig`.
``poise_strides``
    The Poise local-search stride pair ``(εN, εp)`` (Fig. 11's axis).
``feature_mask``
    Feature indices removed before (re)training the regression model
    (Fig. 13's axis); ``None`` means the full feature vector.
``num_sms``
    Number of simulated SMs sharing the L2/DRAM busy servers
    (:class:`repro.gpu.chip.Chip`); ``None`` keeps the base config's count
    (1, the seed's single-SM view).
``kernel_mix``
    A DAG shape name (``chain``/``fanout``/``diamond``/``parallel``): the
    point runs the benchmark's kernels as a dependency graph through
    ``GPU.run_graph`` instead of one kernel at a time.  Restricted to the
    ``gto`` scheme — graph nodes run under the static list scheduler.

Expansion is deterministic: axes iterate in :data:`AXIS_ORDER`, values in
declaration order, so the same grid always yields the same tuple of frozen
:class:`ScenarioPoint` objects — and ``shard(k, n)`` partitions that order
round-robin into ``n`` disjoint, collectively exhaustive slices.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple


class ScenarioError(ValueError):
    """A scenario grid, axis value or shard specification is invalid."""


#: Canonical axis iteration order (outermost first).
AXIS_ORDER: Tuple[str, ...] = (
    "scheme",
    "benchmark",
    "l1_scale",
    "l1_indexing",
    "max_warps",
    "poise_strides",
    "feature_mask",
    "num_sms",
    "kernel_mix",
)

#: Value a point takes for an axis the grid does not declare.
AXIS_DEFAULTS: Dict[str, Any] = {
    "scheme": "gto",
    "benchmark": None,  # required — a grid must declare benchmarks
    "l1_scale": 1,
    "l1_indexing": None,
    "max_warps": None,
    "poise_strides": None,
    "feature_mask": None,
    "num_sms": None,
    "kernel_mix": None,
}

#: Number of features in the regression vector (Table II's x1..x8).
NUM_FEATURES = 8


def _known_schemes() -> Tuple[str, ...]:
    from repro.experiments.common import KNOWN_SCHEMES

    return KNOWN_SCHEMES


def _known_benchmarks() -> Dict[str, Any]:
    from repro.workloads.registry import all_benchmarks

    return all_benchmarks()


def _axis_error(axis: str, value: Any, expected: str) -> ScenarioError:
    return ScenarioError(f"axis {axis!r}: invalid value {value!r} — expected {expected}")


def _check_int(axis: str, value: Any, minimum: int, expected: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise _axis_error(axis, value, expected)
    return value


def canonical_axis_value(axis: str, value: Any) -> Any:
    """Validate one axis value and return its canonical (hashable) form."""
    if axis == "scheme":
        known = _known_schemes()
        if not isinstance(value, str) or value not in known:
            raise _axis_error(axis, value, f"one of {', '.join(sorted(known))}")
        return value
    if axis == "benchmark":
        known = _known_benchmarks()
        if not isinstance(value, str) or value not in known:
            raise _axis_error(axis, value, f"a registered benchmark ({', '.join(sorted(known))})")
        return value
    if axis == "l1_scale":
        return _check_int(axis, value, 1, "a positive integer capacity multiplier")
    if axis == "l1_indexing":
        if value is None:
            return None
        if value not in ("hash", "linear"):
            raise _axis_error(axis, value, "'hash', 'linear' or None to keep the baseline")
        return value
    if axis == "max_warps":
        if value is None:
            return None
        return _check_int(axis, value, 1, "a positive warp count (or None to keep the baseline)")
    if axis == "poise_strides":
        if value is None:
            return None
        try:
            n, p = value
        except (TypeError, ValueError):
            raise _axis_error(axis, value, "an (εN, εp) pair of non-negative integers") from None
        return (
            _check_int(axis, n, 0, "an (εN, εp) pair of non-negative integers"),
            _check_int(axis, p, 0, "an (εN, εp) pair of non-negative integers"),
        )
    if axis == "feature_mask":
        if value is None:
            return None
        expected = f"feature indices in 0..{NUM_FEATURES - 1} (or None for the full vector)"
        if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
            raise _axis_error(axis, value, expected)
        indices = tuple(value)
        for index in indices:
            if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < NUM_FEATURES:
                raise _axis_error(axis, value, expected)
        if not indices or len(set(indices)) != len(indices):
            raise _axis_error(axis, value, expected + ", non-empty and duplicate-free")
        return tuple(sorted(indices))
    if axis == "num_sms":
        if value is None:
            return None
        return _check_int(axis, value, 1, "a positive SM count (or None to keep the baseline)")
    if axis == "kernel_mix":
        if value is None:
            return None
        from repro.workloads.graph import MIX_SHAPES

        if not isinstance(value, str) or value not in MIX_SHAPES:
            raise _axis_error(
                axis, value, f"one of {', '.join(MIX_SHAPES)} (or None for single-kernel runs)"
            )
        return value
    raise ScenarioError(f"unknown axis {axis!r} (known axes: {', '.join(AXIS_ORDER)})")


@dataclass(frozen=True)
class ScenarioPoint:
    """One frozen cell of an expanded grid (every axis bound to a value)."""

    scheme: str
    benchmark: str
    l1_scale: int = 1
    l1_indexing: Optional[str] = None
    max_warps: Optional[int] = None
    poise_strides: Optional[Tuple[int, int]] = None
    feature_mask: Optional[Tuple[int, ...]] = None
    num_sms: Optional[int] = None
    kernel_mix: Optional[str] = None

    def payload(self) -> Dict[str, Any]:
        """JSON-representable axis assignment (tuples become lists)."""
        return {
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "l1_scale": self.l1_scale,
            "l1_indexing": self.l1_indexing,
            "max_warps": self.max_warps,
            "poise_strides": (
                list(self.poise_strides) if self.poise_strides is not None else None
            ),
            "feature_mask": (
                list(self.feature_mask) if self.feature_mask is not None else None
            ),
            "num_sms": self.num_sms,
            "kernel_mix": self.kernel_mix,
        }

    @property
    def point_id(self) -> str:
        """Stable, filename-safe identifier: readable prefix + content hash."""
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:10]
        return f"{self.benchmark}-{self.scheme}-{digest}"

    def describe(self) -> str:
        """Compact human-readable axis summary (non-default axes only)."""
        parts = [self.scheme, self.benchmark]
        for axis in ("l1_scale", "l1_indexing", "max_warps",
                     "poise_strides", "feature_mask", "num_sms", "kernel_mix"):
            value = getattr(self, axis)
            if value != AXIS_DEFAULTS[axis]:
                parts.append(f"{axis}={value}")
        return " ".join(parts)

    def experiment_config(self, base: "ExperimentConfig") -> "ExperimentConfig":
        """Derive the point's :class:`ExperimentConfig` from a base preset.

        The derivation mirrors what the sensitivity figures do by hand, so a
        grid-driven run shares result-cache entries (and values) with the
        bespoke loops it replaced: the L1 is rescaled/re-indexed in one
        ``with_l1`` call, the scheduler capacity via the SM config, and the
        Poise strides via ``with_poise_params``.
        """
        from dataclasses import replace

        config = base
        gpu = config.gpu
        if self.max_warps is not None:
            gpu = replace(gpu, sm=replace(gpu.sm, max_warps=self.max_warps))
        if self.num_sms is not None and self.num_sms != gpu.num_sms:
            gpu = replace(gpu, num_sms=self.num_sms)
        if self.l1_scale != 1 or self.l1_indexing is not None:
            gpu = gpu.with_l1(
                size_bytes=gpu.l1.size_bytes * self.l1_scale,
                indexing=self.l1_indexing or gpu.l1.indexing,
            )
        if gpu is not config.gpu:
            config = config.with_gpu(gpu)
        if self.poise_strides is not None:
            config = config.with_poise_params(
                config.poise_params.with_strides(*self.poise_strides)
            )
        return config


class ScenarioGrid:
    """A named, validated dict-of-axes cross-product."""

    def __init__(
        self,
        name: str,
        axes: Mapping[str, Iterable[Any]],
        description: str = "",
    ) -> None:
        if not name or not isinstance(name, str):
            raise ScenarioError("a grid needs a non-empty name")
        unknown = sorted(set(axes) - set(AXIS_ORDER))
        if unknown:
            raise ScenarioError(
                f"grid {name!r}: unknown ax{'es' if len(unknown) > 1 else 'is'} "
                f"{', '.join(repr(axis) for axis in unknown)} "
                f"(known axes: {', '.join(AXIS_ORDER)})"
            )
        normalized: Dict[str, Tuple[Any, ...]] = {}
        for axis in AXIS_ORDER:
            if axis not in axes:
                continue
            values = tuple(canonical_axis_value(axis, value) for value in axes[axis])
            if not values:
                raise ScenarioError(f"grid {name!r}: axis {axis!r} has no values")
            if len(set(values)) != len(values):
                raise ScenarioError(f"grid {name!r}: axis {axis!r} has duplicate values")
            normalized[axis] = values
        if "benchmark" not in normalized:
            raise ScenarioError(f"grid {name!r}: the 'benchmark' axis is required")
        self.name = name
        self.description = description
        self.axes: Dict[str, Tuple[Any, ...]] = normalized
        self._check_warp_capacity()
        self._check_poise_axes()
        self._check_kernel_mix_axes()

    def _check_warp_capacity(self) -> None:
        """Fail fast when a ``max_warps`` value cannot hold a benchmark's
        kernels (the SM rejects kernels wider than the scheduler)."""
        if "max_warps" not in self.axes:
            return
        bounded = [warps for warps in self.axes["max_warps"] if warps is not None]
        if not bounded:
            return
        floor = min(bounded)
        registry = _known_benchmarks()
        for benchmark in self.axes["benchmark"]:
            widest = max(spec.num_warps for spec in registry[benchmark].kernels)
            if widest > floor:
                raise ScenarioError(
                    f"grid {self.name!r}: benchmark {benchmark!r} launches kernels of "
                    f"{widest} warps but the max_warps axis goes down to {floor}"
                )

    def _check_poise_axes(self) -> None:
        """Reject Poise-only axes no scheme on the grid can consume.

        ``poise_strides`` and ``feature_mask`` only change what a
        Poise-based controller does; sweeping them under purely non-Poise
        schemes would re-simulate identical points per axis value and emit a
        sensitivity table that *looks* measured but never was.
        """
        schemes = self.axes.get("scheme", (AXIS_DEFAULTS["scheme"],))
        if any(scheme.startswith("poise") for scheme in schemes):
            return
        for axis in ("poise_strides", "feature_mask"):
            if any(value is not None for value in self.axes.get(axis, ())):
                raise ScenarioError(
                    f"grid {self.name!r}: axis {axis!r} varies but no scheme on "
                    f"the scheme axis is Poise-based — every non-Poise point "
                    f"would be an identical re-simulation per axis value"
                )

    def _check_kernel_mix_axes(self) -> None:
        """Reject ``kernel_mix`` under schemes that cannot drive a graph.

        Graph nodes run under the deterministic list scheduler with static
        GTO warp-tuples — a controller-driven scheme on a ``kernel_mix``
        point would silently fall back to the same static run, emitting a
        scheme comparison that *looks* measured but never was.
        """
        if not any(value is not None for value in self.axes.get("kernel_mix", ())):
            return
        schemes = self.axes.get("scheme", (AXIS_DEFAULTS["scheme"],))
        offending = sorted(set(schemes) - {"gto"})
        if offending:
            raise ScenarioError(
                f"grid {self.name!r}: axis 'kernel_mix' varies but scheme(s) "
                f"{', '.join(repr(s) for s in offending)} cannot drive a kernel "
                f"graph — DAG points run the static GTO list scheduler only"
            )

    @property
    def size(self) -> int:
        product = 1
        for values in self.axes.values():
            product *= len(values)
        return product

    def points(self) -> Tuple[ScenarioPoint, ...]:
        """Deterministic, duplicate-free expansion of the cross-product."""
        names = [axis for axis in AXIS_ORDER if axis in self.axes]
        points: List[ScenarioPoint] = []
        for combo in itertools.product(*(self.axes[axis] for axis in names)):
            bound = dict(AXIS_DEFAULTS)
            bound.update(zip(names, combo))
            points.append(ScenarioPoint(**bound))
        return tuple(points)

    def shard(self, shard_index: int, num_shards: int) -> Tuple[ScenarioPoint, ...]:
        """The ``shard_index``-th of ``num_shards`` disjoint slices (1-based).

        The partition is round-robin over the expansion order, so it is
        order-stable (each shard is a subsequence of :meth:`points`), the
        slices are pairwise disjoint, and their union is the full grid —
        which is what makes K containers' artifact unions byte-identical to
        one full run.
        """
        validate_shard(shard_index, num_shards)
        return self.points()[shard_index - 1 :: num_shards]

    def with_axes(self, **overrides: Iterable[Any]) -> "ScenarioGrid":
        """A copy with some axes replaced (revalidated from scratch)."""
        axes: Dict[str, Iterable[Any]] = dict(self.axes)
        axes.update(overrides)
        return ScenarioGrid(self.name, axes, description=self.description)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        axes = ", ".join(f"{axis}×{len(values)}" for axis, values in self.axes.items())
        return f"ScenarioGrid({self.name!r}, {axes}, size={self.size})"


def validate_shard(shard_index: int, num_shards: int) -> None:
    """Raise :class:`ScenarioError` unless ``1 <= shard_index <= num_shards``."""
    for value in (shard_index, num_shards):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"shard spec must be two integers, got {value!r}")
    if num_shards < 1:
        raise ScenarioError(f"shard count must be at least 1, got {num_shards}")
    if not 1 <= shard_index <= num_shards:
        raise ScenarioError(
            f"shard index {shard_index} out of range 1..{num_shards} "
            f"(shards are addressed K/N with 1 <= K <= N)"
        )


def parse_shard(spec: str) -> Tuple[int, int]:
    """Parse a ``K/N`` shard spec into a validated ``(K, N)`` pair."""
    parts = str(spec).split("/")
    if len(parts) != 2:
        raise ScenarioError(f"malformed shard spec {spec!r} — expected K/N, e.g. 2/4")
    try:
        shard_index, num_shards = int(parts[0]), int(parts[1])
    except ValueError:
        raise ScenarioError(
            f"malformed shard spec {spec!r} — K and N must be integers"
        ) from None
    validate_shard(shard_index, num_shards)
    return shard_index, num_shards
