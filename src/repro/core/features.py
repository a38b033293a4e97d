"""The feature vector of Table II and its construction from counters.

The eight features are functions of quantities sampled at two fixed
reference points of the warp-tuple plane:

* the baseline point ``(24, 24)`` — maximum warps, everything polluting —
  which provides ``h_o`` (net L1 hit rate), ``eta_o`` (intra-warp hit rate),
  ``m_o`` and ``L_o`` (miss rate and average memory latency), and ``I_n``
  (instructions between global loads);
* the reference point ``(1, 1)`` — a single vital, polluting warp — which
  provides ``h'``, ``eta'``, ``m'`` and ``L'``: the behaviour of a warp that
  has the whole L1 to itself, i.e. the locality that is recoverable once
  thrashing is removed.

Both the offline trainer (through ``repro.experiments.common.get_features``)
and the hardware inference engine build the vector through the same
:class:`FeatureSampler` so the regression sees identically constructed
inputs in both settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.gpu.counters import PerfCounters, measure_window

#: Human-readable names of the eight features, in Table II order.
FEATURE_NAMES: List[str] = [
    "x1: h_o",
    "x2: h_prime",
    "x3: eta_o",
    "x4: eta_prime",
    "x5: (eta_prime - eta_o)^2",
    "x6: I_n * (eta_prime - eta_o)^2",
    "x7: (L'm' - L_o m_o)^2 / 1e4",
    "x8: intercept",
]

NUM_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True)
class CounterSample:
    """The scalar quantities extracted from one sampling window."""

    hit_rate: float
    intra_warp_hit_rate: float
    miss_rate: float
    avg_memory_latency: float
    instructions_per_load: float
    ipc: float = 0.0  # not a feature: the HIE's search fallback compares it

    @classmethod
    def from_counters(cls, counters: PerfCounters) -> "CounterSample":
        return cls(
            hit_rate=counters.l1_hit_rate,
            intra_warp_hit_rate=counters.intra_warp_hit_rate,
            miss_rate=counters.l1_miss_rate,
            avg_memory_latency=counters.aml,
            instructions_per_load=counters.instructions_per_load,
            ipc=counters.ipc,
        )


@dataclass(frozen=True)
class FeatureVector:
    """The eight-element feature vector X of Table II."""

    h_o: float
    h_prime: float
    eta_o: float
    eta_prime: float
    instructions_per_load: float
    latency_pressure: float  # L'm' - L_o m_o, before squaring/scaling

    def as_list(self) -> List[float]:
        """Materialise the vector in Table II order (including intercept)."""
        delta_eta = self.eta_prime - self.eta_o
        return [
            self.h_o,
            self.h_prime,
            self.eta_o,
            self.eta_prime,
            delta_eta ** 2,
            self.instructions_per_load * delta_eta ** 2,
            (self.latency_pressure ** 2) / 1e4,
            1.0,
        ]

    @property
    def delta_eta(self) -> float:
        """The remaining opportunity to capture intra-warp locality
        (``eta' - eta_o``, Table I-b)."""
        return self.eta_prime - self.eta_o

    @classmethod
    def from_samples(
        cls, baseline: CounterSample, reference: CounterSample
    ) -> "FeatureVector":
        """Build the feature vector from the two sampling points.

        ``baseline`` is the sample at maximum warps; ``reference`` is the
        sample at ``(1, 1)``.
        """
        pressure = (
            reference.avg_memory_latency * reference.miss_rate
            - baseline.avg_memory_latency * baseline.miss_rate
        )
        return cls(
            h_o=baseline.hit_rate,
            h_prime=reference.hit_rate,
            eta_o=baseline.intra_warp_hit_rate,
            eta_prime=reference.intra_warp_hit_rate,
            instructions_per_load=baseline.instructions_per_load,
            latency_pressure=pressure,
        )

    def masked(self, removed_indices: Sequence[int]) -> List[float]:
        """Return the vector with the given feature indices removed.

        Used by the Fig. 13 ablation, which retrains with one feature
        dropped from X.
        """
        removed = set(removed_indices)
        return [value for index, value in enumerate(self.as_list()) if index not in removed]


class FeatureSampler:
    """Collects the feature vector from an SM by steering the warp-tuple.

    This mirrors the prediction stage of the hardware inference engine
    (Section VI-A): at each reference point the SM runs for a warm-up period
    (to absorb the crossover effects of changing ``N`` and ``p``) and the
    counters are then sampled over a feature-collection window.
    """

    def __init__(self, warmup_cycles: int = 2_000, sample_cycles: int = 10_000) -> None:
        self.warmup_cycles = warmup_cycles
        self.sample_cycles = sample_cycles

    def sample_at(self, sm, n: int, p: int) -> CounterSample:
        """Steer the SM to ``(n, p)``, warm up, and sample one window."""
        window = measure_window(sm, n, p, self.warmup_cycles, self.sample_cycles)
        return CounterSample.from_counters(window)

    def collect(self, sm, max_warps: Optional[int] = None) -> Tuple[FeatureVector, float]:
        """Collect the full feature vector from a running SM, and the IPC
        of its baseline window.

        Sampling order follows the paper: the reference point ``(1, 1)``
        first, then the baseline point (maximum warps), so the engine ends
        the collection phase at full TLP.
        """
        if max_warps is None:
            max_warps = sm.config.max_warps
        reference = self.sample_at(sm, 1, 1)
        baseline = self.sample_at(sm, max_warps, max_warps)
        return FeatureVector.from_samples(baseline, reference), baseline.ipc
