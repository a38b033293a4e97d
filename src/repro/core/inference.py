"""The Hardware Inference Engine (HIE) — Section VI.

At runtime the HIE repeats, once per *inference epoch*:

1. **Prediction stage** — steer the warp scheduler to the two reference
   points of the warp-tuple plane, warm up, sample the performance counters,
   build the feature vector and apply the link function with the offline
   feature weights to predict a warp-tuple.  If the kernel looks
   compute-intensive (instructions between loads above ``i_max``) the engine
   terminates early and runs with maximum warps.
2. **Local search** — a stride-halving gradient ascent around the predicted
   tuple (first along ``N``, then along ``p``), sampling each candidate for a
   short window, to absorb statistical errors in the prediction.
3. **Run** — execute at the converged tuple until the epoch ends, then reset
   and start over (capturing phase changes inside long kernels).

The engine is deliberately written as an explicit state machine so that the
hardware-cost accounting of Section VII-I (two 3-bit state registers, seven
counters, ~41 bytes per SM) has a direct software counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, Optional, Tuple

from repro.core.features import FeatureSampler, FeatureVector
from repro.core.training import TrainedModel
from repro.gpu.counters import measure_window


@dataclass(frozen=True)
class PoiseParameters:
    """Poise's timing/threshold parameters (Table IV).

    ``paper()`` returns the values of Table IV verbatim.  ``scaled()``
    shrinks the timing parameters proportionally — the reproduction's
    synthetic kernels are one to two orders of magnitude shorter than the
    4-billion-instruction runs of the paper, so the epoch structure is scaled
    to keep the same ratio of sampling overhead to useful execution.
    """

    scoring_weights: Tuple[float, float, float] = (1.0, 0.50, 0.25)
    t_period: int = 200_000
    t_warmup: int = 2_000
    t_feature: int = 10_000
    t_search: int = 4_000
    i_max: float = 49.0
    stride_n: int = 2
    stride_p: int = 4
    threshold_speedup: float = 1.015
    threshold_cycles: int = 10_000
    threshold_hit_rate: float = 0.0

    @classmethod
    def paper(cls) -> "PoiseParameters":
        """The exact parameter values of Table IV."""
        return cls()

    @classmethod
    def scaled(cls, factor: float = 0.25) -> "PoiseParameters":
        """Timing parameters scaled for the reproduction's shorter kernels."""
        base = cls()
        return replace(
            base,
            t_period=max(20_000, int(base.t_period * factor)),
            t_warmup=max(500, int(base.t_warmup * factor)),
            t_feature=max(2_000, int(base.t_feature * factor)),
            t_search=max(1_000, int(base.t_search * factor)),
            threshold_cycles=max(2_000, int(base.threshold_cycles * factor)),
        )

    def with_strides(self, stride_n: int, stride_p: int) -> "PoiseParameters":
        """Copy with different local-search strides (Fig. 11 sensitivity)."""
        return replace(self, stride_n=stride_n, stride_p=stride_p)


class HIEState(Enum):
    """States of the inference FSM (7 states => two 3-bit registers)."""

    SAMPLE_REFERENCE = "sample_reference"
    SAMPLE_BASELINE = "sample_baseline"
    PREDICT = "predict"
    SEARCH_N = "search_n"
    SEARCH_P = "search_p"
    RUN = "run"
    BYPASSED = "bypassed"


@dataclass
class EpochRecord:
    """Telemetry of one inference epoch (feeds Figs. 10 and 17)."""

    predicted: Tuple[int, int]
    searched: Tuple[int, int]
    compute_intensive: bool
    search_samples: int
    visited: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def displacement_n(self) -> int:
        return abs(self.searched[0] - self.predicted[0])

    @property
    def displacement_p(self) -> int:
        return abs(self.searched[1] - self.predicted[1])

    @property
    def euclidean_displacement(self) -> float:
        return (self.displacement_n ** 2 + self.displacement_p ** 2) ** 0.5


class HardwareInferenceEngine:
    """Runtime prediction and local search over an SM.

    The engine drives an SM through one full inference epoch at a time via
    :meth:`run_epoch`; the :class:`repro.core.poise.PoiseController` loops
    epochs until the kernel finishes.
    """

    def __init__(
        self,
        model: TrainedModel,
        params: Optional[PoiseParameters] = None,
    ) -> None:
        self.model = model
        self.params = params or PoiseParameters.paper()
        # The offline trainer samples through the same sampler and windows.
        self.sampler = FeatureSampler(self.params.t_warmup, self.params.t_feature)
        self.state = HIEState.SAMPLE_REFERENCE
        self.epochs: List[EpochRecord] = []
        self._baseline_window_ipc = 0.0

    # -- sampling helpers -----------------------------------------------------------

    def _measure_ipc(self, sm, n: int, p: int) -> float:
        """Short sampling window used by the local search (T_search)."""
        return measure_window(sm, n, p, self.params.t_warmup, self.params.t_search).ipc

    # -- prediction stage -----------------------------------------------------------

    def predict(self, sm, max_warps: int) -> Tuple[Tuple[int, int], bool, FeatureVector]:
        """Run the prediction stage of one epoch.

        Returns the predicted warp-tuple, a flag marking the kernel as
        compute-intensive, and the sampled feature vector.  The throughput
        observed while sampling the baseline point is remembered so the local
        search can fall back to maximum warps when its converged tuple does
        not actually beat the baseline (a free comparison — the counters were
        already collected for the feature vector).
        """
        # The sampler's two windows are the SAMPLE_REFERENCE and
        # SAMPLE_BASELINE states.
        self.state = HIEState.SAMPLE_REFERENCE
        vector, self._baseline_window_ipc = self.sampler.collect(sm, max_warps)

        if vector.instructions_per_load > self.params.i_max:
            # Compute-intensive kernel: run at maximum warps, skip the search.
            self.state = HIEState.BYPASSED
            return (max_warps, max_warps), True, vector

        self.state = HIEState.PREDICT
        predicted = self.model.predict(vector, max_warps=max_warps)
        return predicted, False, vector

    # -- local search ---------------------------------------------------------------

    def _search_axis(
        self,
        sm,
        current: Tuple[int, int],
        axis: int,
        stride: int,
        max_warps: int,
        best_ipc: float,
        visited: List[Tuple[int, int]],
    ) -> Tuple[Tuple[int, int], float, int]:
        """Stride-halving gradient ascent along one axis of the tuple."""
        samples = 0
        while stride > 0:
            candidates = []
            for direction in (-1, 1):
                candidate = list(current)
                candidate[axis] += direction * stride
                n, p = candidate
                n = max(1, min(n, max_warps))
                p = max(1, min(p, n))
                candidate = (n, p)
                if candidate != current and candidate not in candidates:
                    candidates.append(candidate)
            improved = False
            for candidate in candidates:
                ipc = self._measure_ipc(sm, *candidate)
                samples += 1
                visited.append(candidate)
                if ipc > best_ipc:
                    best_ipc = ipc
                    current = candidate
                    improved = True
            if not improved:
                stride //= 2
        return current, best_ipc, samples

    def local_search(
        self, sm, predicted: Tuple[int, int], max_warps: int
    ) -> Tuple[Tuple[int, int], int, List[Tuple[int, int]]]:
        """Refine the prediction with the two-phase local search."""
        params = self.params
        visited: List[Tuple[int, int]] = [predicted]
        if params.stride_n == 0 and params.stride_p == 0:
            return predicted, 0, visited
        best_ipc = self._measure_ipc(sm, *predicted)
        samples = 1
        current = predicted

        self.state = HIEState.SEARCH_N
        if params.stride_n > 0:
            current, best_ipc, used = self._search_axis(
                sm, current, 0, params.stride_n, max_warps, best_ipc, visited
            )
            samples += used

        self.state = HIEState.SEARCH_P
        if params.stride_p > 0:
            current, best_ipc, used = self._search_axis(
                sm, current, 1, params.stride_p, max_warps, best_ipc, visited
            )
            samples += used

        # Safety fallback: the baseline point was already measured during
        # feature sampling; if the converged tuple does not beat it, keep the
        # baseline (maximum warps) for the rest of the epoch.
        baseline_point = (max_warps, max_warps)
        if self._baseline_window_ipc > best_ipc and current != baseline_point:
            visited.append(baseline_point)
            current = baseline_point
        return current, samples, visited

    # -- epoch ----------------------------------------------------------------------

    def run_epoch(
        self, sm, max_warps: Optional[int] = None, cycle_budget: Optional[int] = None
    ) -> EpochRecord:
        """Run one full inference epoch (prediction + search + run).

        ``cycle_budget`` optionally caps the total cycles the epoch may
        consume (used when the kernel's remaining budget is shorter than a
        full inference period).
        """
        params = self.params
        if max_warps is None:
            max_warps = sm.config.max_warps
        epoch_start = sm.cycle
        epoch_end = epoch_start + (
            params.t_period if cycle_budget is None else min(params.t_period, cycle_budget)
        )

        predicted, compute_intensive, _ = self.predict(sm, max_warps)
        if compute_intensive:
            final, samples, visited = predicted, 0, [predicted]
        else:
            sm.set_warp_tuple(*predicted)
            final, samples, visited = self.local_search(sm, predicted, max_warps)

        self.state = HIEState.RUN
        sm.set_warp_tuple(*final)
        remaining = epoch_end - sm.cycle
        if remaining > 0:
            sm.run_cycles(remaining)

        record = EpochRecord(
            predicted=predicted,
            searched=final,
            compute_intensive=compute_intensive,
            search_samples=samples,
            visited=visited,
        )
        self.epochs.append(record)
        return record

    # -- aggregate telemetry ---------------------------------------------------------

    def mean_displacement(self) -> Tuple[float, float, float]:
        """Average |ΔN|, |Δp| and Euclidean displacement across epochs
        (the quantities of Fig. 10)."""
        records = [record for record in self.epochs if not record.compute_intensive]
        if not records:
            return 0.0, 0.0, 0.0
        count = len(records)
        mean_n = sum(record.displacement_n for record in records) / count
        mean_p = sum(record.displacement_p for record in records) / count
        mean_e = sum(record.euclidean_displacement for record in records) / count
        return mean_n, mean_p, mean_e
