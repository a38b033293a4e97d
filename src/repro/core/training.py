"""The offline training pipeline (Section V-C / V-D).

Training is a one-time, offline activity performed by the GPU vendor.  For
every kernel in the training set the pipeline:

1. profiles the kernel over the ``{N, p}`` plane (via the profiling
   substrate) to obtain its speedup grid,
2. samples the feature vector with the same warm-up/sample procedure the
   hardware inference engine uses at runtime,
3. filters out kernels that are statistically insignificant (the threshold
   criteria of Table IV: minimum speedup at the best tuple, minimum
   execution length, non-zero hit rate at the reference point),
4. scores the grid (Eq. 12) and picks the best-scoring warp-tuple as the
   target,
5. scales the target to the scheduler's maximum warp budget so kernels with
   different occupancy limits produce commensurable targets, and
6. fits one Negative Binomial regression for ``N`` and one for ``p``.

The fitted weights — the α and β columns of Table II — are serialised by
:mod:`repro.core.model_store` and handed to the hardware through the
compiler/constant-memory path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import NUM_FEATURES, FeatureSampler, FeatureVector
from repro.core.regression import NegativeBinomialRegression
from repro.core.scoring import DEFAULT_WEIGHTS, select_training_target
from repro.gpu.config import GPUConfig, baseline_config
from repro.gpu.gpu import GPU
from repro.profiling.profiler import KernelProfiler, StaticProfile
from repro.runtime.executor import SweepExecutor
from repro.workloads.generator import generate_kernel_programs
from repro.workloads.spec import BenchmarkSpec, KernelSpec


@dataclass(frozen=True)
class TrainingThresholds:
    """Kernel admission criteria for training (Table IV, bottom rows)."""

    min_speedup: float = 1.015
    min_cycles: int = 10_000
    min_reference_hit_rate: float = 0.0

    def admits(self, example: "TrainingExample") -> bool:
        if example.best_speedup < self.min_speedup:
            return False
        if example.baseline_cycles < self.min_cycles:
            return False
        if example.features.h_prime <= self.min_reference_hit_rate:
            return False
        return True


@dataclass
class TrainingExample:
    """One profiled kernel: the sample input-output pair used for training."""

    kernel_name: str
    benchmark_name: str
    features: FeatureVector
    target: Tuple[int, int]  # scored best warp-tuple, before scaling
    max_warps: int
    best_speedup: float
    target_speedup: float
    baseline_cycles: int

    def scaled_target(self, scheduler_max_warps: int) -> Tuple[float, float]:
        """Scale the target to the scheduler warp budget (Section V-C)."""
        scale = scheduler_max_warps / self.max_warps
        return self.target[0] * scale, self.target[1] * scale


@dataclass
class TrainedModel:
    """The learned mapping shipped to the GPU via the compiler."""

    alpha_weights: List[float]  # weights for ln(N)
    beta_weights: List[float]  # weights for ln(p)
    max_warps: int
    feature_mask: Optional[List[int]] = None  # indices removed from X (Fig. 13)
    dispersion_n: float = 0.0
    dispersion_p: float = 0.0
    num_training_kernels: int = 0
    metadata: Dict[str, float] = field(default_factory=dict)

    def active_features(self, vector: FeatureVector) -> List[float]:
        values = vector.as_list()
        if not self.feature_mask:
            return values
        removed = set(self.feature_mask)
        return [value for index, value in enumerate(values) if index not in removed]

    def predict(self, vector: FeatureVector, max_warps: Optional[int] = None) -> Tuple[int, int]:
        """Apply the link function (Eq. 13) and reverse the training scaling."""
        limit = max_warps if max_warps is not None else self.max_warps
        x = self.active_features(vector)
        ln_n = float(np.dot(self.alpha_weights, x))
        ln_p = float(np.dot(self.beta_weights, x))
        n_scaled = float(np.exp(np.clip(ln_n, -10, 10)))
        p_scaled = float(np.exp(np.clip(ln_p, -10, 10)))
        # Reverse the scaling that normalised targets to the scheduler budget.
        scale = limit / self.max_warps
        n = int(round(n_scaled * scale))
        p = int(round(p_scaled * scale))
        n = max(1, min(n, limit))
        p = max(1, min(p, n))
        return n, p


class TrainingPipeline:
    """Profiles training kernels and fits the regression models."""

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        profiler: Optional[KernelProfiler] = None,
        sampler: Optional[FeatureSampler] = None,
        thresholds: Optional[TrainingThresholds] = None,
        scoring_weights: Sequence[float] = DEFAULT_WEIGHTS,
        feature_mask: Optional[Sequence[int]] = None,
        executor: Optional[SweepExecutor] = None,
    ) -> None:
        self.config = config or baseline_config()
        self.profiler = profiler or KernelProfiler(self.config)
        self.sampler = sampler or FeatureSampler()
        self.thresholds = thresholds or TrainingThresholds()
        self.scoring_weights = tuple(scoring_weights)
        self.feature_mask = list(feature_mask) if feature_mask else None
        self.executor = executor

    # -- per-kernel work ------------------------------------------------------------

    def sample_features(self, spec: KernelSpec, programs=None) -> FeatureVector:
        """Sample the feature vector exactly as the HIE would at runtime."""
        if programs is None:
            programs = generate_kernel_programs(spec)
        sm = GPU(self.config).build_sm(programs)
        max_warps = min(self.config.max_warps, spec.num_warps)
        return self.sampler.collect(sm, max_warps=max_warps)

    def build_example(
        self, benchmark: BenchmarkSpec, spec: KernelSpec, profile: Optional[StaticProfile] = None
    ) -> TrainingExample:
        """Profile one kernel and construct its training example."""
        if profile is None:
            profile = self.profiler.profile(spec)
        grid = profile.speedup_grid()
        target = select_training_target(grid, self.scoring_weights)
        features = self.sample_features(spec)
        baseline_counters = profile.baseline_counters
        baseline_cycles = getattr(baseline_counters, "cycles", 0) if baseline_counters else 0
        return TrainingExample(
            kernel_name=spec.name,
            benchmark_name=benchmark.name,
            features=features,
            target=target.point,
            max_warps=profile.max_warps,
            best_speedup=profile.best_speedup(),
            target_speedup=target.speedup,
            baseline_cycles=baseline_cycles,
        )

    def collect_examples(self, benchmarks: Sequence[BenchmarkSpec]) -> List[TrainingExample]:
        """Build one training example per kernel of every benchmark.

        Each example needs a full warp-tuple-grid profile plus a feature
        sample — independent simulations, so the kernels fan out over the
        sweep executor when ``REPRO_JOBS`` allows (and run in-process, with
        the executor's retry of transient ``OSError``s, when it does not).
        Results come back in submission order, keeping the example list (and
        therefore the fitted model) identical to a serial pass.
        """
        executor = self.executor or SweepExecutor()
        return executor.map(
            self.build_example,
            [(benchmark, spec) for benchmark in benchmarks for spec in benchmark.kernels],
        )

    # -- fitting ---------------------------------------------------------------------

    def fit(self, examples: Sequence[TrainingExample]) -> TrainedModel:
        """Filter, scale and fit the two regressions."""
        admitted = [example for example in examples if self.thresholds.admits(example)]
        if len(admitted) < NUM_FEATURES:
            raise ValueError(
                f"training requires at least {NUM_FEATURES} admitted kernels, "
                f"got {len(admitted)} (of {len(examples)} profiled)"
            )
        scheduler_max = self.config.max_warps
        removed = set(self.feature_mask or [])
        matrix: List[List[float]] = []
        targets_n: List[float] = []
        targets_p: List[float] = []
        for example in admitted:
            values = example.features.as_list()
            if removed:
                values = [v for index, v in enumerate(values) if index not in removed]
            matrix.append(values)
            scaled_n, scaled_p = example.scaled_target(scheduler_max)
            targets_n.append(scaled_n)
            targets_p.append(scaled_p)

        model_n = NegativeBinomialRegression()
        model_p = NegativeBinomialRegression()
        fit_n = model_n.fit(matrix, targets_n)
        fit_p = model_p.fit(matrix, targets_p)
        return TrainedModel(
            alpha_weights=[float(w) for w in fit_n.weights],
            beta_weights=[float(w) for w in fit_p.weights],
            max_warps=scheduler_max,
            feature_mask=sorted(removed) if removed else None,
            dispersion_n=fit_n.dispersion,
            dispersion_p=fit_p.dispersion,
            num_training_kernels=len(admitted),
            metadata={
                "deviance_n": fit_n.deviance,
                "deviance_p": fit_p.deviance,
                "profiled_kernels": float(len(examples)),
            },
        )

    def train(self, benchmarks: Sequence[BenchmarkSpec]) -> Tuple[TrainedModel, List[TrainingExample]]:
        """End-to-end training: profile, sample, filter and fit."""
        examples = self.collect_examples(benchmarks)
        model = self.fit(examples)
        return model, examples


def prediction_errors(
    model: TrainedModel, examples: Sequence[TrainingExample]
) -> Tuple[float, float]:
    """Mean relative prediction error for N and p over profiled kernels.

    This is the offline accuracy metric of Section VII-B (the paper reports
    16% for N and 26% for p on unseen kernels).
    """
    if not examples:
        return 0.0, 0.0
    errors_n: List[float] = []
    errors_p: List[float] = []
    for example in examples:
        predicted = model.predict(example.features, max_warps=example.max_warps)
        target_n, target_p = example.target
        errors_n.append(abs(predicted[0] - target_n) / max(1, target_n))
        errors_p.append(abs(predicted[1] - target_p) / max(1, target_p))
    return float(np.mean(errors_n)), float(np.mean(errors_p))
