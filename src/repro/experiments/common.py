"""Shared infrastructure for the experiment modules.

The heavy inputs of the evaluation — static profiles of kernels, scheme
runs, graph runs and the trained regression model — share one result cache
(a per-process memo in front of the content-addressed disk cache) so that
the eighteen experiment modules can be run independently without repeating
work.  ``ExperimentConfig.fast()`` provides a scaled-down
setup for tests; ``ExperimentConfig.full()`` is used by the benchmark
harness and reproduces the paper-shaped results.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import ExperimentResult
from repro.core.inference import PoiseParameters
from repro.core.model_store import load_model, model_from_dict, model_to_dict
from repro.core.poise import PoiseController
from repro.core.training import TrainedModel, TrainingPipeline, TrainingThresholds
from repro.core.features import FeatureSampler, FeatureVector
from repro.gpu.config import GPUConfig, baseline_config
from repro.gpu.gpu import GPU, RunResult
from repro.obs.telemetry import phase
from repro.profiling.metrics import harmonic_mean
from repro.profiling.profiler import KernelProfiler, StaticProfile, measure_pbest
from repro.runtime import serialization
from repro.runtime.cache import DiskCache, content_key
from repro.runtime.executor import SweepExecutor
from repro.version import __version__
from repro.schedulers import (
    APCMPolicy,
    CCWSController,
    GTOController,
    PCALController,
    RandomRestartController,
    StaticBestController,
    SWLController,
)
from repro.workloads.generator import generate_kernel_programs
from repro.workloads.registry import (
    compute_intensive_benchmarks,
    evaluation_benchmarks,
    get_benchmark,
    training_benchmarks,
)
from repro.workloads.spec import BenchmarkSpec, KernelSpec

#: The schemes compared in the headline figures (Fig. 7/8/9/14).
EVALUATION_SCHEMES: Tuple[str, ...] = ("gto", "swl", "pcal", "poise", "static_best")

#: Every scheme name :func:`_build_controller` accepts — the single source of
#: truth the trace CLI and the scenario-grid validation check against.
KNOWN_SCHEMES: Tuple[str, ...] = (
    "gto", "swl", "pcal", "static_best", "ccws", "random_restart", "apcm",
    "poise", "poise_nosearch",
)


def default_cache_dir() -> Path:
    """Where freshly trained models and other artefacts are cached.

    Resolved at call time (not import time) so ``REPRO_CACHE_DIR`` changes
    made after the package is imported — e.g. by the CLI's ``--cache-dir``
    flag or by a test monkeypatching the environment — are honoured.
    """
    return Path(os.environ.get("REPRO_CACHE_DIR", Path.home() / ".cache" / "poise-repro"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs controlling experiment scale."""

    gpu: GPUConfig = field(default_factory=baseline_config)
    profile_cycles: int = 8_000
    profile_warmup: int = 18_000
    profile_n_step: int = 2
    profile_p_step: int = 2
    run_max_cycles: int = 160_000
    kernels_per_benchmark: int = 2
    training_kernels_per_benchmark: int = 10
    poise_params: PoiseParameters = field(
        default_factory=lambda: PoiseParameters(
            t_period=150_000, t_warmup=1_500, t_feature=6_000, t_search=2_000,
            threshold_cycles=6_000,
        )
    )
    feature_warmup: int = 1_500
    feature_cycles: int = 6_000
    training_min_speedup: Optional[float] = None  # defaults to the Poise threshold
    training_min_hit_rate: Optional[float] = None  # defaults to the Poise threshold
    model_path: Optional[Path] = None
    cache_dir: Path = field(default_factory=default_cache_dir)
    label: str = "full"

    # -- presets -------------------------------------------------------------------

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """The configuration used by the benchmark harness."""
        return cls()

    @classmethod
    def fast(cls) -> "ExperimentConfig":
        """A heavily scaled-down configuration for unit/integration tests."""
        return cls(
            gpu=baseline_config(max_cycles=120_000),
            profile_cycles=5_000,
            profile_warmup=8_000,
            profile_n_step=4,
            profile_p_step=4,
            run_max_cycles=90_000,
            kernels_per_benchmark=1,
            training_kernels_per_benchmark=5,
            poise_params=PoiseParameters(
                t_period=30_000, t_warmup=1_000, t_feature=4_000, t_search=1_200,
                threshold_cycles=2_000,
            ),
            feature_warmup=1_000,
            feature_cycles=4_000,
            # The fast preset exists for structural tests, not learning quality:
            # admit every profiled kernel so tiny training sets still fit.
            training_min_speedup=1.0,
            training_min_hit_rate=-1.0,
            label="fast",
        )

    def with_gpu(self, gpu: GPUConfig) -> "ExperimentConfig":
        return replace(self, gpu=gpu)

    def with_poise_params(self, params: PoiseParameters) -> "ExperimentConfig":
        return replace(self, poise_params=params)

    @property
    def cache_key(self) -> str:
        """A short string labelling the artifacts produced under this config.

        It only labels: each experiment artifact records it in its
        ``config`` block, and no cache is keyed by it (the result cache keys
        every entry by the content of the payload naming it).  Every
        run-affecting knob is folded in, so two artifacts made under
        different ``run_max_cycles``, ``kernels_per_benchmark``, feature
        windows or Poise parameters carry different labels.  The Poise
        parameters are summarised by a content digest to keep the label
        readable, and the *entire* GPU configuration by another — the
        readable ``l1…`` tokens cover only the axes sweeps vary by name, so
        any other architecture change must perturb the label through the
        digest (guarded by ``tests/test_graph_workloads.py``).
        """
        l1 = self.gpu.l1
        run_knobs = repr((self.poise_params, self.feature_warmup, self.feature_cycles))
        poise_digest = hashlib.sha256(run_knobs.encode("utf-8")).hexdigest()[:8]
        gpu_digest = hashlib.sha256(
            repr(serialization.gpu_payload(self.gpu)).encode("utf-8")
        ).hexdigest()[:8]
        return (
            f"{self.label}-l1{l1.size_bytes // 1024}k-{l1.indexing}"
            f"-pc{self.profile_cycles}-pw{self.profile_warmup}"
            f"-ns{self.profile_n_step}-ps{self.profile_p_step}"
            f"-rc{self.run_max_cycles}-kb{self.kernels_per_benchmark}"
            f"-pp{poise_digest}-g{gpu_digest}"
        )

    # -- helpers -------------------------------------------------------------------

    def profiler(self) -> KernelProfiler:
        return KernelProfiler(
            config=self.gpu,
            cycles_per_point=self.profile_cycles,
            warmup_cycles=self.profile_warmup,
            n_step=self.profile_n_step,
            p_step=self.profile_p_step,
        )

    def feature_sampler(self) -> FeatureSampler:
        return FeatureSampler(
            warmup_cycles=self.feature_warmup, sample_cycles=self.feature_cycles
        )

    def training_pipeline(self, feature_mask: Optional[Sequence[int]] = None) -> TrainingPipeline:
        return TrainingPipeline(
            config=self.gpu,
            profiler=self.profiler(),
            sampler=self.feature_sampler(),
            thresholds=TrainingThresholds(
                min_speedup=(
                    self.training_min_speedup
                    if self.training_min_speedup is not None
                    else self.poise_params.threshold_speedup
                ),
                min_cycles=min(self.poise_params.threshold_cycles, self.profile_cycles),
                min_reference_hit_rate=(
                    self.training_min_hit_rate
                    if self.training_min_hit_rate is not None
                    else self.poise_params.threshold_hit_rate
                ),
            ),
            scoring_weights=self.poise_params.scoring_weights,
            feature_mask=feature_mask,
        )

    def limited_kernels(self, benchmark: BenchmarkSpec, training: bool = False) -> List[KernelSpec]:
        limit = (
            self.training_kernels_per_benchmark if training else self.kernels_per_benchmark
        )
        return list(benchmark.kernels[:limit])

    def limited_benchmark(self, benchmark: BenchmarkSpec, training: bool = False) -> BenchmarkSpec:
        return replace(benchmark, kernels=self.limited_kernels(benchmark, training=training))


# ---------------------------------------------------------------------------
# The result cache: one per-process memo in front of the content-addressed disk
# ---------------------------------------------------------------------------

#: Every profile, scheme run, graph run, one-kernel measurement and trained
#: model this process has computed or loaded, keyed by ``content_key`` of
#: the payload that also names its disk entry.
_MEMO: Dict[str, object] = {}

#: How each payload ``kind`` is written to and read from its disk entry.
_CODECS: Dict[str, Tuple[Callable, Callable]] = {
    "profile": (serialization.profile_to_dict, serialization.profile_from_dict),
    "run": (serialization.run_result_to_dict, serialization.run_result_from_dict),
    "graph-run": (serialization.graph_result_to_dict, serialization.graph_result_from_dict),
    "model": (model_to_dict, model_from_dict),
    "pbest": (float, float),
    "features": (asdict, lambda data: FeatureVector(**data)),
    "hit-breakdown": (dict, dict),
}


def _disk(kind: str, cache_dir: Path) -> DiskCache:
    """Where entries of ``kind`` live: ``runs/<key>.json``, except trained
    models, which sit directly under the cache dir as ``model-<key>.json``
    so a fresh cache dir can be seeded with them alone."""
    if kind == "model":
        return DiskCache(cache_dir, subdir="", prefix="model-")
    return DiskCache(cache_dir)


def _cached(payload: dict, config: ExperimentConfig, compute: Callable):
    """The memo, else the disk entry ``payload`` names, else ``compute()``
    (stored to disk); whichever answers fills the memo.

    A corrupt or undecodable disk entry is a miss like an absent one.
    """
    key = content_key(payload)
    if key not in _MEMO:
        encode, decode = _CODECS[payload["kind"]]
        disk = _disk(payload["kind"], config.cache_dir)
        result = disk.load(payload, decode)
        if result is None:
            result = compute()
            disk.store(payload, encode(result))
        _MEMO[key] = result
    return _MEMO[key]


def clear_caches(config: Optional[ExperimentConfig] = None) -> None:
    """Drop the per-process memo (used by tests).

    When ``config`` is given, every disk entry under its cache dir goes
    too: results and trained models.
    """
    _MEMO.clear()
    if config is not None:
        for kind in ("run", "model"):
            _disk(kind, config.cache_dir).clear()


def _profile_key_payload(spec: KernelSpec, config: ExperimentConfig) -> dict:
    """Everything that determines a :class:`StaticProfile`."""
    return {
        "kind": "profile",
        "version": __version__,
        "code": serialization.code_fingerprint(),
        "spec": serialization.spec_payload(spec),
        "gpu": serialization.gpu_payload(config.gpu),
        "cycles_per_point": config.profile_cycles,
        "warmup_cycles": config.profile_warmup,
        "n_step": config.profile_n_step,
        "p_step": config.profile_p_step,
    }


def _simulation_knobs(config: ExperimentConfig) -> dict:
    """The knobs both scheme runs and training read: the GPU, the profile
    grid, the Poise parameters and the feature-sampling window."""
    return {
        "gpu": serialization.gpu_payload(config.gpu),
        "profile_knobs": [
            config.profile_cycles,
            config.profile_warmup,
            config.profile_n_step,
            config.profile_p_step,
        ],
        "poise_params": serialization.encode_value(asdict(config.poise_params)),
        "feature_window": [config.feature_warmup, config.feature_cycles],
    }


def _run_key_payload(
    scheme: str,
    spec: KernelSpec,
    config: ExperimentConfig,
    model: Optional[TrainedModel],
) -> dict:
    """Everything that determines a scheme run's ``RunResult``.

    The full spec, not its name: a captured-trace replay deliberately
    shares its source kernel's name.  Model-driven schemes fold in a digest
    of the weights, so one kernel evaluated under two models never shares
    an entry.
    """
    scheme = scheme.lower()
    return {
        "kind": "run",
        "version": __version__,
        "code": serialization.code_fingerprint(),
        "scheme": scheme,
        "spec": serialization.spec_payload(spec),
        "run_max_cycles": config.run_max_cycles,
        "model": serialization.model_digest(model if scheme.startswith("poise") else None),
        **_simulation_knobs(config),
    }


def _model_key_payload(config: ExperimentConfig, feature_mask: Optional[Sequence[int]]) -> dict:
    """Everything :func:`train_model` reads.

    Not the code fingerprint: a trained model outlives code edits (the runs
    it drives are keyed by its weights), so a cold run after an edit does
    not retrain.
    """
    return {
        "kind": "model",
        "training_kernels_per_benchmark": config.training_kernels_per_benchmark,
        "training_min_speedup": config.training_min_speedup,
        "training_min_hit_rate": config.training_min_hit_rate,
        "feature_mask": sorted(feature_mask) if feature_mask else None,
        **_simulation_knobs(config),
    }


def get_profile(spec: KernelSpec, config: ExperimentConfig) -> StaticProfile:
    """Profile a kernel over the warp-tuple grid, through the result cache."""

    def compute() -> StaticProfile:
        with phase("profile"):
            return config.profiler().profile(spec)

    return _cached(_profile_key_payload(spec, config), config, compute)


def cached_measurement(
    kind: str,
    spec: KernelSpec,
    config: ExperimentConfig,
    compute: Callable,
    gpu: Optional[GPUConfig] = None,
    **knobs,
):
    """``compute()``, a one-kernel measurement made outside the scheme runs,
    through the result cache.

    The key names the measurement's ``kind`` (which picks its codec), the
    spec, the GPU it simulates (``config.gpu`` unless given) and every knob
    it reads, passed as ``knobs``.
    """
    payload = {
        "kind": kind,
        "version": __version__,
        "code": serialization.code_fingerprint(),
        "spec": serialization.spec_payload(spec),
        "gpu": serialization.gpu_payload(gpu or config.gpu),
        **knobs,
    }
    return _cached(payload, config, compute)


def get_pbest(spec: KernelSpec, config: ExperimentConfig) -> float:
    """``spec``'s Pbest (fig16, table03a) through the result cache."""
    knobs = {"cycles": config.profile_cycles, "warmup_cycles": 20_000, "l1_scale": 64}
    return cached_measurement(
        "pbest", spec, config, lambda: measure_pbest(spec, config.gpu, **knobs), **knobs
    )


def get_features(spec: KernelSpec, config: ExperimentConfig) -> FeatureVector:
    """The feature vector Poise's inference engine samples from ``spec``
    (sec7b), through the result cache."""
    return cached_measurement(
        "features",
        spec,
        config,
        lambda: config.training_pipeline().sample_features(spec),
        feature_window=[config.feature_warmup, config.feature_cycles],
    )


# ---------------------------------------------------------------------------
# Model training / loading
# ---------------------------------------------------------------------------

def train_model(
    config: ExperimentConfig, feature_mask: Optional[Sequence[int]] = None
) -> TrainedModel:
    """Train the regression on the training split (one-time, offline)."""
    pipeline = config.training_pipeline(feature_mask=feature_mask)
    benchmarks = [
        config.limited_benchmark(benchmark, training=True)
        for benchmark in training_benchmarks()
    ]
    with phase("train"):
        model, _ = pipeline.train(benchmarks)
    return model


def train_or_load_model(
    config: ExperimentConfig, feature_mask: Optional[Sequence[int]] = None
) -> TrainedModel:
    """Resolve the trained model for an experiment.

    Resolution order: an explicit ``config.model_path`` (a file named
    outside the cache, read before it, never through it) → the result
    cache, where ``repro pretrain`` also stores its model → train from
    scratch (and cache).
    """
    if config.model_path is not None:
        return load_model(config.model_path)
    return _cached(
        _model_key_payload(config, feature_mask),
        config,
        lambda: train_model(config, feature_mask=feature_mask),
    )


def store_model(
    config: ExperimentConfig,
    model: TrainedModel,
    feature_mask: Optional[Sequence[int]] = None,
) -> Optional[Path]:
    """Make ``model`` the cached model of ``config`` and ``feature_mask``:
    the memo slot and the ``model-<key>.json`` entry that
    :func:`train_or_load_model` reads.  Returns the entry's path, or
    ``None`` when the (best-effort) disk write failed."""
    payload = _model_key_payload(config, feature_mask)
    _MEMO[content_key(payload)] = model
    return _disk("model", config.cache_dir).store(payload, model_to_dict(model))


# ---------------------------------------------------------------------------
# Scheme execution
# ---------------------------------------------------------------------------

def _build_controller(
    scheme: str,
    spec: KernelSpec,
    config: ExperimentConfig,
    model: Optional[TrainedModel],
):
    """Return (controller, cache_policy) for a scheme name."""
    scheme = scheme.lower()
    if scheme == "gto":
        return GTOController(), None
    if scheme == "swl":
        return SWLController(profile=get_profile(spec, config)), None
    if scheme == "pcal":
        return PCALController(profile=get_profile(spec, config)), None
    if scheme == "static_best":
        return StaticBestController(profile=get_profile(spec, config)), None
    if scheme == "ccws":
        return CCWSController(), None
    if scheme == "random_restart":
        return RandomRestartController(), None
    if scheme == "apcm":
        return GTOController(), APCMPolicy()
    if scheme in ("poise", "poise_nosearch"):
        if model is None:
            raise ValueError(f"scheme {scheme!r} requires a trained model")
        params = replace(
            config.poise_params,
            t_warmup=config.feature_warmup,
            t_feature=config.feature_cycles,
        )
        if scheme == "poise_nosearch":
            params = params.with_strides(0, 0)
        return PoiseController(model, params), None
    raise ValueError(f"unknown scheme {scheme!r}")


def run_scheme_on_kernel(
    scheme: str,
    spec: KernelSpec,
    config: ExperimentConfig,
    model: Optional[TrainedModel] = None,
) -> RunResult:
    """Run one kernel to completion (or the cycle budget) under a scheme.

    Results go through the result cache, so a sweep worker's runs survive
    into the parent process and across invocations.
    """

    def simulate() -> RunResult:
        controller, cache_policy = _build_controller(scheme, spec, config, model)
        gpu = GPU(config.gpu)
        programs = generate_kernel_programs(spec)
        with phase("simulate"):
            return gpu.run_kernel(
                programs,
                controller=controller,
                max_cycles=config.run_max_cycles,
                cache_policy=cache_policy,
            )

    return _cached(_run_key_payload(scheme, spec, config, model), config, simulate)


#: Schemes whose controller consumes a static profile of the kernel.
_PROFILE_BASED_SCHEMES = frozenset({"swl", "pcal", "static_best"})


def prefetch_runs(
    pairs: Sequence[Tuple[str, KernelSpec]],
    config: ExperimentConfig,
    model: Optional[TrainedModel] = None,
) -> None:
    """Fan missing (scheme, kernel) runs out over the sweep executor.

    After this returns, every pair is resident in the memo, so the serial
    aggregation code that follows only sees memo hits.  With
    ``REPRO_JOBS=1`` (the default) this is a no-op and the runs are computed
    lazily exactly as before — the counters are identical either way.
    """
    executor = SweepExecutor()
    if not executor.parallel:
        return
    todo: Dict[str, Tuple[str, KernelSpec, dict]] = {}
    for scheme, spec in pairs:
        payload = _run_key_payload(scheme, spec, config, model)
        key = content_key(payload)
        if key not in _MEMO:
            todo.setdefault(key, (scheme, spec, payload))
    if len(todo) <= 1:
        return
    # Static profiles feed several controllers; compute them up front in this
    # process (their grid points fan out on the same executor) so the run
    # workers find them in the disk cache instead of each re-sweeping.
    for scheme, spec, _ in todo.values():
        if scheme.lower() in _PROFILE_BASED_SCHEMES:
            get_profile(spec, config)
    results = executor.map(
        run_scheme_on_kernel,
        [(scheme, spec, config, model) for scheme, spec, _ in todo.values()],
    )
    for (_, _, payload), result in zip(todo.values(), results):
        # The worker stored its result: the memo takes it from disk, or
        # takes the returned copy if that best-effort store failed.
        _cached(payload, config, lambda result=result: result)


@dataclass
class BenchmarkOutcome:
    """Aggregated result of one scheme over one benchmark."""

    benchmark: str
    scheme: str
    speedup: float
    ipc: float
    l1_hit_rate: float
    aml: float
    aml_ratio: float
    energy_uj: float
    energy_ratio: float
    kernel_results: Dict[str, RunResult] = field(default_factory=dict)
    telemetry: Dict[str, object] = field(default_factory=dict)


def run_scheme_on_benchmark(
    scheme: str,
    benchmark_name: str,
    config: ExperimentConfig,
    model: Optional[TrainedModel] = None,
) -> BenchmarkOutcome:
    """Run every (limited) kernel of a benchmark under a scheme and aggregate.

    Per-kernel speedups are relative to the GTO baseline run of the same
    kernel; the benchmark-level speedup is their harmonic mean, matching the
    aggregation used in the paper's per-benchmark bars.
    """
    benchmark = get_benchmark(benchmark_name)
    kernels = config.limited_kernels(benchmark)
    pairs: List[Tuple[str, KernelSpec]] = [("gto", spec) for spec in kernels]
    if scheme != "gto":
        pairs.extend((scheme, spec) for spec in kernels)
    prefetch_runs(pairs, config, model=model)
    speedups: List[float] = []
    hit_rates: List[float] = []
    amls: List[float] = []
    aml_ratios: List[float] = []
    energies: List[float] = []
    energy_ratios: List[float] = []
    ipcs: List[float] = []
    kernel_results: Dict[str, RunResult] = {}
    telemetry: Dict[str, object] = {}

    for spec in kernels:
        baseline = run_scheme_on_kernel("gto", spec, config)
        result = (
            baseline
            if scheme == "gto"
            else run_scheme_on_kernel(scheme, spec, config, model=model)
        )
        kernel_results[spec.name] = result
        speedups.append(max(result.speedup_over(baseline), 1e-6))
        hit_rates.append(result.l1_hit_rate)
        amls.append(result.aml)
        aml_ratios.append(result.aml / baseline.aml if baseline.aml else 1.0)
        energies.append(result.energy.total_uj)
        energy_ratios.append(
            result.energy.total_pj / baseline.energy.total_pj
            if baseline.energy.total_pj
            else 1.0
        )
        ipcs.append(result.ipc)
        if result.telemetry:
            telemetry[spec.name] = result.telemetry

    count = max(1, len(kernels))
    return BenchmarkOutcome(
        benchmark=benchmark_name,
        scheme=scheme,
        speedup=harmonic_mean(speedups) if speedups else 1.0,
        ipc=sum(ipcs) / count,
        l1_hit_rate=sum(hit_rates) / count,
        aml=sum(amls) / count,
        aml_ratio=sum(aml_ratios) / count,
        energy_uj=sum(energies) / count,
        energy_ratio=sum(energy_ratios) / count,
        kernel_results=kernel_results,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# DAG-structured kernel mixes
# ---------------------------------------------------------------------------

def mix_graph_for_benchmark(benchmark_name: str, config: ExperimentConfig, mix: str):
    """The :class:`~repro.workloads.graph.KernelGraph` a ``kernel_mix`` axis
    value denotes: the benchmark's (limited) kernels, padded to at least two
    nodes with deterministic seed variants, arranged in the named shape."""
    from repro.workloads.graph import mix_graph

    benchmark = get_benchmark(benchmark_name)
    kernels = config.limited_kernels(benchmark)
    return mix_graph(kernels, mix, name=f"{benchmark_name}-{mix}")


def _graph_key_payload(graph, config: ExperimentConfig) -> dict:
    """Everything that determines a graph run's ``GraphRunResult``."""
    return {
        "kind": "graph-run",
        "version": __version__,
        "code": serialization.code_fingerprint(),
        "graph": graph.payload(),
        "gpu": serialization.gpu_payload(config.gpu),
        "run_max_cycles": config.run_max_cycles,
    }


def run_graph_for_config(graph, config: ExperimentConfig):
    """Run a kernel graph on ``config.gpu``'s chip, through the result cache.

    The cycle budget is ``run_max_cycles`` per node, pooled, so serial
    chains get the same per-kernel budget a single-kernel run would.
    """

    def simulate():
        gpu = GPU(config.gpu)
        budget = config.run_max_cycles * max(1, len(graph.nodes))
        with phase("simulate"):
            return gpu.run_graph(graph, max_cycles=budget)

    return _cached(_graph_key_payload(graph, config), config, simulate)


def run_mix_on_benchmark(
    benchmark_name: str,
    config: ExperimentConfig,
    mix: str,
) -> BenchmarkOutcome:
    """Run a benchmark's ``kernel_mix`` graph and aggregate chip-level metrics.

    The reference is each node run *alone* on a single SM under GTO (the
    contention-free serial execution), so the outcome's ratios measure what
    the chip model adds: ``speedup`` is the co-scheduling speedup (serial
    reference cycles over graph makespan — above 1 when SM-level parallelism
    wins, below when memory contention eats it), ``aml_ratio`` and
    ``energy_ratio`` are contention inflation factors, and ``ipc`` is the
    chip-level aggregate (all instructions over the makespan).
    """
    graph = mix_graph_for_benchmark(benchmark_name, config, mix)
    graph_result = run_graph_for_config(graph, config)
    reference_config = (
        config
        if config.gpu.num_sms == 1
        else config.with_gpu(replace(config.gpu, num_sms=1))
    )
    reference_counters = None
    reference_cycles = 0
    reference_energy_pj = 0.0
    for node in graph.nodes:
        reference = run_scheme_on_kernel("gto", node, reference_config)
        reference_cycles += reference.cycles
        reference_energy_pj += reference.energy.total_pj
        reference_counters = (
            reference.counters
            if reference_counters is None
            else reference_counters + reference.counters
        )
    aggregate = graph_result.aggregate
    makespan = graph_result.makespan
    energy_uj = sum(
        result.energy.total_uj for result in graph_result.node_results.values()
    )
    energy_pj = sum(
        result.energy.total_pj for result in graph_result.node_results.values()
    )
    reference_aml = reference_counters.aml if reference_counters is not None else 0.0
    return BenchmarkOutcome(
        benchmark=benchmark_name,
        scheme="gto",
        speedup=(reference_cycles / makespan) if makespan else 0.0,
        ipc=graph_result.aggregate_ipc,
        l1_hit_rate=aggregate.l1_hit_rate,
        aml=aggregate.aml,
        aml_ratio=(aggregate.aml / reference_aml) if reference_aml else 1.0,
        energy_uj=energy_uj,
        energy_ratio=(energy_pj / reference_energy_pj) if reference_energy_pj else 1.0,
        kernel_results=dict(graph_result.node_results),
        telemetry={
            "graph": {
                "mix": mix,
                "name": graph.name,
                "num_sms": graph_result.num_sms,
                "makespan": makespan,
                "completed": graph_result.completed,
                "schedule": [entry.as_dict() for entry in graph_result.schedule],
            }
        },
    )


def evaluate_schemes(
    schemes: Sequence[str],
    config: ExperimentConfig,
    benchmarks: Optional[Sequence[str]] = None,
    model: Optional[TrainedModel] = None,
) -> Dict[str, Dict[str, BenchmarkOutcome]]:
    """Run a set of schemes over the evaluation suite.

    Returns ``results[scheme][benchmark] -> BenchmarkOutcome``.
    """
    if benchmarks is None:
        benchmarks = [benchmark.name for benchmark in evaluation_benchmarks()]
    needs_model = any(s.startswith("poise") for s in schemes)
    if model is None and needs_model:
        model = train_or_load_model(config)
    # Fan the full (scheme, kernel) cross product out in one sweep so the
    # executor sees maximum parallelism; the per-benchmark aggregation below
    # then runs entirely against the warm run cache.
    suite_kernels = {name: config.limited_kernels(get_benchmark(name)) for name in benchmarks}
    pairs: List[Tuple[str, KernelSpec]] = [
        ("gto", spec) for name in benchmarks for spec in suite_kernels[name]
    ]
    for scheme in schemes:
        if scheme == "gto":
            continue
        pairs.extend((scheme, spec) for name in benchmarks for spec in suite_kernels[name])
    prefetch_runs(pairs, config, model=model)
    results: Dict[str, Dict[str, BenchmarkOutcome]] = {}
    for scheme in schemes:
        results[scheme] = {}
        for name in benchmarks:
            results[scheme][name] = run_scheme_on_benchmark(
                scheme, name, config, model=model
            )
    return results


def evaluation_benchmark_names() -> List[str]:
    return [benchmark.name for benchmark in evaluation_benchmarks()]


def compute_benchmark_names() -> List[str]:
    return [benchmark.name for benchmark in compute_intensive_benchmarks()]


# ---------------------------------------------------------------------------
# Experiment descriptors
# ---------------------------------------------------------------------------

def preset_config(label: str) -> ExperimentConfig:
    """Resolve a preset name (``fast``/``full``) to a configuration."""
    label = label.lower()
    if label == "fast":
        return ExperimentConfig.fast()
    if label == "full":
        return ExperimentConfig.full()
    raise ValueError(f"unknown configuration preset {label!r} (expected 'fast' or 'full')")


@dataclass(frozen=True)
class ArtifactSchema:
    """What a well-formed artifact of one experiment must contain.

    Deliberately structural rather than numeric: it checks that the emitted
    JSON has the tables and scalars the experiment promises (so a refactor
    that silently drops a series fails loudly), not that the values match
    the paper — that is the benchmark suite's job.
    """

    min_tables: int = 1
    required_scalars: Tuple[str, ...] = ()
    #: Case-insensitive fragments that must each match some table title.
    required_tables: Tuple[str, ...] = ()

    def validate(self, payload: Dict[str, object]) -> None:
        """Raise ``ValueError`` if an artifact payload violates the schema."""
        tables = payload.get("tables")
        if not isinstance(tables, list) or len(tables) < self.min_tables:
            found = len(tables) if isinstance(tables, list) else "none"
            raise ValueError(f"expected at least {self.min_tables} table(s), found {found}")
        titles = []
        for table in tables:
            if not isinstance(table, dict):
                raise ValueError("every table must be a JSON object")
            for key in ("title", "columns", "rows"):
                if key not in table:
                    raise ValueError(f"table is missing the {key!r} field")
            for row in table["rows"]:
                if len(row) != len(table["columns"]):
                    raise ValueError(
                        f"table {table['title']!r} has a row of width {len(row)} "
                        f"but {len(table['columns'])} columns"
                    )
            titles.append(str(table["title"]).lower())
        for fragment in self.required_tables:
            if not any(fragment.lower() in title for title in titles):
                raise ValueError(f"no table title matches {fragment!r}")
        scalars = payload.get("scalars")
        if not isinstance(scalars, dict):
            raise ValueError("artifact payload has no scalars object")
        missing = [name for name in self.required_scalars if name not in scalars]
        if missing:
            raise ValueError(f"missing required scalars: {', '.join(missing)}")


class ExperimentBase:
    """Base class every experiment module derives from.

    A subclass declares its identity (``experiment_id``, the paper
    ``artifact`` it reproduces, a human ``title``), an :class:`ArtifactSchema`
    for its output, and implements :meth:`build`.  The registry
    (:mod:`repro.experiments.registry`) discovers subclasses automatically;
    the per-module ``main()`` entry points are thin shims over :meth:`cli`.
    """

    #: Stable identifier, e.g. ``fig07`` — doubles as the CLI/artifact name.
    experiment_id: str = ""
    #: The paper artefact reproduced, e.g. ``Figure 7``.
    artifact: str = ""
    #: One-line human description.
    title: str = ""
    #: Structural expectations for the emitted artifact.
    schema: ArtifactSchema = ArtifactSchema()

    def build(self, config: ExperimentConfig, **overrides) -> "ExperimentResult":
        """Produce the experiment's result (implemented by subclasses)."""
        raise NotImplementedError

    def run(self, config: Optional[ExperimentConfig] = None, **overrides) -> "ExperimentResult":
        config = config or ExperimentConfig.full()
        return self.build(config, **overrides)

    @classmethod
    def cli(cls, argv: Optional[Sequence[str]] = None) -> int:
        """Stand-alone entry point: ``python -m repro.experiments.<module>``."""
        import argparse

        parser = argparse.ArgumentParser(description=f"{cls.artifact}: {cls.title}")
        scale = parser.add_mutually_exclusive_group()
        scale.add_argument(
            "--fast", action="store_true", help="use the scaled-down test configuration"
        )
        scale.add_argument(
            "--full", action="store_true", help="use the paper-shaped configuration (default)"
        )
        args = parser.parse_args(argv)
        config = preset_config("fast" if args.fast else "full")
        print(cls().run(config).to_text())
        return 0
