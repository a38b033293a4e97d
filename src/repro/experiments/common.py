"""Shared infrastructure for the experiment modules.

The heavy inputs of the evaluation — static profiles of kernels, scheme
runs, graph runs and the trained regression model — share one result cache
(a per-process memo in front of the content-addressed disk cache) so that
the experiment modules can be run independently without repeating work.
``ExperimentConfig.fast()`` provides a scaled-down setup, run by the tests
and, by default, the shape benchmarks; ``ExperimentConfig.full()``
reproduces the paper-shaped results and is the CLI's default.
"""

from __future__ import annotations

import functools
import hashlib
import os
from contextlib import closing
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
from repro.runtime.executor import JobReport, SweepExecutor
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
    profile_step: int = 2
    run_max_cycles: int = 160_000
    kernels_per_benchmark: int = 2
    training_kernels_per_benchmark: int = 10
    poise_params: PoiseParameters = field(
        default_factory=lambda: PoiseParameters(
            t_period=150_000, t_warmup=1_500, t_feature=6_000, t_search=2_000,
            threshold_cycles=6_000,
        )
    )
    training_min_speedup: Optional[float] = None  # defaults to the Poise threshold
    training_min_hit_rate: Optional[float] = None  # defaults to the Poise threshold
    model_path: Optional[Path] = None
    cache_dir: Path = field(default_factory=default_cache_dir)
    label: str = "full"

    # -- presets -------------------------------------------------------------------

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """The paper-shaped configuration: the CLI's default, and the shape
        benchmarks' under ``REPRO_BENCH_PROFILE=full``."""
        return cls()

    @classmethod
    def fast(cls) -> "ExperimentConfig":
        """A heavily scaled-down configuration for unit/integration tests."""
        return cls(
            gpu=baseline_config(max_cycles=120_000),
            profile_cycles=5_000,
            profile_warmup=8_000,
            profile_step=4,
            run_max_cycles=90_000,
            kernels_per_benchmark=1,
            training_kernels_per_benchmark=5,
            poise_params=PoiseParameters(
                t_period=30_000, t_warmup=1_000, t_feature=4_000, t_search=1_200,
                threshold_cycles=2_000,
            ),
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
        different ``run_max_cycles``, ``kernels_per_benchmark`` or Poise
        parameters (feature windows included) carry different labels.  The
        Poise parameters are summarised by a content digest to keep the label
        readable, and the *entire* GPU configuration by another — the
        readable ``l1…`` tokens cover only the axes sweeps vary by name, so
        any other architecture change must perturb the label through the
        digest (guarded by ``tests/test_graph_workloads.py``).
        """
        l1 = self.gpu.l1
        poise_digest = hashlib.sha256(repr(self.poise_params).encode("utf-8")).hexdigest()[:8]
        gpu_digest = hashlib.sha256(
            repr(serialization.gpu_payload(self.gpu)).encode("utf-8")
        ).hexdigest()[:8]
        return (
            f"{self.label}-l1{l1.size_bytes // 1024}k-{l1.indexing}"
            f"-pc{self.profile_cycles}-pw{self.profile_warmup}"
            f"-st{self.profile_step}"
            f"-rc{self.run_max_cycles}-kb{self.kernels_per_benchmark}"
            f"-pp{poise_digest}-g{gpu_digest}"
        )

    # -- helpers -------------------------------------------------------------------

    def profiler(self) -> KernelProfiler:
        return KernelProfiler(
            config=self.gpu,
            cycles_per_point=self.profile_cycles,
            warmup_cycles=self.profile_warmup,
            step=self.profile_step,
        )

    def feature_sampler(self) -> FeatureSampler:
        return FeatureSampler(
            warmup_cycles=self.poise_params.t_warmup,
            sample_cycles=self.poise_params.t_feature,
        )

    def training_pipeline(self, feature_mask: Optional[Sequence[int]] = None) -> TrainingPipeline:
        return TrainingPipeline(
            profile_of=functools.partial(get_profile, config=self),
            features_of=functools.partial(get_features, config=self),
            config=self.gpu,
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

    def training_split(self) -> List[BenchmarkSpec]:
        """The training benchmarks, limited to the kernels training reads."""
        return [self.limited_benchmark(benchmark, True) for benchmark in training_benchmarks()]


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


class _Miss(Exception):
    """Raised by :func:`_cached` instead of computing while :func:`_probe`
    reads a missing entry; ``args``: its key, payload, config and compute."""


#: True while :func:`_probe` reads an entry.
_probing: ContextVar[bool] = ContextVar("probing", default=False)


def _cached(payload: dict, config: ExperimentConfig, compute: Callable):
    """The memo, else the disk entry ``payload`` names, else ``compute()``
    (stored to disk); whichever answers fills the memo.

    A corrupt or undecodable disk entry is a miss like an absent one.
    ``compute`` is a picklable callable, so a plan can run it on a worker.
    """
    key = content_key(payload)
    if key not in _MEMO:
        decode = _CODECS[payload["kind"]][1]
        result = _disk(payload["kind"], config.cache_dir).load(payload, decode)
        if result is not None:
            _MEMO[key] = result
        elif _probing.get():
            raise _Miss(key, payload, config, compute)
        else:
            _store(payload, config, compute())
    return _MEMO[key]


def _store(payload: dict, config: ExperimentConfig, result) -> Optional[Path]:
    """Make ``result`` the memo slot and the disk entry of ``payload``.
    Returns the entry's path, or ``None`` when the (best-effort) write
    failed."""
    _MEMO[content_key(payload)] = result
    encode = _CODECS[payload["kind"]][0]
    return _disk(payload["kind"], config.cache_dir).store(payload, encode(result))


def clear_caches(config: Optional[ExperimentConfig] = None) -> None:
    """Drop the per-process memo (used by tests).

    When ``config`` is given, every disk entry under its cache dir goes
    too: results and trained models.
    """
    _MEMO.clear()
    if config is not None:
        for kind in ("run", "model"):
            _disk(kind, config.cache_dir).clear()


# ---------------------------------------------------------------------------
# Plans: the entries a build reads, computed before it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Entry:
    """One result-cache entry a build reads, through ``fn(*args)``.
    ``kernel`` (a spec or a graph) is the job a plan computes it in;
    ``model`` is the entry whose weights key a Poise run.
    """

    fn: Callable
    args: Tuple
    kernel: object = None
    model: Optional["Entry"] = None

    def read(self):
        return self.fn(*self.args)


def _probe(entry: Entry) -> Optional[_Miss]:
    """Read ``entry`` without computing it: ``None`` when it is in the memo
    or on disk (now in the memo), else its miss."""
    token = _probing.set(True)
    try:
        entry.read()
    except _Miss as miss:
        return miss
    finally:
        _probing.reset(token)
    return None


#: Plan stage per entry kind: one-kernel measurements 0 (the default), models 1, runs 2.
_STAGES = {"model": 1, "run": 2, "graph-run": 2}


def _needs(kernel, payload: dict, config: ExperimentConfig) -> List[Entry]:
    """The one-kernel measurements a missing entry's compute reads: a
    model's training inputs, a profile-driven run's profile."""
    if payload["kind"] == "model":
        return plan_training(config)
    if payload["kind"] == "run" and payload["scheme"] in PROFILE_CONTROLLERS:
        return [measurement(get_profile, kernel, config)]
    return []


def _compute_all(misses: List[tuple]) -> list:
    """A plan's job: compute each of its misses and store it.  A miss with
    no payload, a slice of a profile's grid, is only computed: the parent
    assembles the profile.  A retried job reads back what its failed
    attempt stored."""
    results = []
    for payload, config, compute in misses:
        if payload is None:
            results.append(compute())
        elif _disk(payload["kind"], config.cache_dir).path_for(payload).exists():
            results.append(_cached(payload, config, compute))
        else:
            results.append(compute())
            _store(payload, config, results[-1])
    return results


def _deal(kernel, miss: tuple, workers: int) -> List[tuple]:
    """``miss`` as the misses of separate jobs: a profile's grid dealt into
    a slice per worker, any other miss whole."""
    payload, config, _ = miss
    if payload["kind"] != "profile":
        return [miss]
    profiler = config.profiler()
    points = profiler.grid(kernel)
    return [
        (None, config, functools.partial(profiler.measure_points, kernel, points[i::workers]))
        for i in range(min(workers, len(points)))
    ]


def run_plan(plan: Iterable[Entry], executor: SweepExecutor) -> JobReport:
    """Compute each entry of ``plan`` that is in neither the memo nor on
    disk, once, so the builds that read them compute nothing.

    Measurements run on ``executor``, then models are fitted here, then runs
    go on ``executor``.  A job computes and stores one kernel's misses of a
    stage, so its programs are generated once and an interrupted plan
    resumes from the cache; a stage with fewer kernels than workers makes a
    job of each miss instead and deals each profile's grid over the
    workers.  A missing entry brings in what its compute reads
    (:func:`_needs`); a Poise run is probed once its model is fitted.
    Returns both stages' accounting, merged.
    """
    # Per stage, each missing entry's key -> (kernel, its miss's args).
    misses: List[Dict[str, Tuple[object, tuple]]] = [{}, {}, {}]
    seen: Set[Entry] = set()
    keyed_by_models: List[Entry] = []

    def record(entry: Entry) -> List[Entry]:
        """File ``entry``'s miss, if any, and return what its compute reads."""
        miss = _probe(entry)
        if miss is None:
            return []
        key, payload, config, _ = miss.args
        misses[_STAGES.get(payload["kind"], 0)].setdefault(key, (entry.kernel, miss.args[1:]))
        return _needs(entry.kernel, payload, config)

    def run_stage(stage: Dict[str, Tuple[object, tuple]]) -> JobReport:
        by_kernel: Dict[object, List[str]] = {}
        for key, (kernel, _) in stage.items():
            by_kernel.setdefault(kernel, []).append(key)
        if len(by_kernel) >= executor.jobs:
            jobs = [[(key, stage[key][1]) for key in keys] for keys in by_kernel.values()]
        else:
            jobs = [
                [(key, miss)]
                for key, (kernel, whole) in stage.items()
                for miss in _deal(kernel, whole, executor.jobs)
            ]
        slices: Dict[str, dict] = {}
        misses_of = [([miss for _, miss in job],) for job in jobs]
        with closing(executor.imap(_compute_all, misses_of)) as results:
            # Results first, so the stream (and its accounting) runs even empty.
            for computed, job in zip(results, jobs):
                for result, (key, (payload, _, _)) in zip(computed, job):
                    if payload is None:
                        slices.setdefault(key, {}).update(result)
                    else:
                        _MEMO[key] = result  # the job stored it
        for key, measured in slices.items():
            spec, (payload, config, _) = stage[key]
            _store(payload, config, config.profiler().profile(spec, measured))
        return executor.last_report

    for entry in plan:
        for item in (entry.model, entry):
            if item is None or item in seen:
                continue
            seen.add(item)
            if item.model is not None:
                keyed_by_models.append(item)
                continue
            for need in record(item):  # measurements, which need nothing
                if need not in seen:
                    seen.add(need)
                    record(need)
    report = run_stage(misses[0])
    for _, (payload, config, fit) in misses[1].values():
        _store(payload, config, fit())
    for entry in keyed_by_models:
        record(entry)
    return report + run_stage(misses[2])


def _simulation_knobs(config: ExperimentConfig) -> dict:
    """The knobs both scheme runs and training read: the GPU, the profile
    grid and the Poise parameters (the feature-sampling window included)."""
    return {
        "gpu": serialization.gpu_payload(config.gpu),
        "profile_knobs": [
            config.profile_cycles,
            config.profile_warmup,
            config.profile_step,
        ],
        "poise_params": serialization.encode_value(asdict(config.poise_params)),
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


def cached_measurement(
    kind: str,
    spec: KernelSpec,
    config: ExperimentConfig,
    compute: Callable,
    gpu: Optional[GPUConfig] = None,
    **knobs,
):
    """``compute()``, a one-kernel measurement made outside the scheme runs,
    through the result cache (``compute`` must be picklable).

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


def _profile(spec: KernelSpec, config: ExperimentConfig) -> StaticProfile:
    with phase("profile"):
        return config.profiler().profile(spec)


def get_profile(spec: KernelSpec, config: ExperimentConfig) -> StaticProfile:
    """Profile a kernel over the warp-tuple grid, through the result cache."""
    return cached_measurement(
        "profile",
        spec,
        config,
        functools.partial(_profile, spec, config),
        cycles_per_point=config.profile_cycles,
        warmup_cycles=config.profile_warmup,
        step=config.profile_step,
    )


def get_pbest(spec: KernelSpec, config: ExperimentConfig) -> float:
    """``spec``'s Pbest (fig16, table03a) through the result cache."""
    knobs = {"cycles": config.profile_cycles, "warmup_cycles": 20_000, "l1_scale": 64}
    compute = functools.partial(measure_pbest, spec, config.gpu, **knobs)
    return cached_measurement("pbest", spec, config, compute, **knobs)


def _features(spec: KernelSpec, config: ExperimentConfig) -> FeatureVector:
    sm = GPU(config.gpu).build_sm(generate_kernel_programs(spec))
    max_warps = min(config.gpu.max_warps, spec.num_warps)
    return config.feature_sampler().collect(sm, max_warps)[0]


def get_features(spec: KernelSpec, config: ExperimentConfig) -> FeatureVector:
    """The feature vector Poise's inference engine samples from ``spec`` in
    its first epoch (training, sec7b), through the result cache."""
    return cached_measurement(
        "features",
        spec,
        config,
        functools.partial(_features, spec, config),
        feature_window=[config.poise_params.t_warmup, config.poise_params.t_feature],
    )


def measurement(read: Callable, spec: KernelSpec, config: ExperimentConfig) -> Entry:
    """The entry of a one-kernel measurement ``read(spec, config)``, e.g.
    :func:`get_profile`, :func:`get_features` or :func:`get_pbest`."""
    return Entry(read, (spec, config), spec)


# ---------------------------------------------------------------------------
# Model training / loading
# ---------------------------------------------------------------------------

def train_model(
    config: ExperimentConfig, feature_mask: Optional[Sequence[int]] = None
) -> TrainedModel:
    """Train the regression on the training split (one-time, offline)."""
    pipeline = config.training_pipeline(feature_mask=feature_mask)
    with phase("train"):
        model, _ = pipeline.train(config.training_split())
    return model


def plan_training(config: ExperimentConfig) -> List[Entry]:
    """The profiles and feature vectors :func:`train_model` reads."""
    return [
        measurement(read, spec, config)
        for benchmark in config.training_split()
        for spec in benchmark.kernels
        for read in (get_profile, get_features)
    ]


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
        functools.partial(train_model, config, feature_mask),
    )


def model_entry(config: ExperimentConfig, feature_mask: Optional[Sequence[int]] = None) -> Entry:
    """The entry of the model :func:`train_or_load_model` resolves."""
    return Entry(train_or_load_model, (config, tuple(feature_mask) if feature_mask else None))


def store_model(
    config: ExperimentConfig,
    model: TrainedModel,
    feature_mask: Optional[Sequence[int]] = None,
) -> Optional[Path]:
    """Make ``model`` the cached model of ``config`` and ``feature_mask``:
    the memo slot and the ``model-<key>.json`` entry that
    :func:`train_or_load_model` reads.  Returns the entry's path, or
    ``None`` when the (best-effort) disk write failed."""
    return _store(_model_key_payload(config, feature_mask), config, model)


# ---------------------------------------------------------------------------
# Scheme execution
# ---------------------------------------------------------------------------

#: The controllers built from a static profile of the kernel they run.
PROFILE_CONTROLLERS = {
    "swl": SWLController,
    "pcal": PCALController,
    "static_best": StaticBestController,
}


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
    if scheme in PROFILE_CONTROLLERS:
        return PROFILE_CONTROLLERS[scheme](profile=get_profile(spec, config)), None
    if scheme == "ccws":
        return CCWSController(), None
    if scheme == "random_restart":
        return RandomRestartController(), None
    if scheme == "apcm":
        return GTOController(), APCMPolicy()
    if scheme in ("poise", "poise_nosearch"):
        if model is None:
            raise ValueError(f"scheme {scheme!r} requires a trained model")
        params = config.poise_params
        if scheme == "poise_nosearch":
            params = params.with_strides(0, 0)
        return PoiseController(model, params), None
    raise ValueError(f"unknown scheme {scheme!r}")


def _simulate(
    scheme: str, spec: KernelSpec, config: ExperimentConfig, model: Optional[TrainedModel]
) -> RunResult:
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


def run_scheme_on_kernel(
    scheme: str,
    spec: KernelSpec,
    config: ExperimentConfig,
    model: Optional[TrainedModel] = None,
) -> RunResult:
    """Run one kernel to completion (or the cycle budget) under a scheme.

    Results go through the result cache, so a run survives across
    invocations.
    """
    return _cached(
        _run_key_payload(scheme, spec, config, model),
        config,
        functools.partial(_simulate, scheme, spec, config, model),
    )


def run_entry(
    scheme: str, spec: KernelSpec, config: ExperimentConfig, model: Optional[Entry] = None
) -> Entry:
    """The entry of :func:`run_scheme_on_kernel`'s run.  A Poise run names
    its model by the model's entry, ``config``'s own when ``model`` is
    ``None``; other schemes read no model."""
    if scheme.startswith("poise"):
        model = model or model_entry(config)
        return Entry(_run_on_model, (scheme, spec, config, model), spec, model)
    return Entry(run_scheme_on_kernel, (scheme, spec, config), spec)


def _run_on_model(scheme: str, spec: KernelSpec, config: ExperimentConfig, model: Entry) -> RunResult:
    return run_scheme_on_kernel(scheme, spec, config, model=model.read())


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


def plan_benchmark(
    scheme: str, benchmark_name: str, config: ExperimentConfig, model: Optional[Entry] = None
) -> List[Entry]:
    """The entries :func:`run_scheme_on_benchmark` reads: each kernel's GTO
    baseline and its ``scheme`` run."""
    entries = []
    for spec in config.limited_kernels(get_benchmark(benchmark_name)):
        entries.append(run_entry("gto", spec, config))
        if scheme != "gto":
            entries.append(run_entry(scheme, spec, config, model))
    return entries


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

    return _cached(
        _graph_key_payload(graph, config),
        config,
        functools.partial(_simulate_graph, graph, config),
    )


def _simulate_graph(graph, config: ExperimentConfig):
    budget = config.run_max_cycles * max(1, len(graph.nodes))
    with phase("simulate"):
        return GPU(config.gpu).run_graph(graph, max_cycles=budget)


def _single_sm(config: ExperimentConfig) -> ExperimentConfig:
    """``config`` on one SM: where a graph's nodes run alone for reference."""
    return config if config.gpu.num_sms == 1 else config.with_gpu(replace(config.gpu, num_sms=1))


def plan_mix(benchmark_name: str, config: ExperimentConfig, mix: str) -> List[Entry]:
    """The entries :func:`run_mix_on_benchmark` reads: the graph run and
    each node's single-SM GTO reference."""
    graph = mix_graph_for_benchmark(benchmark_name, config, mix)
    reference = [run_entry("gto", node, _single_sm(config)) for node in graph.nodes]
    return [Entry(run_graph_for_config, (graph, config), graph)] + reference


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
    reference_config = _single_sm(config)
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


def plan_schemes(
    schemes: Sequence[str], config: ExperimentConfig, benchmarks: Optional[Sequence[str]] = None
) -> List[Entry]:
    """The entries :func:`evaluate_schemes` reads."""
    if benchmarks is None:
        benchmarks = evaluation_benchmark_names()
    return [
        entry for scheme in schemes for name in benchmarks
        for entry in plan_benchmark(scheme, name, config)
    ]


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
        benchmarks = evaluation_benchmark_names()
    if model is None and any(s.startswith("poise") for s in schemes):
        model = train_or_load_model(config)
    return {
        scheme: {name: run_scheme_on_benchmark(scheme, name, config, model) for name in benchmarks}
        for scheme in schemes
    }


def evaluation_benchmark_names() -> List[str]:
    return [benchmark.name for benchmark in evaluation_benchmarks()]


def compute_benchmark_names() -> List[str]:
    return [benchmark.name for benchmark in compute_intensive_benchmarks()]


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def preset_config(label: str) -> ExperimentConfig:
    """Resolve a preset name (``fast``/``full``) to a configuration."""
    label = label.lower()
    if label == "fast":
        return ExperimentConfig.fast()
    if label == "full":
        return ExperimentConfig.full()
    raise ValueError(f"unknown configuration preset {label!r} (expected 'fast' or 'full')")
