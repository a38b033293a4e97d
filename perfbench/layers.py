"""The layer table: which public functions of ``repro`` the traced run
wraps, and how their spans and counts become the per-layer metrics.

Every span is named ``<layer>.<what>`` after the ``repro`` sub-package that
owns the code, except Poise's controller, which is charged to
``schedulers`` with the other controllers (the controller-window layer).
The simulated statistics (``gpu.ipc`` …) are counter deltas read around
each SM-level ``run_cycles``/``run_to_completion`` call, plus the aggregate
counters of each ``GPU.run_graph``, which is one opaque span: the SM calls
inside it are not recorded one by one.
"""

from __future__ import annotations

import importlib
import operator
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from spans import (
    Tracer,
    calls_by_name,
    counted,
    replace_function,
    replace_method,
    time_by_name,
    traced,
)

#: Plain functions: (span name, module, attribute).
FUNCTIONS = (
    ("workloads.generate", "repro.workloads.generator", "generate_kernel_programs"),
    ("trace.family", "repro.trace.families", "generate_family_programs"),
    ("trace.decode", "repro.trace.codec", "read_trace_programs_with_hash"),
    ("trace.encode", "repro.trace.codec", "write_trace"),
    ("profiling.pbest", "repro.profiling.profiler", "measure_pbest"),
    ("experiments.train_or_load_model", "repro.experiments.common", "train_or_load_model"),
    ("experiments.run_scheme_on_kernel", "repro.experiments.common", "run_scheme_on_kernel"),
    ("experiments.run_graph_for_config", "repro.experiments.common", "run_graph_for_config"),
    ("scenarios.point", "repro.scenarios.runner", "evaluate_point"),
    ("scenarios.aggregate", "repro.scenarios.report", "aggregate"),
)

#: Methods: (span name, module, class, method).
METHODS = (
    ("gpu.run_kernel", "repro.gpu.gpu", "GPU", "run_kernel"),
    ("gpu.build_sm", "repro.gpu.gpu", "GPU", "build_sm"),
    ("gpu.chip", "repro.gpu.chip", "Chip", "run_cycles"),
    ("gpu.chip", "repro.gpu.chip", "Chip", "run_to_completion"),
    ("core.train", "repro.core.training", "TrainingPipeline", "train"),
    ("profiling.profile", "repro.profiling.profiler", "KernelProfiler", "profile"),
    ("experiments.run", "repro.experiments.registry", "Experiment", "run"),
    ("scenarios.run_report", "repro.scenarios.runner", "SweepRunner", "run_report"),
)

#: Controller classes whose ``execute`` is a ``schedulers.controller`` span.
CONTROLLER_MODULES = ("repro.schedulers", "repro.core.poise")

#: Simulated counters summed over every traced SM-level call.
SIM_FIELDS = (
    "cycles",
    "instructions",
    "mshr_stall_cycles",
    "l1_accesses",
    "l1_hits",
    "l2_accesses",
    "l2_hits",
    "dram_accesses",
)
_read_sim = operator.attrgetter(*SIM_FIELDS)

#: Every per-layer metric the traced run reports, in report order.
PER_LAYER_METRICS = (
    "workloads.generate_s",
    "workloads.generate_calls",
    "workloads.program_cache_hit_ratio",
    "trace.family_s",
    "trace.family_calls",
    "trace.decode_s",
    "trace.decode_calls",
    "trace.encode_s",
    "gpu.loop_s",
    "gpu.sim_cycles",
    "gpu.sim_cycles_per_s",
    "gpu.mshr_stall_frac",
    "gpu.ipc",
    "gpu.l1_hit_rate",
    "gpu.l2_hit_rate",
    "gpu.dram_accesses",
    "gpu.chip_makespan_cycles",
    "core.train_s",
    "core.poise_epochs",
    "core.poise_cutoff_epochs",
    "core.poise_search_samples",
    "schedulers.controller_s",
    "profiling.profile_s",
    "profiling.grid_points",
    "profiling.pbest_s",
    "profiling.pbest_calls",
    "experiments.self_s",
    "runtime.cache_load_s",
    "runtime.cache_store_s",
    "runtime.cache_hits",
    "runtime.cache_misses",
    "runtime.cache_stores",
    "runtime.cache_store_failures",
    "runtime.executor_attempts",
    "runtime.executor_retries",
    "runtime.executor_timeouts",
    "scenarios.self_s",
    "scenarios.points_computed",
    "other_s",
    "tracing.overhead_s",
)


def _add_sim(tracer: Tracer, before: Sequence[int], after: Sequence[int]) -> None:
    for field, old, new in zip(SIM_FIELDS, before, after):
        tracer.count(f"gpu.{field}", new - old)


def _sm_cycles(tracer: Tracer, fn: Callable) -> Callable:
    """Span + simulated-counter delta around one SM-level cycle call."""

    def wrapper(sm, *args, **kwargs):
        if tracer.opaque or not tracer.active:
            return fn(sm, *args, **kwargs)
        before = _read_sim(sm.counters)
        index = tracer.open("gpu.cycles")
        try:
            return fn(sm, *args, **kwargs)
        finally:
            tracer.close(index)
            _add_sim(tracer, before, _read_sim(sm.counters))

    return wrapper


def install(tracer: Tracer) -> List[str]:
    """Install every wrapper; returns the targets that were not found."""
    import repro.gpu.chip as chip
    import repro.gpu.engine as engine

    missing: List[str] = []

    def need(found: bool, target: str) -> None:
        if not found:
            missing.append(target)

    for name, module, attr in FUNCTIONS:
        need(
            replace_function(module, attr, lambda fn, n=name: traced(tracer, n, fn)),
            f"{module}.{attr}",
        )
    for name, module, cls, attr in METHODS:
        need(
            replace_method(module, cls, attr, lambda fn, n=name: traced(tracer, n, fn)),
            f"{module}.{cls}.{attr}",
        )

    def graph_after(args, result) -> None:
        _add_sim(tracer, (0,) * len(SIM_FIELDS), _read_sim(result.aggregate))
        tracer.count("gpu.chip_makespan_cycles", result.makespan)

    need(
        replace_method(
            "repro.gpu.gpu", "GPU", "run_graph",
            lambda fn: traced(tracer, "gpu.run_graph", fn, graph_after, opaque=True),
        ),
        "repro.gpu.gpu.GPU.run_graph",
    )
    core_class = chip.core_class_for_engine(engine.resolve_engine())
    for attr in ("run_cycles", "run_to_completion"):
        need(
            replace_method(core_class.__module__, core_class.__name__, attr,
                           lambda fn: _sm_cycles(tracer, fn)),
            f"{core_class.__name__}.{attr}",
        )

    controllers = set()
    for module_name in CONTROLLER_MODULES:
        for cls in vars(importlib.import_module(module_name)).values():
            if isinstance(cls, type) and cls not in controllers and replace_method(
                cls.__module__, cls.__name__, "execute",
                lambda fn: traced(tracer, "schedulers.controller", fn),
            ):
                controllers.add(cls)
    need(bool(controllers), "controller execute methods")

    def cache_get(args, result) -> None:
        tracer.count("workloads.program_cache_hits" if result is not None
                     else "workloads.program_cache_misses")

    def load_after(args, result) -> None:
        tracer.count("runtime.cache_hits" if result is not None else "runtime.cache_misses")

    def store_after(args, result) -> None:
        tracer.count("runtime.cache_stores" if result is not None
                     else "runtime.cache_store_failures")

    def epoch_after(args, record) -> None:
        tracer.count("core.poise_epochs")
        tracer.count("core.poise_cutoff_epochs", int(bool(record.compute_intensive)))
        tracer.count("core.poise_search_samples", record.search_samples)

    def grid_point(args, result) -> None:
        tracer.count("profiling.grid_points")

    need(replace_method("repro.workloads.generator", "BoundedProgramCache", "get",
                        lambda fn: counted(tracer, fn, cache_get)), "BoundedProgramCache.get")
    need(replace_method("repro.runtime.cache", "DiskCache", "load",
                        lambda fn: traced(tracer, "runtime.cache_load", fn, load_after)),
         "DiskCache.load")
    need(replace_method("repro.runtime.cache", "DiskCache", "store",
                        lambda fn: traced(tracer, "runtime.cache_store", fn, store_after)),
         "DiskCache.store")
    need(replace_method("repro.core.inference", "HardwareInferenceEngine", "run_epoch",
                        lambda fn: counted(tracer, fn, epoch_after)),
         "HardwareInferenceEngine.run_epoch")
    need(replace_method("repro.profiling.profiler", "KernelProfiler", "measure_point",
                        lambda fn: counted(tracer, fn, grid_point)),
         "KernelProfiler.measure_point")
    return missing


def layer_metrics(
    spans: Sequence, counts: Mapping[str, float], extras: Optional[Mapping[str, float]] = None
) -> Dict[str, float]:
    """Fold spans and counts into :data:`PER_LAYER_METRICS`.

    ``extras`` supplies what the spans cannot: the executor counts (from a
    ``JobReport``) and ``tracing.overhead_s`` (traced minus untraced wall).
    Root spans are the benchmark's own phases (``bench.*``); their self
    time is the time no layer span covers, reported as ``other_s``.
    """
    own = time_by_name(spans)
    calls = calls_by_name(spans)

    def layer(prefix: str) -> float:
        return sum(value for name, value in own.items() if name.startswith(prefix + "."))

    def count(name: str) -> float:
        return counts.get(name, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    cycles = count("gpu.cycles")
    loop_s = layer("gpu")
    hits, misses = count("workloads.program_cache_hits"), count("workloads.program_cache_misses")
    metrics = {
        "workloads.generate_s": own.get("workloads.generate", 0.0),
        "workloads.generate_calls": calls.get("workloads.generate", 0),
        "workloads.program_cache_hit_ratio": ratio(hits, hits + misses),
        "trace.family_s": own.get("trace.family", 0.0),
        "trace.family_calls": calls.get("trace.family", 0),
        "trace.decode_s": own.get("trace.decode", 0.0),
        "trace.decode_calls": calls.get("trace.decode", 0),
        "trace.encode_s": own.get("trace.encode", 0.0),
        "gpu.loop_s": loop_s,
        "gpu.sim_cycles": cycles,
        "gpu.sim_cycles_per_s": ratio(cycles, loop_s),
        "gpu.mshr_stall_frac": ratio(count("gpu.mshr_stall_cycles"), cycles),
        "gpu.ipc": ratio(count("gpu.instructions"), cycles),
        "gpu.l1_hit_rate": ratio(count("gpu.l1_hits"), count("gpu.l1_accesses")),
        "gpu.l2_hit_rate": ratio(count("gpu.l2_hits"), count("gpu.l2_accesses")),
        "gpu.dram_accesses": count("gpu.dram_accesses"),
        "gpu.chip_makespan_cycles": count("gpu.chip_makespan_cycles"),
        "core.train_s": own.get("core.train", 0.0),
        "core.poise_epochs": count("core.poise_epochs"),
        "core.poise_cutoff_epochs": count("core.poise_cutoff_epochs"),
        "core.poise_search_samples": count("core.poise_search_samples"),
        "schedulers.controller_s": layer("schedulers"),
        "profiling.profile_s": own.get("profiling.profile", 0.0),
        "profiling.grid_points": count("profiling.grid_points"),
        "profiling.pbest_s": own.get("profiling.pbest", 0.0),
        "profiling.pbest_calls": calls.get("profiling.pbest", 0),
        "experiments.self_s": layer("experiments"),
        "runtime.cache_load_s": own.get("runtime.cache_load", 0.0),
        "runtime.cache_store_s": own.get("runtime.cache_store", 0.0),
        "runtime.cache_hits": count("runtime.cache_hits"),
        "runtime.cache_misses": count("runtime.cache_misses"),
        "runtime.cache_stores": count("runtime.cache_stores"),
        "runtime.cache_store_failures": count("runtime.cache_store_failures"),
        "scenarios.self_s": layer("scenarios"),
        "scenarios.points_computed": calls.get("scenarios.point", 0),
        "other_s": layer("bench"),
    }
    metrics.update(extras or {})
    missing = [name for name in PER_LAYER_METRICS if name not in metrics]
    if missing:
        raise ValueError(f"per-layer metrics not computed: {', '.join(missing)}")
    return {name: metrics[name] for name in PER_LAYER_METRICS}
