"""JSON (de)serialisation of simulation results, and the pieces of content keys.

Per-kernel :class:`~repro.gpu.gpu.RunResult`\\ s, graph runs and
warp-tuple-grid :class:`~repro.profiling.profiler.StaticProfile`\\ s are
encoded here (trained models in :mod:`repro.core.model_store`), so the
:class:`~repro.runtime.cache.DiskCache` can hand them between the sweep
workers and across runs.  The payloads that key them are built in
:mod:`repro.experiments.common` from the spec, GPU and model pieces below.

Tuples matter here (warp-tuples, telemetry trails), so the encoding wraps
them in a ``{"__tuple__": [...]}`` marker and the decoder restores them —
a result that round-trips through the disk cache compares equal to the
freshly computed one.
"""

from __future__ import annotations

import dataclasses
import hashlib
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional

import repro
from repro.gpu.counters import PerfCounters
from repro.gpu.energy import EnergyReport
from repro.gpu.gpu import RunResult
from repro.profiling.profiler import StaticProfile
from repro.version import __version__
from repro.workloads.spec import KernelSpec

_TUPLE_MARK = "__tuple__"


def encode_value(obj: Any) -> Any:
    """Recursively convert a value to JSON-representable form, keeping tuples."""
    if isinstance(obj, tuple):
        return {_TUPLE_MARK: [encode_value(item) for item in obj]}
    if isinstance(obj, list):
        return [encode_value(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): encode_value(value) for key, value in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def decode_value(obj: Any) -> Any:
    """Reverse :func:`encode_value`."""
    if isinstance(obj, dict):
        if set(obj.keys()) == {_TUPLE_MARK}:
            return tuple(decode_value(item) for item in obj[_TUPLE_MARK])
        return {key: decode_value(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_value(item) for item in obj]
    return obj


# -- counters / energy / run results --------------------------------------------


def counters_to_dict(counters: PerfCounters) -> Dict[str, int]:
    return {f.name: getattr(counters, f.name) for f in dataclasses.fields(counters)}


def counters_from_dict(data: Dict[str, int]) -> PerfCounters:
    names = {f.name for f in dataclasses.fields(PerfCounters)}
    return PerfCounters(**{key: int(value) for key, value in data.items() if key in names})


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    return {
        "counters": counters_to_dict(result.counters),
        "cycles": result.cycles,
        "energy": dataclasses.asdict(result.energy),
        "warp_tuple": list(result.warp_tuple),
        "completed": result.completed,
        "telemetry": encode_value(result.telemetry),
    }


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    return RunResult(
        counters=counters_from_dict(data["counters"]),
        cycles=int(data["cycles"]),
        energy=EnergyReport(**{k: float(v) for k, v in data["energy"].items()}),
        warp_tuple=tuple(int(v) for v in data["warp_tuple"]),
        completed=bool(data["completed"]),
        telemetry=decode_value(data.get("telemetry") or {}),
    )


def graph_result_to_dict(result) -> Dict[str, Any]:
    """Serialize a :class:`~repro.gpu.gpu.GraphRunResult` for the disk cache."""
    return {
        "node_results": {
            name: run_result_to_dict(node) for name, node in result.node_results.items()
        },
        "schedule": [entry.as_dict() for entry in result.schedule],
        "makespan": result.makespan,
        "aggregate": counters_to_dict(result.aggregate),
        "completed": result.completed,
        "num_sms": result.num_sms,
    }


def graph_result_from_dict(data: Dict[str, Any]):
    from repro.gpu.gpu import GraphRunResult
    from repro.workloads.graph import ScheduledNode

    return GraphRunResult(
        node_results={
            name: run_result_from_dict(node)
            for name, node in data["node_results"].items()
        },
        schedule=tuple(
            ScheduledNode(
                name=entry["name"],
                sm_slot=int(entry["sm_slot"]),
                start_cycle=int(entry["start_cycle"]),
                end_cycle=int(entry["end_cycle"]),
                completed=bool(entry["completed"]),
            )
            for entry in data["schedule"]
        ),
        makespan=int(data["makespan"]),
        aggregate=counters_from_dict(data["aggregate"]),
        completed=bool(data["completed"]),
        num_sms=int(data["num_sms"]),
    )


# -- static profiles -------------------------------------------------------------


def profile_to_dict(profile: StaticProfile) -> Dict[str, Any]:
    return {
        "kernel": dataclasses.asdict(profile.kernel),
        "max_warps": profile.max_warps,
        "baseline_ipc": profile.baseline_ipc,
        "ipc": [[n, p, value] for (n, p), value in sorted(profile.ipc.items())],
        "baseline_counters": (
            counters_to_dict(profile.baseline_counters)
            if isinstance(profile.baseline_counters, PerfCounters)
            else None
        ),
    }


def kernel_spec_from_dict(data: Dict[str, Any]) -> KernelSpec:
    """Rebuild a kernel spec, restoring the trace subclass when present.

    Trace-backed kernels serialise with their extra fields (``source``,
    ``family``, ``trace_hash``, ``params``); JSON turns the ``params`` tuple
    pairs into lists, so they are re-tupled here — the round-tripped spec
    compares (and hashes) equal to the original.
    """
    if "source" in data:
        from repro.trace.adapter import TraceKernelSpec

        data = dict(data)
        data["params"] = tuple(
            (str(key), value) for key, value in (data.get("params") or ())
        )
        return TraceKernelSpec(**data)
    return KernelSpec(**data)


def profile_from_dict(data: Dict[str, Any]) -> StaticProfile:
    counters = data.get("baseline_counters")
    return StaticProfile(
        kernel=kernel_spec_from_dict(data["kernel"]),
        max_warps=int(data["max_warps"]),
        baseline_ipc=float(data["baseline_ipc"]),
        ipc={(int(n), int(p)): float(value) for n, p, value in data["ipc"]},
        baseline_counters=counters_from_dict(counters) if counters else None,
    )


# -- content-key payloads ---------------------------------------------------------


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the package's source files.

    Folded into the content key of every simulation result so it can never
    outlive the simulator code that produced it: editing any ``repro``
    module invalidates every cached profile and run, the same way a version
    bump would.  Trained models are keyed without it: a model outlives code
    edits, and the runs it drives are keyed by its weights.
    """
    try:
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
        return digest.hexdigest()[:16]
    except OSError:
        return f"version-{__version__}"


def spec_payload(spec: KernelSpec) -> Dict[str, Any]:
    """Content-key payload for a kernel spec.

    For trace-backed kernels whose content hash is pinned, the *location* of
    the trace file is excluded: ``trace_hash`` already pins what the kernel
    computes, so the same trace copied elsewhere hits the same cache entries
    while two different traces can never collide.  An unverified spec
    (``trace_hash == ""``, from ``trace_kernel_from_file(verify=False)``)
    keeps its path — a weaker key, but never one two different traces share.
    """
    payload = dataclasses.asdict(spec)
    if payload.get("trace_hash"):
        payload.pop("trace_path", None)
    return payload


def gpu_payload(gpu_config) -> Dict[str, Any]:
    return encode_value(dataclasses.asdict(gpu_config))


def model_digest(model) -> Optional[Dict[str, Any]]:
    """A compact content summary of a trained model (for run keys)."""
    if model is None:
        return None
    return {
        "alpha": [round(float(w), 12) for w in model.alpha_weights],
        "beta": [round(float(w), 12) for w in model.beta_weights],
        "max_warps": model.max_warps,
        "feature_mask": list(model.feature_mask or []),
    }
