"""One pass of a workload, in a fresh process.

Usage: ``python perfbench/worker.py <spec.json> <spawn_time>``, where
``spawn_time`` is the parent's ``time.monotonic()`` just before the spawn
(the clock is system-wide, so ``setup_s`` counts interpreter start and
imports).  The spec names the workload and the pass kind:

* ``setup+cold`` — the one-time setup, then the first timed call;
* ``setup`` — the one-time setup alone;
* ``cold`` — a timed call in a fresh process whose cache dir the parent
  seeded with the setup's products (``prepare`` rebuilds in-process state,
  untimed and untraced);
* ``warm`` — the timed call again, against the caches a cold pass filled.

With ``trace`` set, the layer wrappers are installed before anything else
runs and the spans are written to the spec's ``spans`` path at the end.
The pass's result (timings, checks, digests, peak RSS) goes to ``result``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_pass(spec: dict, spawn_time: float) -> dict:
    tracer = None
    missing = []
    if spec["trace"]:
        import layers
        from spans import Tracer

        tracer = Tracer()
        missing = layers.install(tracer)

    from workloads import SWEEP_JOBS, WORKLOADS, Context

    workload = WORKLOADS[spec["workload"]]
    ctx = Context(
        cache_dir=Path(spec["cache_dir"]),
        trace_dir=Path(spec["trace_dir"]),
        seed=spec["seed"],
        jobs=1 if spec["serial"] else SWEEP_JOBS,
        state=dict(spec.get("state") or {}),
    )

    def phase(name: str):
        return tracer.phase(name) if tracer is not None else contextlib.nullcontext()

    result = {"kind": spec["kind"], "missing_targets": missing, "timed_s": [], "outcomes": []}

    def timed(name: str) -> None:
        with phase(name):
            start = time.perf_counter()
            output = workload.run(ctx)
            result["timed_s"].append(time.perf_counter() - start)
        outcome = workload.check(ctx, output)
        result["outcomes"].append(
            {
                "operations": outcome.operations,
                "failures": outcome.failures,
                "digest": outcome.digest,
                "info": outcome.info,
            }
        )

    kind = spec["kind"]
    if kind in ("setup+cold", "setup"):
        with phase("setup"):
            ctx.state.update(workload.setup(ctx))
        result["setup_s"] = time.monotonic() - spawn_time
        result["state"] = ctx.state
        if kind == "setup+cold":
            timed("timed")
    elif kind == "cold":
        workload.prepare(ctx)
        timed("timed")
    elif kind == "warm":
        timed("warm")
    else:
        raise ValueError(f"unknown pass kind {kind!r}")
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.write(Path(spec["spans"]))
    return result


def main(argv) -> int:
    spec_path, spawn_time = Path(argv[1]), float(argv[2])
    spec = json.loads(spec_path.read_text())
    try:
        result = run_pass(spec, spawn_time)
        code = 0
    except Exception:  # reported to the parent, which fails the run
        result = {"error": traceback.format_exc()}
        code = 1
    Path(spec["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
