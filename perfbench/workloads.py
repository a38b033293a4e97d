"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload has a one-time ``setup`` (in the process that then makes the
first timed call), a ``prepare`` that rebuilds per-process state in a fresh
process without redoing the setup, the timed ``run`` — called again, in a
fresh process, for the warm re-run against the caches the first run filled
— and a ``check`` of the outputs.
``check`` returns an :class:`Outcome`: the operations it counted, the checks
that failed, and a digest of the simulated results.  The digest covers only
deterministic simulated statistics, so every pass of one commit — cold,
warm, traced, replayed — must produce the same digest.

* ``paper`` — ``repro run fig07 fig08 fig09 fig14 fig16 --fast``, cold.
* ``sweep`` — a 40-point scenario grid through ``SweepRunner.run_report``.
* ``chip-graph`` — a 6-kernel diamond DAG on a 4-SM chip, synthetic and
  replayed from POISETRC files written by the setup.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cli.main import main as repro_cli
import repro.experiments.common as common
import repro.trace.codec as codec
import repro.workloads.generator as generator
from repro.cli import runner
from repro.experiments import registry
from repro.scenarios.grid import ScenarioGrid
from repro.scenarios.report import SweepSchema, aggregate
from repro.scenarios.runner import SweepRunner
from repro.trace.adapter import TraceKernelSpec
from repro.workloads.graph import shaped_graph
from repro.workloads.registry import get_benchmark

#: The headline evaluation: Figs. 7, 8, 9 and 14 share one set of scheme
#: runs; Fig. 16 adds the compute-intensive suite.
PAPER_EXPERIMENTS = ("fig07", "fig08", "fig09", "fig14", "fig16")

#: Fidelity metrics: (name, experiment, scalar, paper value, better).
FIDELITY = (
    ("poise_speedup_hmean", "fig07", "hmean_poise", 1.466, "higher"),
    ("poise_energy_ratio", "fig14", "mean_energy_ratio", 0.484, "lower"),
    ("compute_poise_hmean", "fig16", "hmean_poise", 0.984, "higher"),
)

#: The sweep grid: the only workload on the process pool, trace families
#: and MSHR-full spans.  No ``engine`` axis, so the default engine runs.
SWEEP_AXES = {
    "scheme": ("gto", "ccws", "apcm", "poise"),
    "benchmark": ("gather", "stencil", "transpose", "mvt", "bfs"),
    "num_sms": (1, 2),
}
#: Pool width of the untraced sweep (the 2-core reference host's nproc).
SWEEP_JOBS = 2

#: The chip-graph kernels: one per evaluation benchmark, six in all, so the
#: generator's 6-entry program cache holds every one of them after setup.
CHIP_BENCHMARKS = ("syr2k", "mm", "ii", "mvt", "bfs", "kmeans")
CHIP_SHAPE = "diamond"
CHIP_SMS = 4
#: Per-node cycle budget; the pooled budget (×6) is ~4× the ~6.1M makespan,
#: so the graph runs to completion.
CHIP_CYCLES_PER_NODE = 4_000_000


@dataclass
class Outcome:
    """What one pass's output check found."""

    operations: int
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    info: Dict[str, Any] = field(default_factory=dict)


def digest_of(value: Any) -> str:
    """SHA-256 of a canonical JSON rendering (NaN spelled consistently)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fast_config(cache_dir: Path) -> common.ExperimentConfig:
    return replace(common.ExperimentConfig.fast(), cache_dir=Path(cache_dir))


def train_fast_model(cache_dir: Path) -> None:
    """Section V-C's one-time offline training, cached in ``cache_dir``."""
    common.train_or_load_model(fast_config(cache_dir))


# ---------------------------------------------------------------------------
# paper
# ---------------------------------------------------------------------------


class Paper:
    name = "paper"

    def setup(self, ctx: "Context") -> Dict[str, Any]:
        train_fast_model(ctx.cache_dir)
        return {}

    def prepare(self, ctx: "Context") -> None:
        pass

    def run(self, ctx: "Context") -> int:
        argv = ["run", *PAPER_EXPERIMENTS, "--fast", "--cache-dir", str(ctx.cache_dir)]
        return repro_cli(argv)

    def check(self, ctx: "Context", exit_code: int) -> Outcome:
        return check_paper(ctx.cache_dir, exit_code)


def check_paper(cache_dir: Path, exit_code: int) -> Outcome:
    """Every artifact exists and passes its experiment's ``ArtifactSchema``."""
    outcome = Outcome(operations=len(PAPER_EXPERIMENTS))
    if exit_code != 0:
        outcome.failures.append(f"repro run exited with {exit_code}")
    found = {
        payload["experiment_id"]: payload for payload in runner.load_artifacts(cache_dir, "fast")
    }
    simulated = {}
    for experiment_id in PAPER_EXPERIMENTS:
        payload = found.get(experiment_id)
        if payload is None:
            outcome.failures.append(f"{experiment_id}: no artifact")
            continue
        try:
            registry.get(experiment_id).validate_artifact(payload)
        except ValueError as error:
            outcome.failures.append(f"{experiment_id}: {error}")
        simulated[experiment_id] = {
            "scalars": payload.get("scalars"),
            "tables": payload.get("tables"),
        }
    outcome.digest = digest_of(simulated)
    outcome.info["fidelity"] = [
        {"name": name, "value": _scalar(found, experiment_id, scalar), "paper": paper,
         "better": better}
        for name, experiment_id, scalar, paper, better in FIDELITY
    ]
    return outcome


def _scalar(found: Dict[str, dict], experiment_id: str, scalar: str) -> Optional[float]:
    value = found.get(experiment_id, {}).get("scalars", {}).get(scalar)
    return float(value) if isinstance(value, (int, float)) and math.isfinite(value) else None


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_grid() -> ScenarioGrid:
    return ScenarioGrid(
        "perfbench-sweep", SWEEP_AXES,
        description="scheme x benchmark x num_sms grid of the performance benchmark",
    )


class Sweep:
    name = "sweep"

    def setup(self, ctx: "Context") -> Dict[str, Any]:
        train_fast_model(ctx.cache_dir)
        return {}

    def prepare(self, ctx: "Context") -> None:
        pass

    def run(self, ctx: "Context"):
        runner_ = SweepRunner(sweep_grid(), fast_config(ctx.cache_dir), cache_dir=ctx.cache_dir)
        return runner_.run_report(jobs=ctx.jobs)

    def check(self, ctx: "Context", report) -> Outcome:
        return check_sweep(ctx.cache_dir, report)


def check_sweep(cache_dir: Path, report) -> Outcome:
    """All points computed with a clean ``JobReport``; the aggregated sweep
    report passes ``SweepSchema``."""
    grid = sweep_grid()
    outcome = Outcome(operations=grid.size)
    if report.computed != grid.size:
        outcome.failures.append(f"{report.computed} of {grid.size} points computed")
    job_report = report.job_report
    if job_report is None or not job_report.clean:
        summary = job_report.summary() if job_report is not None else "no job report"
        outcome.failures.append(f"job report not clean: {summary}")
    if job_report is not None:
        outcome.info["executor"] = {
            "attempts": job_report.attempts,
            "retries": job_report.retries,
            "timeouts": job_report.timeouts,
        }
    try:
        payload = aggregate(grid, fast_config(cache_dir), cache_dir=cache_dir)
        SweepSchema().validate(payload)
    except ValueError as error:  # ScenarioError and schema violations alike
        outcome.failures.append(f"sweep report: {error}")
        return outcome
    outcome.digest = digest_of(
        {key: payload[key] for key in ("points", "sensitivity", "best_scheme")}
    )
    return outcome


# ---------------------------------------------------------------------------
# chip-graph
# ---------------------------------------------------------------------------


def chip_specs(seed: int) -> List:
    """Seed-derived variants of the six chip-graph kernels: same locality
    parameters, a different address stream per seed."""
    kernels = [get_benchmark(name).kernels[0] for name in CHIP_BENCHMARKS]
    return [kernel.variant(f"s{seed}", seed=kernel.seed + seed) for kernel in kernels]


def chip_config(cache_dir: Path) -> common.ExperimentConfig:
    fast = common.ExperimentConfig.fast()
    return replace(
        fast,
        gpu=replace(fast.gpu, num_sms=CHIP_SMS),
        run_max_cycles=CHIP_CYCLES_PER_NODE,
        cache_dir=Path(cache_dir),
    )


def write_traces(specs: Sequence, trace_dir: Path) -> Dict[str, str]:
    """Generate each kernel's programs (filling the program cache) and write
    them as a POISETRC file; returns the content hash per kernel."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for spec in specs:
        programs = generator.generate_kernel_programs(spec)
        path = trace_dir / f"{spec.name}{codec.TRACE_SUFFIX}"
        hashes[spec.name] = codec.write_trace(path, programs, meta={"kernel": spec.name})
    return hashes


def replay_specs(specs: Sequence, trace_dir: Path, hashes: Dict[str, str]) -> List:
    """File-backed twins of ``specs``, pinned to the writer's hashes so every
    decode verifies the file (as ``runtime/bench.py`` builds them)."""
    return [
        TraceKernelSpec(
            name=spec.name,
            num_warps=spec.num_warps,
            instructions_per_warp=spec.instructions_per_warp,
            intra_warp_fraction=0.0,
            inter_warp_fraction=0.0,
            source="file",
            trace_path=str(trace_dir / f"{spec.name}{codec.TRACE_SUFFIX}"),
            trace_hash=hashes[spec.name],
        )
        for spec in specs
    ]


def chip_graphs(seed: int, trace_dir: Path, hashes: Dict[str, str]) -> Tuple:
    specs = chip_specs(seed)
    return (
        shaped_graph(specs, CHIP_SHAPE, name="chip-graph"),
        shaped_graph(replay_specs(specs, trace_dir, hashes), CHIP_SHAPE, name="chip-graph"),
    )


class ChipGraph:
    name = "chip-graph"

    def setup(self, ctx: "Context") -> Dict[str, Any]:
        return {"trace_hashes": write_traces(chip_specs(ctx.seed), ctx.trace_dir)}

    def prepare(self, ctx: "Context") -> None:
        for spec in chip_specs(ctx.seed):
            generator.generate_kernel_programs(spec)

    def run(self, ctx: "Context"):
        graphs = chip_graphs(ctx.seed, ctx.trace_dir, ctx.state["trace_hashes"])
        config = chip_config(ctx.cache_dir)
        return [common.run_graph_for_config(graph, config) for graph in graphs]

    def check(self, ctx: "Context", results) -> Outcome:
        return check_chip(results)


def graph_summary(result) -> Dict[str, Any]:
    """The simulated statistics a replay must reproduce exactly."""
    return {
        "makespan": result.makespan,
        "schedule": [entry.as_dict() for entry in result.schedule],
        "aggregate": result.aggregate.as_dict(),
        "nodes": {
            name: node.counters.as_dict() for name, node in sorted(result.node_results.items())
        },
    }


def check_chip(results: Sequence, expected_nodes: int = len(CHIP_BENCHMARKS)) -> Outcome:
    """Every node completes, and the replay equals the synthetic run."""
    outcome = Outcome(operations=len(results))
    summaries = []
    for label, result in zip(("synthetic", "replay"), results):
        incomplete = sorted(
            name for name, node in result.node_results.items() if not node.completed
        )
        if not result.completed or incomplete or len(result.node_results) != expected_nodes:
            outcome.failures.append(
                f"{label} graph did not complete: {len(result.node_results)} of "
                f"{expected_nodes} nodes ran, incomplete: {incomplete or 'none'}"
            )
        summaries.append(graph_summary(result))
    if len(summaries) == 2 and summaries[0] != summaries[1]:
        outcome.failures.append("replay differs from the synthetic run")
    outcome.digest = digest_of(summaries[0]) if summaries else ""
    outcome.info["makespan"] = results[0].makespan if results else 0
    return outcome


# ---------------------------------------------------------------------------


@dataclass
class Context:
    """Where and how one pass runs."""

    cache_dir: Path
    trace_dir: Path
    seed: int
    jobs: int
    state: Dict[str, Any] = field(default_factory=dict)


WORKLOADS = {workload.name: workload for workload in (Paper(), Sweep(), ChipGraph())}
