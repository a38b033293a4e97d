"""The benchmark command.

    python3 perfbench/run.py --workload paper|sweep|chip-graph|all \\
        --seed N --seconds S --trace 0|1

Runs one workload of the reproduction from the root of a source checkout
and prints every metric by name and unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every output check passed, 1 when one failed, 2 when
the checkout holds no ``src/repro`` to measure, and 3 when a pass crashed
or ran out of time (nothing is printed as a result then).

Each pass runs in a fresh process (``worker.py``) with a fresh cache dir
under ``.perfbench/`` in the checkout, an environment cleared of every
``REPRO_*`` variable, and bytecode compiled beforehand:

* ``--trace 0`` measures the end-to-end metrics: the setup and first timed
  call in one process (``setup_s``, ``wall_s``), then more cold passes in
  fresh processes while the cold time is under ``--seconds`` (``wall_s`` is
  their median).
* ``--trace 1`` measures the per-layer metrics: the setup, a cold timed
  call and the warm re-run against the cache it filled, each in its own
  process with the layer wrappers installed, plus an untraced cold call
  made the same way, for ``tracing.overhead_s``.  The warm re-run must
  reproduce the cold results; its time is printed, not gated.  The sweep
  runs with ``jobs=1`` there so every span lands in one process.

``--seed`` sets the chip-graph kernel variants; ``paper`` and ``sweep`` run
the registered suites, whose seeds are part of the reproduction.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper", "sweep", "chip-graph")
#: Wall-clock allowance per workload, inside the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A pass failed to produce a result (crash, timeout, bad checkout)."""


def clean_env() -> Dict[str, str]:
    """The host environment minus every ``REPRO_*`` knob (a leftover chaos
    spec, engine pin or job count would change what runs), importing the
    checkout's own sources."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def compile_bytecode(env: Dict[str, str]) -> None:
    """Compile once up front so no timed pass pays for compilation."""
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise BenchError(f"compileall failed: {done.stderr.strip()}")


class Runner:
    """Spawns the passes of one workload run and collects their results."""

    def __init__(self, name: str, seed: int, env: Dict[str, str], deadline: float) -> None:
        self.name = name
        self.seed = seed
        self.env = env
        self.deadline = deadline
        self.work = WORK / f"{name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.count = 0

    def cache(self, label: str, seed_from: Optional[Path] = None) -> Path:
        """A fresh cache dir, holding the setup's trained model when
        ``seed_from`` names the cache dir the setup filled."""
        path = self.work / label
        path.mkdir()
        for model in sorted(seed_from.glob("model-*.json")) if seed_from else ():
            shutil.copy2(model, path / model.name)
        return path

    def run(self, kind: str, cache_dir: Path, trace: bool = False, serial: bool = False,
            state: Optional[dict] = None) -> dict:
        self.count += 1
        stem = self.work / f"pass{self.count}-{kind}"
        spec = {
            "workload": self.name,
            "kind": kind,
            "trace": trace,
            "seed": self.seed,
            "serial": serial,
            "state": state or {},
            "cache_dir": str(cache_dir),
            "trace_dir": str(self.work / "traces"),
            "result": str(stem) + "-result.json",
            "spans": str(stem) + "-spans.json",
        }
        spec_path = Path(str(stem) + "-spec.json")
        spec_path.write_text(json.dumps(spec))
        env = dict(self.env, REPRO_CACHE_DIR=str(cache_dir))
        log_path = Path(str(stem) + ".log")
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            process = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(spawned)],
                env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{self.name} {kind} pass exceeded the time limit") from None
            finally:
                _kill_group(process)
        result_path = Path(spec["result"])
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        if process.returncode != 0 or "error" in result or not result:
            tail = log_path.read_text()[-3000:]
            raise BenchError(
                f"{self.name} {kind} pass failed (exit {process.returncode})\n"
                f"{result.get('error', '')}{tail}"
            )
        if trace:
            result["trace"] = json.loads(Path(spec["spans"]).read_text())
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _kill_group(process: subprocess.Popen) -> None:
    """Stop the pass and anything it left running (pool workers included)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


def measure(runner: Runner, seconds: float) -> tuple:
    """``--trace 0``: the end-to-end metrics and every pass made."""
    first_cache = runner.cache("cache0")
    first = runner.run("setup+cold", first_cache)
    passes = [first]
    cold = list(first["timed_s"])
    while sum(cold) < seconds:
        extra = runner.run("cold", runner.cache(f"cache{len(passes)}", first_cache),
                           state=first["state"])
        passes.append(extra)
        cold += extra["timed_s"]
    metrics = {
        "wall_s": (statistics.median(cold), len(cold)),
        "setup_s": (first["setup_s"], 1),
        "peak_rss_mb": (max(result["peak_rss_mb"] for result in passes), len(passes)),
    }
    return metrics, passes


def measure_layers(runner: Runner) -> tuple:
    """``--trace 1``: the per-layer metrics and every pass made."""
    import layers

    setup_cache = runner.cache("setup")
    setup = runner.run("setup", setup_cache, trace=True, serial=True)
    state = setup["state"]
    traced_cache = runner.cache("traced", setup_cache)
    traced = runner.run("cold", traced_cache, trace=True, serial=True, state=state)
    warm = runner.run("warm", traced_cache, trace=True, serial=True, state=state)
    reference = runner.run("cold", runner.cache("reference", setup_cache), serial=True,
                           state=state)
    spans: List[list] = []
    counts: Dict[str, float] = {}
    for result in (setup, traced, warm):
        offset = len(spans)
        spans += [[name, start, end, parent + offset if parent >= 0 else -1]
                  for name, start, end, parent in result["trace"]["spans"]]
        for key, value in result["trace"]["counts"].items():
            counts[key] = counts.get(key, 0) + value
    executor = reference["outcomes"][0]["info"].get("executor", {})
    extras = {
        "runtime.executor_attempts": executor.get("attempts", 0),
        "runtime.executor_retries": executor.get("retries", 0),
        "runtime.executor_timeouts": executor.get("timeouts", 0),
        "tracing.overhead_s": traced["timed_s"][0] - reference["timed_s"][0],
    }
    values = layers.layer_metrics(spans, counts, extras)
    missing = sorted(set(setup["missing_targets"]))
    if missing:
        print(f"warning: trace targets not found: {', '.join(missing)}", file=sys.stderr)
    metrics = {name: (value, 1) for name, value in values.items()}
    return metrics, [traced, warm, reference]


def verdict(passes: List[dict]) -> tuple:
    """(attempted, failures): every check of every pass, plus the rule that
    all passes of one run produce the same simulated results."""
    attempted = 0
    failures: List[str] = []
    digests = set()
    for result in passes:
        for outcome in result["outcomes"]:
            attempted += outcome["operations"]
            failures += outcome["failures"]
            digests.add(outcome["digest"])
    if len(digests) != 1:
        failures.append(f"simulated results differ between passes ({len(digests)} digests)")
    return attempted, failures, sorted(digests)


def report(name: str, seed: int, trace: bool, metrics: Dict[str, tuple],
           passes: List[dict], declared: Dict[str, dict]) -> dict:
    attempted, failures, digests = verdict(passes)
    failed = min(attempted, len(failures))
    print(f"== {name} ({'per-layer, traced' if trace else 'end to end'})")
    if name == "chip-graph":
        print(f"seed {seed}: sets the chip-graph kernel variants")
    else:
        print(f"seed {seed}: not used; {name} runs the registered suites")
    for metric, (value, samples) in metrics.items():
        unit = declared[metric]["unit"]
        better = declared[metric]["better"]
        print(f"  {metric:<36} {value:>16.6g} {unit:<12} {better} is better, n={samples}")
    fidelity = passes[0]["outcomes"][0]["info"].get("fidelity", ())
    if fidelity:
        print("  fidelity (simulated; the model is unvalidated beyond the paper's values):")
    for entry in fidelity:
        value, paper = entry["value"], entry["paper"]
        shown = f"{value:.4f}" if value is not None else "missing"
        error = f"{(value - paper) / paper:+.1%}" if value is not None else "n/a"
        print(f"    {entry['name']:<22} {shown:>8} ratio ({entry['better']} is better; "
              f"paper {paper}, relative error {error})")
    warm = [result["timed_s"] for result in passes if result["kind"] == "warm"]
    if warm:
        print(f"  warm re-run (fresh process, filled cache, traced; printed, not gated): "
              f"{warm[0][0]:.6g} s")
    print(f"  digest of simulated results: {', '.join(digests)}")
    print(f"  checks: {attempted} operations, {len(failures)} failed check(s)")
    for failure in failures:
        print(f"    FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": declared[metric]["unit"]}
            for metric, (value, _) in metrics.items()
        },
    }


def save(name: str, trace: bool, summary: dict, passes: List[dict]) -> None:
    """Keep the last run's results and spans for inspection."""
    last = WORK / "last"
    last.mkdir(parents=True, exist_ok=True)
    kind = "trace" if trace else "run"
    spans = [result.pop("trace") for result in passes if "trace" in result]
    (last / f"{name}-{kind}.json").write_text(json.dumps({"summary": summary, "passes": passes}))
    if spans:
        (last / f"{name}-spans.json").write_text(json.dumps(spans))


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum cold-pass time to measure (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    # Unwind through the pass's ``finally``, which kills its process group.
    sys.exit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    declared_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        metric["name"]: metric
        for metric in declared_doc["end_to_end"] + declared_doc["per_layer"]
    }
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    env = clean_env()
    correct = True
    try:
        compile_bytecode(env)
        for name in names:
            runner = Runner(name, args.seed, env, time.monotonic() + DEADLINE_S)
            try:
                if args.trace:
                    metrics, passes = measure_layers(runner)
                else:
                    metrics, passes = measure(runner, args.seconds)
            finally:
                runner.close()
            summary = report(name, args.seed, bool(args.trace), metrics, passes, declared)
            save(name, bool(args.trace), summary, passes)
            correct = correct and summary["correct"]
            print(json.dumps(summary), flush=True)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
