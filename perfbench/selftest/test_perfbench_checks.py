"""The benchmark's output checks fail on damaged or incomplete outputs."""

import dataclasses
import json
import types

import pytest

import run
import workloads
from repro.cli import runner
from repro.experiments import registry
from repro.experiments.common import clear_caches, run_graph_for_config
from repro.runtime.executor import JobReport
from repro.trace.codec import TraceFormatError
from repro.workloads.graph import shaped_graph
from repro.workloads.spec import KernelSpec


def schema_artifact(experiment_id):
    """The smallest payload the experiment's ArtifactSchema accepts."""
    schema = registry.get(experiment_id).schema
    titles = list(schema.required_tables) or ["table"]
    titles += ["extra"] * max(0, schema.min_tables - len(titles))
    return {
        "experiment_id": experiment_id,
        "tables": [{"title": title, "columns": ["a"], "rows": [[1.0]]} for title in titles],
        "scalars": {name: 1.0 for name in schema.required_scalars},
    }


@pytest.fixture
def paper_cache(tmp_path):
    for experiment_id in workloads.PAPER_EXPERIMENTS:
        runner.write_artifact(schema_artifact(experiment_id), tmp_path, "fast")
    return tmp_path


def test_paper_check_accepts_schema_valid_artifacts(paper_cache):
    outcome = workloads.check_paper(paper_cache, 0)
    assert outcome.failures == []
    assert outcome.operations == len(workloads.PAPER_EXPERIMENTS)
    assert [entry["value"] for entry in outcome.info["fidelity"]] == [1.0, 1.0, 1.0]


def test_paper_check_fails_on_tampered_artifact(paper_cache):
    path = runner.artifact_path(paper_cache, "fast", "fig14")
    payload = json.loads(path.read_text())
    del payload["scalars"]["mean_energy_ratio"]
    path.write_text(json.dumps(payload))
    runner.artifact_path(paper_cache, "fast", "fig09").unlink()
    failures = workloads.check_paper(paper_cache, 0).failures
    assert any(f.startswith("fig14:") and "mean_energy_ratio" in f for f in failures)
    assert "fig09: no artifact" in failures


def test_paper_check_fails_on_cli_error(paper_cache):
    assert workloads.check_paper(paper_cache, 1).failures == ["repro run exited with 1"]


def test_sweep_check_fails_on_unclean_or_incomplete_run(tmp_path):
    grid_size = workloads.sweep_grid().size
    retried = JobReport(jobs=grid_size, attempts=grid_size + 1, retries=1, timeouts=0,
                        transient_errors=1, salvaged=0, escalated=0, pool_restarts=0,
                        injected=0)
    report = types.SimpleNamespace(computed=grid_size - 1, job_report=retried)
    failures = workloads.check_sweep(tmp_path, report).failures
    assert f"{grid_size - 1} of {grid_size} points computed" in failures
    assert any(f.startswith("job report not clean") for f in failures)
    # No point artifacts on disk: the aggregated report cannot be built.
    assert any(f.startswith("sweep report:") for f in failures)


def tiny_specs():
    return [
        KernelSpec(name=f"tiny{index}", num_warps=2, instructions_per_warp=60, seed=index)
        for index in range(3)
    ]


def tiny_graphs(trace_dir):
    specs = tiny_specs()
    hashes = workloads.write_traces(specs, trace_dir)
    return (
        shaped_graph(specs, workloads.CHIP_SHAPE, name="tiny"),
        shaped_graph(workloads.replay_specs(specs, trace_dir, hashes), workloads.CHIP_SHAPE,
                     name="tiny"),
    )


def test_chip_check_accepts_a_faithful_replay(tmp_path):
    clear_caches()
    config = workloads.chip_config(tmp_path / "cache")
    results = [run_graph_for_config(graph, config) for graph in tiny_graphs(tmp_path / "t")]
    outcome = workloads.check_chip(results, expected_nodes=3)
    assert outcome.failures == []
    assert outcome.digest == workloads.digest_of(workloads.graph_summary(results[1]))


def test_chip_check_fails_on_incomplete_node(tmp_path):
    clear_caches()
    config = workloads.chip_config(tmp_path / "cache")
    starved = dataclasses.replace(config, run_max_cycles=40)
    results = [run_graph_for_config(graph, starved) for graph in tiny_graphs(tmp_path / "t")]
    failures = workloads.check_chip(results, expected_nodes=3).failures
    assert any("did not complete" in failure for failure in failures)


def test_chip_check_fails_when_replay_differs(tmp_path):
    clear_caches()
    config = workloads.chip_config(tmp_path / "cache")
    graphs = tiny_graphs(tmp_path / "t")
    synthetic, replay = (run_graph_for_config(graph, config) for graph in graphs)
    replay.makespan += 1
    failures = workloads.check_chip([synthetic, replay], expected_nodes=3).failures
    assert failures == ["replay differs from the synthetic run"]


def test_swapped_trace_file_is_refused(tmp_path):
    clear_caches()
    synthetic, replay = tiny_graphs(tmp_path / "t")
    first, second = (tmp_path / "t" / f"{spec.name}.trc" for spec in synthetic.nodes[:2])
    first_bytes = first.read_bytes()
    first.write_bytes(second.read_bytes())
    second.write_bytes(first_bytes)
    with pytest.raises(TraceFormatError, match="does not match"):
        run_graph_for_config(replay, workloads.chip_config(tmp_path / "cache"))


def test_passes_must_agree_on_simulated_results():
    def pass_with(digest):
        return {"outcomes": [{"operations": 2, "failures": [], "digest": digest, "info": {}}]}

    assert run.verdict([pass_with("a"), pass_with("a")])[:2] == (4, [])
    attempted, failures, digests = run.verdict([pass_with("a"), pass_with("b")])
    assert attempted == 4 and len(failures) == 1 and digests == ["a", "b"]


def test_environment_drops_every_repro_knob(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "executor:crash@1")
    monkeypatch.setenv("REPRO_JOBS", "auto")
    env = run.clean_env()
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PYTHONPATH"] == str(run.ROOT / "src")


def test_refuses_a_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "paper"]) == 2
    assert capsys.readouterr().out == ""
