"""The one argparse tree of ``repro``.

Every subcommand and sub-subcommand answers ``--help`` with exit 0, and a
``repro run`` imports no other subcommand's handler module, nor the bench,
analysis and trace-codec layers only those handlers read.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import build_parser
from repro.cli.main import main as repro_main

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def command_paths(parser: argparse.ArgumentParser, prefix=()):
    """Every command path of the tree, ``()`` (bare ``repro``) included."""
    yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from command_paths(subparser, (*prefix, name))


COMMAND_PATHS = list(command_paths(build_parser()))


def test_the_tree_reaches_the_nested_subcommands():
    assert {("trace", "capture"), ("sweep", "run"), ("analyze", "ci"), ("cache", "gc")} <= set(
        COMMAND_PATHS
    )


@pytest.mark.parametrize("path", COMMAND_PATHS, ids=lambda path: " ".join(path) or "repro")
def test_every_command_answers_help(path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        repro_main([*path, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {' '.join(('repro', *path))}")


def test_analyze_defaults_are_the_analysis_layers():
    """The tree states analyze's defaults without importing the analysis
    layer; they must stay the values its functions default to."""
    from repro.obs.compare import DEFAULT_METRIC, DEFAULT_TOLERANCE
    from repro.obs.regress import DEFAULT_MIN_HISTORY, DEFAULT_THRESHOLD

    parser = build_parser()
    compare = parser.parse_args(["analyze", "compare", "smoke", "fast", "full"])
    assert (compare.metric, compare.tolerance) == (DEFAULT_METRIC, DEFAULT_TOLERANCE)
    for command in ("regress", "ci"):
        judged = parser.parse_args(["analyze", command])
        assert (judged.threshold, judged.min_history) == (DEFAULT_THRESHOLD, DEFAULT_MIN_HISTORY)


#: Modules only other subcommands' handlers import.
LAZY_MODULES = [
    *(f"repro.cli.{name}" for name in ("bench", "pretrain", "trace", "sweep", "analyze", "cache_cli")),
    *(f"repro.obs.{name}" for name in ("schema", "regress", "trajectory", "compare")),
    "repro.runtime.bench",
    "repro.trace.codec",
]


def test_run_imports_no_other_subcommands_modules(tmp_path):
    script = (
        "import json, sys\n"
        "from repro.cli.main import main\n"
        f"code = main(['run', 'table04', '--fast', '--cache-dir', {str(tmp_path)!r}])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC), REPRO_CACHE_DIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    code, modules = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert sorted(set(LAZY_MODULES) & set(modules)) == []
