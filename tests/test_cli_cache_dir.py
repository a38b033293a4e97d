"""``--cache-dir`` reaches the command it is given to and nothing else.

Each command runs in this process with ``REPRO_CACHE_DIR`` naming one
directory and ``--cache-dir`` another: everything lands under the flag's
directory, nothing under the environment's, and the environment variable
still names its own directory afterwards, so an in-process caller keeps
its default.
"""

from __future__ import annotations

import os

import pytest

from repro.cli.main import main as repro_main
from repro.experiments.common import clear_caches

COMMANDS = {
    "run": ["run", "table04", "--fast"],
    "sweep-run": ["sweep", "run", "smoke", "--fast", "--shard", "1/8"],
    "trace-replay": ["trace", "replay", "gather", "--schemes", "gto", "--fast"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_cache_dir_flag_is_not_exported(tmp_path, monkeypatch, capsys, argv):
    env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
    env_dir.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(env_dir))
    clear_caches()  # so the command computes, and stores, its own results
    assert repro_main([*argv, "--cache-dir", str(flag_dir)]) == 0
    capsys.readouterr()
    assert os.environ["REPRO_CACHE_DIR"] == str(env_dir)
    assert list(env_dir.iterdir()) == []
    assert any(path.is_file() for path in flag_dir.rglob("*"))
