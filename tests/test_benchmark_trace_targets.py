"""The benchmark's traced run finds every function and method it wraps.

``perfbench/layers.py`` wraps repro's functions and methods by module and
name.  A target that a refactor moves or renames only prints a warning in
a ``--trace 1`` run, and that layer's spans silently disappear.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_trace_target_resolves():
    # In a subprocess: install() patches repro functions in every loaded module.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", "import layers, spans; print(layers.install(spans.Tracer()))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"
