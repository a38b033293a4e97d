"""The unified command-line interface (``python -m repro`` / ``repro``).

Subcommands:

* ``list`` — catalogue of every registered experiment,
* ``run`` / ``run-all`` — execute experiments and emit JSON artifacts,
* ``report`` — summarise previously emitted artifacts,
* ``bench`` — simulator throughput microbenchmarks (BENCH_throughput.json),
* ``pretrain`` — offline training of the Poise regression model,
* ``trace`` — capture, replay, generate and inspect address traces,
* ``sweep`` — declarative scenario-grid sweeps (run, plan, report, list),
* ``analyze`` — the bench history's trajectories and regression verdicts,
* ``cache`` — cache-root maintenance (gc).
"""

from repro.cli.main import main

__all__ = ["main"]
