"""The unified command-line interface (``python -m repro`` / ``repro``).

:mod:`repro.cli.main` builds the one argparse tree of every subcommand:

* ``list`` — catalogue of every registered experiment,
* ``run`` / ``run-all`` — execute experiments and emit JSON artifacts,
* ``report`` — summarise previously emitted artifacts,
* ``bench`` — simulator throughput microbenchmarks (BENCH_throughput.json),
* ``pretrain`` — offline training of the Poise regression model,
* ``trace`` — capture, replay and inspect address traces,
* ``sweep`` — declarative scenario-grid sweeps (run, plan, report, list),
* ``analyze`` — the bench history's trajectories and regression verdicts,
* ``cache`` — cache-root maintenance (gc).

``list``, ``run``, ``run-all`` and ``report`` are handled in
:mod:`repro.cli.main`; each other subcommand is the ``run(args)`` of its
module (``bench``, ``pretrain``, ``trace``, ``sweep``, ``analyze``,
``cache_cli``), imported only when that subcommand runs.
"""

from repro.cli.main import main

__all__ = ["main"]
