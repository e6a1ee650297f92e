"""In-process timing of ``run_rate_experiment`` on a benchmark workload's plan.

    python3 tools/time_rates.py [--workload rates_logistic] [--seed 0] [--repeats 10]
        [--replicates N] [--src DIR]

Run from the repository root. The plan is the one the ``rates`` command
builds from the workload's config in ``bench/workloads.py``, which this
script reads and does not change: the config is parsed and the population
built as the command line does, and one untimed ``rates`` command run records
the plan it passes to ``run_rate_experiment`` and warms the population's
caches. ``--replicates`` replaces the workload's replicate count, for a quick
run. ``--src`` times the ``scerm`` package of another source tree, such as an
export of an earlier revision, against the same workload definitions. BLAS
runs on one thread, as in a command-line run.

Each repeat times one ``run_rate_experiment(plan)`` call, in this process. The script
prints the median and quartiles of the repeats, in seconds, and as its last
line one JSON object with the same numbers and every repeat's time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(src: str):
    """The workload definitions and the scerm modules the timing needs,
    with scerm imported from ``src``."""
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "bench")]
    import workloads
    from scerm import cli, config, linalg, rates

    return workloads, cli, config, linalg, rates


def workload_plan(name: str, seed: int, replicates: int | None, modules):
    """The ExperimentPlan the ``rates`` command builds for the workload."""
    workloads, cli, config, _, _ = modules
    doc = workloads.make_config(name, seed)
    if replicates is not None:
        doc["rates"]["replicates"] = replicates
    cfg = config.parse_config(doc)
    pop = config.build_population(cfg["population"])
    plans, run = [], cli.run_rate_experiment

    def recorded(plan, jobs=1):
        plans.append(plan)
        return run(plan, jobs=jobs)

    cli.run_rate_experiment = recorded
    try:
        cli._cmd_rates(cfg, pop, 1)
    finally:
        cli.run_rate_experiment = run
    return plans[0]


def summary(times) -> dict:
    q1, _, q3 = quantiles(times, n=4) if len(times) > 1 else (times[0],) * 3
    return {"median_s": median(times), "q1_s": q1, "q3_s": q3, "times_s": list(times)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="rates_logistic")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--replicates", type=int, help="default: the workload's own")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree whose scerm package is timed (default: this one)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    modules = _load(args.src)
    workloads, _, _, linalg, rates = modules
    if "rates" not in workloads.WORKLOADS.get(args.workload, {}):
        parser.error(f"{args.workload!r} is not a rates workload of bench/workloads.py")
    linalg.single_thread_blas()
    plan = workload_plan(args.workload, args.seed, args.replicates, modules)
    times = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        rates.run_rate_experiment(plan)
        times.append(time.perf_counter() - start)
    out = {"workload": args.workload, "seed": args.seed, "replicates": plan.replicates,
           "cells": len(plan.n_grid) * plan.replicates,
           "src": os.path.abspath(args.src), **summary(times)}
    print(f"{args.workload} seed {args.seed}: median {out['median_s']:.4f} s, "
          f"quartiles {out['q1_s']:.4f}-{out['q3_s']:.4f} s over {args.repeats} runs")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
