"""Benchmark of the scerm command line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --all [--seed N] [--seconds S]

Run from the repository root. Each CLI run happens in a fresh child process
(``bench/child.py``) on a config generated from the seed; the benchmark
passes the program nothing but that config and the CLI flags. It removes
the BLAS thread and job variables from the child's environment and does not
pin threads, so the program's own thread policy is what gets measured.

A workload run makes one untimed warm-up CLI run, then repeats the CLI
command for ``--seconds`` seconds (at least three times per mode), checks
every run's outputs and reports medians. With ``--trace 1`` it alternates
plain and traced runs and reports the per-layer metrics of the traced ones
plus the tracing overhead. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is non-zero when a check fails. The work directory of a failed
run is kept under ``.bench_work/``.

``--all`` runs every workload both ways, prints all metrics and rewrites
``BENCHMARK.json``. Work files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".bench_work"
RUN_SECONDS = 30
MIN_RUNS = 3
# a run must end within 180 s; stop starting CLI runs well before that
HARD_LIMIT_S = 150.0
CHILD_ENV_REMOVED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SCERM_JOBS",
                     "PYTHONDONTWRITEBYTECODE")

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Per-layer metrics in BENCHMARK.json: counts, and times that every workload
# in it exercises. Times that some of those workloads never reach
# (REPORTED_ONLY) are printed and written to the result file but kept out of
# the list, since there they read exactly 0 on every run.
PER_LAYER = [
    ("config.load_s", "s"), ("config.build_population_s", "s"), ("config.self_s", "s"),
    ("losses.sampleset_builds", "count"), ("losses.sampleset_build_s", "s"),
    ("losses.weighted_hess_calls", "count"), ("losses.weighted_hess_s", "s"),
    ("losses.weighted_hess_gflop", "GFLOP-computed"),
    ("losses.weighted_grad_calls", "count"), ("losses.weighted_grad_s", "s"),
    ("losses.weighted_value_calls", "count"), ("losses.weighted_value_s", "s"),
    ("losses.self_s", "s"),
    ("linalg.chol_factor_calls", "count"), ("linalg.chol_factor_s", "s"),
    ("linalg.chol_solve_s", "s"),
    ("linalg.gen_eigmax_calls", "count"), ("linalg.blas_threads", "count"),
    ("linalg.blas_threads_numpy", "count"), ("linalg.self_s", "s"),
    ("solver.solves", "count"), ("solver.iters_per_solve", "iter/solve"),
    ("solver.halvings_per_solve", "halving/solve"), ("solver.failed_frac", "ratio"),
    ("solver.solve_ms_p50", "ms"), ("solver.solve_ms_p99", "ms"), ("solver.self_s", "s"),
    ("population.solve_population_s", "s"), ("population.lambda_context_s", "s"),
    ("population.factorizations_per_lambda", "factor/lambda"), ("population.self_s", "s"),
    ("rates.cells", "count"), ("verify.trials", "count"),
    ("cli.self_s", "s"), ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"), ("trace.wall_s", "s"),
]
# work completed; every other per-layer metric is a cost
MORE_IS_BETTER = ("rates.cells", "verify.trials")
REPORTED_ONLY = [
    ("linalg.inv_quad_rows_s", "s"), ("linalg.gen_eigmax_s", "s"), ("population.exact_risk_s", "s"), ("rates.self_s", "s"),
    ("verify.random_population_s", "s"), ("verify.check_s", "s"),
    ("verify.localization_s", "s"), ("verify.self_s", "s"),
]
# counts the spans give, which must repeat exactly for one config
REPEATED_EXACTLY = {n for n, u in PER_LAYER + REPORTED_ONLY if u not in ("s", "ms")
                    and not n.startswith(("linalg.blas_threads", "cli."))} | {"trace.spans"}


def _digest(out_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _child_env(root):
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_REMOVED}
    # bytecode is cached inside the checkout, so imports are timed warm
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, WORK_DIR, "pycache")
    return env


def run_child(root, work, tag, mode, cli_args, deadline):
    """Run child.py once. Returns (spawn time, report dict or None, log path)."""
    report_path = os.path.join(work, f"{tag}.report.json")
    log_path = os.path.join(work, f"{tag}.log")
    argv = [sys.executable, CHILD, os.path.join(root, "src"), report_path, mode, *cli_args]
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=work, env=_child_env(root), stdout=log,
                                stderr=subprocess.STDOUT, process_group=0)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            # the child itself after a timeout or an interrupt, and any pool
            # worker it left behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0 or not os.path.exists(report_path):
        return t_spawn, None, log_path
    with open(report_path, encoding="utf-8") as fh:
        return t_spawn, json.load(fh), log_path


def _log_tail(path, lines=5):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def _load_reference(name, seed):
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[name]


def run_workload(root, name, seed, seconds, trace):
    """Measure one workload. Returns the result dict (see module docstring)."""
    t0 = time.monotonic()
    deadline = t0 + HARD_LIMIT_S
    work = os.path.join(root, WORK_DIR, f"{name}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:  # JSON is valid YAML
        json.dump(workloads.make_config(name, seed), fh, indent=1)
    reference = _load_reference(name, seed)
    problems = []
    runs = []
    # the first CLI run fills the bytecode and page caches and is not timed
    modes = ("plain", "trace") if trace else ("plain",)
    while True:
        mode = "warmup" if not runs else modes[(len(runs) - 1) % len(modes)]
        out_dir = os.path.join(work, f"out{len(runs)}")
        cli_args = ["--config", config_path, "--out", out_dir, *workloads.cli_flags(name)]
        t_spawn, rep, log = run_child(root, work, f"run{len(runs)}",
                                      "trace" if mode == "trace" else "plain", cli_args, deadline)
        rc = rep["rc"] if rep is not None else None
        attempted, failed, found = workloads.check_outputs(name, seed, out_dir, rc, reference)
        if rep is None:
            found.append(f"child failed: {_log_tail(log)}")
        run = {"mode": mode, "attempted": attempted, "failed": failed, "problems": found}
        if rep is not None and not found:
            run.update(
                setup_s=rep["t_setup_end"] - t_spawn,
                run_s=rep["t_end"] - rep["t_setup_end"],
                main_s=rep["t_end"] - rep["t_main"],
                peak_rss_mb=rep["peak_rss_mb"],
                environment=rep["environment"],
                digest=_digest(out_dir),
                bytes_written=sum(os.path.getsize(os.path.join(out_dir, f))
                                  for f in os.listdir(out_dir)),
                layers=rep.get("layers"),
            )
        runs.append(run)
        problems.extend(found)
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            break
        now = time.monotonic()
        if mode == "warmup":
            window_end = now + seconds
            continue
        timed = len(runs) - 1
        enough = timed >= MIN_RUNS * len(modes) and timed % len(modes) == 0
        if (now >= window_end and enough) or now + 1.5 * (now - t_spawn) > deadline:
            break

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"name": name, "seed": seed, "trace": trace, "seconds": seconds,
              "attempted": attempted, "failed": failed, "problems": problems, "runs": runs,
              "wall_s": time.monotonic() - t0}
    if problems:
        result["correct"] = False
        return result
    if len({r["digest"] for r in runs}) != 1:
        problems.append("outputs differ between runs of one config")
    plain = [r for r in runs if r["mode"] == "plain"]
    result["environment"] = plain[0]["environment"]
    result["end_to_end"] = {
        "setup_s": median([r["setup_s"] for r in plain]),
        "run_s": median([r["run_s"] for r in plain]),
        "ops_per_s": median([r["attempted"] / r["run_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "failed_frac": failed / attempted,
    }
    if trace:
        result["layers"] = _layer_summary(runs, problems)
    result["correct"] = not problems
    if result["correct"]:
        shutil.rmtree(work)
    return result


def _layer_summary(runs, problems):
    plain = [r for r in runs if r["mode"] == "plain"]
    traced = [r for r in runs if r["mode"] == "trace"]
    layers = {}
    for key in traced[0]["layers"]:
        values = [r["layers"][key] for r in traced]
        if key in REPEATED_EXACTLY:
            if len(set(values)) != 1:
                problems.append(f"count {key} differs between traced runs: {values}")
            layers[key] = values[0]
        else:
            layers[key] = median(values)
    for r in traced:
        wall, own = r["main_s"], r["layers"]["trace.self_sum_s"]
        if abs(own - wall) > 0.01 * wall:
            problems.append(f"layer self times sum to {own:.6f} s, traced wall time {wall:.6f} s")
    layers["trace.overhead_s"] = (median([r["run_s"] for r in traced])
                                  - median([r["run_s"] for r in plain]))
    blas = traced[0]["environment"]["openblas"]
    layers["linalg.blas_threads"] = blas["scipy"]["threads"]
    layers["linalg.blas_threads_numpy"] = blas["numpy"]["threads"]
    layers["cli.bytes_written"] = traced[0]["bytes_written"]
    return layers


def metrics_line(result):
    """The JSON object the benchmark prints last."""
    if not result["correct"]:
        metrics = {}
    elif result["trace"]:
        metrics = {n: {"value": result["layers"][n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]], "unit": m["unit"]}
                   for m in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def describe(result):
    """Human-readable lines for one workload result."""
    head = f"== {result['name']} seed={result['seed']} trace={result['trace']}"
    if not workloads.WORKLOADS[result["name"]].get("in_benchmark", True):
        head += " (not in BENCHMARK.json)"
    lines = [f"{head} runs={len(result['runs'])} wall={result['wall_s']:.1f}s "
             f"{'OK' if result['correct'] else 'FAILED'}"]
    lines += [f"   problem: {p}" for p in result["problems"]]
    env = result.get("environment")
    if env:
        blas = env["openblas"]
        lines.append(f"   nproc={env['nproc']} openblas threads numpy={blas['numpy']['threads']} "
                     f"scipy={blas['scipy']['threads']} numpy {env['numpy']} scipy {env['scipy']} "
                     f"python {env['python']}")
        lines += [f"   openblas ({key}): {blas[key]['config']}" for key in ("numpy", "scipy")]
    units = {m["name"]: m["unit"] for m in END_TO_END}
    units["failed_frac"] = "ratio"
    for key, value in result.get("end_to_end", {}).items():
        lines.append(f"   {key:<40} {value:>14.6g} {units[key]}")
    if "layers" in result:
        for key, unit in PER_LAYER + REPORTED_ONLY:
            lines.append(f"   {key:<40} {result['layers'][key]:>14.6g} {unit}")
        if result["name"] == "rates_parallel":
            lines.append("   note: only parent-side spans are visible; cells run in pool workers")
    return lines


def _save(root, result):
    results = os.path.join(root, WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{result['name']}-seed{result['seed']}-trace{result['trace']}.json"
    path = os.path.join(results, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


def benchmark_spec():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in workloads.WORKLOADS.items()
                      if w.get("in_benchmark", True)],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": "higher" if n in MORE_IS_BETTER else "lower"}
                      for n, u in PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both modes; "
                        "rewrites BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "scerm", "cli.py")):
        print("error: run from the repository root; src/scerm is missing", file=sys.stderr)
        return 2

    if args.workload:
        result = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
        _save(root, result)
        print("\n".join(describe(result)))
        print(json.dumps(metrics_line(result)))
        return 0 if result["correct"] else 1

    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_workload(root, name, args.seed, args.seconds, trace)
            _save(root, result)
            print("\n".join(describe(result)), flush=True)
            ok = ok and result["correct"]
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(benchmark_spec(), fh, indent=2)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
