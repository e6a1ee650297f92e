"""The benchmark's workloads: generated configs, CLI flags and output checks.

Every workload is one ``scerm`` CLI command on a config generated from the
workload seed. The seed becomes the config's ``seed``; populations, n grids
and lambda schedules are fixed. Replicate and trial counts size one CLI run
at roughly one to two seconds on a 2-core machine, so a measurement window
holds many runs whose median is reported.
"""

from __future__ import annotations

import csv
import json
import math
import os

N_GRID = [2**k for k in range(7, 14)]

# population of criterion 6 case (a), also used for verify's localization trials
LOGISTIC_A = {"generator": "logistic", "d": 16, "alpha": 1.0, "seed": 103}
SOURCE_B = {"generator": "source", "d": 256, "r": 0.5, "alpha": 1.0, "seed": 102}
SOURCE_C = {"generator": "source", "d": 64, "r": 0.5, "alpha": 2.0, "seed": 101}


def _rates(regime, replicates, anchor, tolerance):
    return {
        "regime": regime,
        "n_grid": N_GRID,
        "replicates": replicates,
        "delta": 0.1,
        "tolerance": tolerance,
        "lambda": {"mode": "anchored", "anchor": anchor, "n_anchor": 128},
    }


WORKLOADS = {
    "rates_logistic": {
        "why": "Case (a), logistic d=16: Newton iterations, line search and per-call "
               "overhead dominate, BLAS work is negligible; solver changes move it, "
               "kernel or thread changes should not.",
        "population": LOGISTIC_A,
        "rates": _rates("none", 150, 0.25, 0.12),
        "jobs": 1,
        # Python-bound: its median follows the host's speed, which drifted by
        # ~30% between two sets of ten runs, more than any allowed bound.
        "in_benchmark": False,
    },
    "rates_source_wide": {
        "why": "Case (b), square loss d=256 with 1024 atoms: weighted_hess, the 256x256 "
               "Cholesky and SampleSet restacking dominate at one Newton iteration; "
               "thread policy and factor-once act here.",
        "population": SOURCE_B,
        "rates": _rates("source", 6, 0.06, 0.1),
        "jobs": 1,
    },
    "rates_parallel": {
        "why": "Case (c), square loss d=64 through the process pool at --jobs 2: "
               "pickling the population per task and two BLAS pools on two cores; "
               "shows worker thread pins and task-granularity changes.",
        "population": SOURCE_C,
        "rates": _rates("source_capacity", 160, 0.03, 0.1),
        "jobs": 2,
        # At default BLAS threads one CLI run takes either ~1.4 s or ~5.3 s,
        # depending on how the two workers' BLAS threads share the two cores,
        # so no run length gives a steady median. It stays runnable by name.
        "in_benchmark": False,
    },
    "verify_suite": {
        "why": "Randomized inequality suite over all 5 loss kinds on thousands of tiny "
               "populations plus localization trials: construction and validation "
               "dominate; the only softmax-GLM and gen_eigmax volume.",
        "population": LOGISTIC_A,
        "verify": {"trials_per_case": 200, "localization_trials": 50},
        "jobs": 1,
        # Python-bound and drifting with the host, as rates_logistic
        "in_benchmark": False,
    },
    "verify_wide": {
        "why": "verify with localization trials on the case (b) population (d=256, 1024 "
               "atoms) and a small randomized suite: the verify layer at a BLAS-bound size "
               "that stays steady on a drifting host.",
        "population": SOURCE_B,
        "verify": {"trials_per_case": 5, "localization_trials": 30},
        "jobs": 1,
    },
    "diagnose_wide": {
        "why": "diagnose on the case (b) population over the default 17-point lambda "
               "grid: df_lambda's 1024-row solves and per-lambda factorizations; the "
               "population layer alone.",
        "population": SOURCE_B,
        "diagnose": {},
        "jobs": 1,
    },
}

# Summary values at the default seed are compared with reference.json to
# this relative tolerance: wide enough for last-digit shifts between BLAS
# builds and thread counts, far below any change in what is computed.
REFERENCE_RTOL = 1e-6
DEFAULT_SEED = 0
CSV_NAME = {"rates": "rates.csv", "verify": "verify.csv", "diagnose": "diagnostics.csv"}


def command(name: str) -> str:
    spec = WORKLOADS[name]
    return next(cmd for cmd in ("rates", "verify", "diagnose") if cmd in spec)


def make_config(name: str, seed: int) -> dict:
    spec = WORKLOADS[name]
    cmd = command(name)
    return {"command": cmd, "seed": seed, "population": dict(spec["population"]),
            cmd: json.loads(json.dumps(spec[cmd]))}


def cli_flags(name: str) -> list:
    return ["--jobs", str(WORKLOADS[name]["jobs"]), "--quiet"]


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _close(actual, expected) -> bool:
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(_close(a, e) for a, e in zip(actual, expected)))
    return (isinstance(actual, (int, float)) and math.isfinite(actual)
            and math.isclose(actual, expected, rel_tol=REFERENCE_RTOL, abs_tol=1e-12))


def check_outputs(name: str, seed: int, out_dir: str, rc: int, reference: dict | None):
    """Check one CLI run. Returns (operations attempted, operations failed,
    problems); a run with any problem counts every operation as failed."""
    spec = WORKLOADS[name]
    cmd = command(name)
    if cmd == "rates":
        attempted = len(N_GRID) * spec["rates"]["replicates"]
    elif cmd == "verify":
        attempted = 20 * spec["verify"]["trials_per_case"] + spec["verify"]["localization_trials"]
    else:
        attempted = 17
    problems = []
    failed = 0
    if rc != 0:
        problems.append(f"CLI exited {rc} (seed {seed})")
        return attempted, attempted, problems
    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        rows = _csv_rows(os.path.join(out_dir, CSV_NAME[cmd]))
    except (OSError, ValueError) as exc:
        return attempted, attempted, [f"unreadable output: {exc}"]
    if summary.get("seed") != seed:
        problems.append(f"summary seed {summary.get('seed')} != {seed}")

    if cmd == "rates":
        failed = summary["solver_failures"]
        if failed:
            problems.append(f"{failed} solver failures")
        if len(rows) != attempted:
            problems.append(f"rates.csv has {len(rows)} rows, expected {attempted}")
        if not all(math.isfinite(float(r["excess_risk"])) for r in rows):
            problems.append("non-finite excess risk in rates.csv")
        miss = abs(summary["fitted_exponent"] - summary["theoretical_exponent"])
        if miss > spec["rates"]["tolerance"]:
            problems.append(f"fitted exponent {summary['fitted_exponent']} misses "
                            f"{summary['theoretical_exponent']} at seed {seed}")
        keys = ("fitted_exponent", "mean_excess")
    elif cmd == "verify":
        failed = summary["total_violations"] + summary["localization_failures"]
        if failed:
            problems.append(f"{summary['total_violations']} violations, "
                            f"{summary['localization_failures']} localization failures")
        if summary["total_trials"] != 20 * spec["verify"]["trials_per_case"] or len(rows) != 20:
            problems.append(f"verify ran {summary['total_trials']} trials in {len(rows)} cases")
        keys = ("total_trials",)
    else:
        if summary["n_grid_points"] != attempted or len(rows) != attempted:
            problems.append(f"diagnose gave {summary['n_grid_points']} grid points")
        keys = ("fitted_r", "fitted_alpha")

    if reference is not None:
        for key in keys:
            if not _close(summary.get(key), reference[key]):
                problems.append(f"{key} = {summary.get(key)!r} differs from reference "
                                f"{reference[key]!r}")
    if problems:
        failed = attempted
    return attempted, failed, problems
