"""Command-line entry point.

    scerm --config cfg.yaml [--seed N] [--out DIR] [--jobs N] [--quiet]

Commands (selected inside the config): solve, diagnose, verify, rates,
concentration. Each command computes its full report before ``run`` makes
the output directory and writes the report into it as a CSV file plus a
summary.json, so a run that fails first leaves no output, not even the
directory. The CSV starts with comment rows embedding the config digest and
seed; summary.json holds them as fields and writes non-finite values as the
strings "inf", "-inf" and "nan", so it is strict JSON. Both files are written to temp files before either is renamed into
place, so a failed write leaves neither under its final name. Reruns with
identical config and seed produce byte-identical files.

Exit codes: 0 success, 1 assertion failure (a configured tolerance or
threshold was missed, a solve did not converge, or a population minimum is
not attained), 2 usage error (bad flags or $SCERM_JOBS, a worker count
below 1, a config that is unreadable, not UTF-8 YAML or invalid, I/O).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np
import yaml

from .config import build_population, config_digest, load_config_file
from .errors import ConfigError, ContractViolation, NonConvergenceError
from .linalg import single_thread_blas
from .population import compute_diagnostics, default_lambda_grid, pointwise_bounds
from .rates import (
    ExperimentPlan,
    RateParams,
    anchored_lambdas,
    gradient_concentration_experiment,
    hessian_concentration_experiment,
    lambda_exponent,
    lambda_schedule,
    rate_constants,
    run_rate_experiment,
)
from .solver import SolverConfig, solve_erm
from .verify import check_localization, run_check_suite

JOBS_ENV_VAR = "SCERM_JOBS"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _atomic_write(files) -> None:
    """Write every (path, text) pair or none: all temp files are written
    before the first rename, and a failure removes the temp files and every
    file this call already renamed into place. Files get mode 0o666 & ~umask."""
    umask = os.umask(0)
    os.umask(umask)
    temps, placed = [], []
    try:
        for path, text in files:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-",
                                       suffix=".part")
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for name in temps + placed:
            if os.path.lexists(name):
                os.unlink(name)
        raise


def _san(x):
    """A JSON-safe copy of a summary value: inf and nan become strings."""
    if isinstance(x, dict):
        return {key: _san(v) for key, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_san(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return _san(x.item())
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


@dataclass(frozen=True)
class _Report:
    """One command's complete output: a CSV table, the summary.json fields and
    the digest line. ``ok`` False makes the run exit 1."""

    csv_name: str
    header: tuple
    rows: list
    summary: dict
    line: str
    ok: bool = True


def _cmd_solve(cfg: dict, pop, jobs) -> _Report:
    spec = cfg["solve"]
    config = SolverConfig(tol=spec["tol"], max_iter=spec["max_iter"])
    res = solve_erm(pop.sample_set, pop.weights, spec["lambda"], config)
    return _Report(
        "solve.csv", ("index", "theta"),
        [(i, float(v)) for i, v in enumerate(res.theta_hat)],
        {
            "command": "solve",
            "lambda": spec["lambda"],
            "iterations": res.iterations,
            "final_decrement": res.decrement_trace[-1],
            "decrement_trace": res.decrement_trace,
        },
        f"solve: iterations={res.iterations} decrement={res.decrement_trace[-1]:.3e}",
    )


def _cmd_diagnose(cfg: dict, pop, jobs) -> _Report:
    spec = cfg["diagnose"]
    if spec["lambda_grid"] is not None:
        grid = np.asarray(spec["lambda_grid"], dtype=float)
    else:
        _, b2_star = pointwise_bounds(pop)
        grid = default_lambda_grid(b2_star, spec["log2_min"], spec["log2_max"])
        if grid.size == 0:
            raise ConfigError([("diagnose.log2_max", (
                f"no lambda = 2^-k with k in [{spec['log2_min']}, {spec['log2_max']}] "
                f"is at most B2* = {b2_star:.6g}"))])
    report = compute_diagnostics(pop, grid)
    rows = []
    for c in report.constants:
        rows.append((
            float(c.lam), c.bias, c.df, c.dikin, c.t_lambda,
            c.k_bias, c.k_var, c.c_bias, c.c_var, c.shift1, c.shift2,
            c.n_factor_hessian, c.n_factor_variance, c.branch,
        ))
    payload = {"command": "diagnose", "n_grid_points": int(report.lambda_grid.size)}
    for name, fit in (("fitted_r", report.fitted_r), ("fitted_alpha", report.fitted_alpha)):
        if fit is not None:
            payload[name], payload[f"{name}_residual"] = fit.value, fit.residual
    return _Report(
        "diagnostics.csv",
        ("lambda", "bias", "df", "dikin_radius", "t_lambda",
         "k_bias", "k_var", "c_bias", "c_var", "shift1", "shift2",
         "n_factor_hessian", "n_factor_variance", "branch"),
        rows, payload,
        f"diagnose: {report.lambda_grid.size} grid points, "
        f"fitted_r={payload.get('fitted_r', 'n/a')} "
        f"fitted_alpha={payload.get('fitted_alpha', 'n/a')}",
    )


def _cmd_verify(cfg: dict, pop, jobs) -> _Report:
    spec = cfg["verify"]
    reports = run_check_suite(spec["trials_per_case"], cfg["seed"])
    total_trials = sum(r.trials for r in reports.values())
    total_violations = sum(r.violations for r in reports.values())
    loc_failures = 0
    if pop is not None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 999]))
        for _ in range(spec["localization_trials"]):
            lam = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
            theta = pop.theta_star + rng.normal(0.0, 0.1, size=pop.dim)
            if not check_localization(pop, theta, lam).holds:
                loc_failures += 1
    ok = total_violations == 0 and loc_failures == 0
    return _Report(
        "verify.csv", ("loss_kind", "check", "trials", "violations", "worst_margin"),
        [(kind, name, rep.trials, rep.violations, rep.worst_margin)
         for (kind, name), rep in sorted(reports.items())],
        {
            "command": "verify",
            "total_trials": total_trials,
            "total_violations": total_violations,
            "localization_failures": loc_failures,
            "worst_margin": min(r.worst_margin for r in reports.values()),
        },
        f"verify: {total_trials} trials, {total_violations} violations, "
        f"{loc_failures} localization failures -> {'PASS' if ok else 'FAIL'}",
        ok,
    )


def _cmd_rates(cfg: dict, pop, jobs) -> _Report:
    spec = cfg["rates"]
    regime, n_grid, lam_spec = spec["regime"], spec["n_grid"], spec["lambda"]
    params = RateParams.of(pop, spec["delta"])
    missing = " and ".join(params.missing(regime))
    if missing and spec["tolerance"] is not None:
        raise ConfigError([("rates.tolerance", (
            f"the {regime} exponent needs the population's {missing}, which it does not "
            "define, so no tolerance can be checked; drop rates.tolerance"))])
    if lam_spec["mode"] == "explicit":
        lambdas = lam_spec["values"]
    elif lam_spec["mode"] == "anchored":
        # a population without construction metadata decays as r = 1/2, alpha = 1
        exponent = lambda_exponent(regime, 0.5 if params.r is None else params.r,
                                   1.0 if params.alpha is None else params.alpha)
        lambdas = anchored_lambdas(n_grid, exponent, lam_spec["anchor"], lam_spec["n_anchor"])
    else:  # corollary
        if missing:
            raise ConfigError([("rates.regime", (
                f"the corollary's lambda needs the population's {missing}, "
                "which it does not define; set rates.lambda.mode: anchored|explicit"))])
        lambdas = [lambda_schedule(regime, n, params).value for n in n_grid]

    plan = ExperimentPlan(
        population=pop,
        regime=regime,
        n_grid=n_grid,
        replicates=spec["replicates"],
        delta=spec["delta"],
        seed=cfg["seed"],
        lambdas=lambdas,
    )
    report = run_rate_experiment(plan, jobs=jobs)
    payload = {
        "command": "rates",
        "regime": regime,
        "fitted_exponent": report.fitted_exponent,
        "theoretical_exponent": report.theoretical_exponent,
        "mean_excess": report.mean_excess,
        "lambdas": plan.lambdas,
        "violation_freq": report.violation_freq,
        "guard_met": report.guard_met,
        "solver_failures": report.solver_failures,
    }
    try:
        consts = rate_constants(regime, params)
        # the sample threshold is reported, never enforced: desk-scale n
        # sits far below it while the rates already manifest
        payload["schedule_c0"] = consts.c0
        payload["rate_c1"] = consts.c1
        payload["n_threshold"] = consts.n_threshold
    except ContractViolation:
        pass
    ok = report.solver_failures == 0
    if ok and spec["tolerance"] is not None and report.theoretical_exponent is not None:
        ok = (
            math.isfinite(report.fitted_exponent)
            and abs(report.fitted_exponent - report.theoretical_exponent) <= spec["tolerance"]
        )
    theo = report.theoretical_exponent
    theo_txt = f"{theo:.4f}" if theo is not None else "n/a"
    return _Report(
        "rates.csv", ("n", "replicate", "lambda", "excess_risk", "bound_rhs", "guard_ok", "seed"),
        [(c.n, c.replicate, c.lam, c.excess_risk, c.bound_rhs, c.guard_ok, c.seed)
         for c in report.cells],
        payload,
        f"rates[{regime}]: fitted={report.fitted_exponent:.4f} "
        f"theoretical={theo_txt} failures={report.solver_failures} "
        f"-> {'PASS' if ok else 'FAIL'}",
        ok,
    )


def _cmd_concentration(cfg: dict, pop, jobs) -> _Report:
    spec = cfg["concentration"]
    args = (pop, spec["lambda"], spec["n"], spec["replicates"], spec["delta"])
    if spec["kind"] == "hessian":
        report = hessian_concentration_experiment(*args, seed=cfg["seed"])
    else:
        report = gradient_concentration_experiment(*args, k=spec["k"], seed=cfg["seed"])
    status = "SKIPPED (premise unmet)" if report.skipped else (
        "PASS" if report.passed else "FAIL")
    return _Report(
        "concentration.csv", ("replicate", "success"),
        [(i, int(v)) for i, v in enumerate(report.outcomes)],
        {
            "command": "concentration",
            "kind": report.kind,
            "n": report.n,
            "premise_n": report.premise_n,
            "premise_ok": report.premise_ok,
            "frequency": report.frequency,
            "threshold": report.threshold,
            "skipped": report.skipped,
        },
        f"concentration[{report.kind}]: n={report.n} frequency={report.frequency:.4f} "
        f"threshold={report.threshold:.4f} -> {status}",
        report.passed,
    )


_COMMANDS = {
    "solve": _cmd_solve,
    "diagnose": _cmd_diagnose,
    "verify": _cmd_verify,
    "rates": _cmd_rates,
    "concentration": _cmd_concentration,
}


def run(cfg: dict, raw_document, out_dir: str, jobs: int = 1, quiet: bool = False) -> int:
    digest = config_digest(raw_document)
    pop = build_population(cfg["population"]) if cfg["population"] is not None else None
    report = _COMMANDS[cfg["command"]](cfg, pop, jobs)
    lines = ["# scerm report", f"# config_digest: {digest}", f"# seed: {cfg['seed']}",
             ",".join(report.header)]
    lines += [",".join(_fmt(v) for v in row) for row in report.rows]
    summary = _san({"config_digest": digest, "seed": cfg["seed"], **report.summary})
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write([
        (os.path.join(out_dir, report.csv_name), "\n".join(lines) + "\n"),
        (os.path.join(out_dir, "summary.json"),
         json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n"),
    ])
    if not quiet:
        print(report.line)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    single_thread_blas()
    parser = argparse.ArgumentParser(
        prog="scerm",
        description="Regularized ERM with self-concordant losses: solves, diagnostics, "
                    "verification suites, and rate experiments.",
    )
    parser.add_argument("--config", required=True, help="YAML configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="scerm-out", help="output directory")
    parser.add_argument("--jobs", type=int, default=None,
                        help=f"worker processes for experiment cells, at least 1; BLAS runs "
                             f"on one thread per process (default: ${JOBS_ENV_VAR} or 1)")
    parser.add_argument("--quiet", action="store_true", help="suppress the result digest line")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    jobs, jobs_from = args.jobs, "--jobs"
    if jobs is None:
        jobs_from = f"${JOBS_ENV_VAR}"
        env_jobs = os.environ.get(JOBS_ENV_VAR) or "1"
        try:
            jobs = int(env_jobs)
        except ValueError:
            print(f"error: ${JOBS_ENV_VAR} must be an integer, got {env_jobs!r}", file=sys.stderr)
            return 2
    if jobs < 1:
        print(f"error: {jobs_from} must be a positive integer, got {jobs}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print(f"error: --seed must be a nonnegative integer, got {args.seed}", file=sys.stderr)
        return 2

    try:
        cfg, raw = load_config_file(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: config file is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except yaml.YAMLError as exc:
        print(f"error: config file is not valid YAML: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg = {**cfg, "seed": args.seed}
        raw = {**raw, "seed": args.seed}
    try:
        return run(cfg, raw, args.out, jobs=jobs, quiet=args.quiet)
    except (ConfigError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
