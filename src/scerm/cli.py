"""Command-line entry point.

    scerm --config cfg.yaml [--seed N] [--out DIR] [--jobs N] [--quiet]

Commands (selected inside the config): solve, diagnose, verify, rates,
concentration. Every run writes a CSV report plus a summary.json into the
output directory; each file starts with comment rows embedding the config
digest and seed, and writes go through a temp file + rename so partial
output never lands under the final name. Reruns with identical config and
seed produce byte-identical files.

Exit codes: 0 success, 1 assertion failure (a configured tolerance or
threshold was missed, a solve did not converge, or a population minimum is
not attained), 2 usage error (bad flags or $SCERM_JOBS, a config that is
unreadable, not YAML or invalid, I/O).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np
import yaml

from .config import RunConfig, build_population, config_digest, load_config_file
from .errors import ConfigError, ContractViolation, NonConvergenceError
from .linalg import single_thread_blas
from .losses import sup_constants
from .population import (
    compute_diagnostics,
    default_lambda_grid,
    pointwise_bounds,
    solve_population,
    sup_norm_certificate,
)
from .rates import (
    ExperimentPlan,
    RateParams,
    anchored_lambdas,
    gradient_concentration_experiment,
    hessian_concentration_experiment,
    lambda_exponent,
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


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, digest: str, seed: int, header, rows) -> None:
    lines = [f"# scerm report", f"# config_digest: {digest}", f"# seed: {seed}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_summary(path: str, digest: str, seed: int, payload: dict) -> None:
    doc = {"config_digest": digest, "seed": seed, **payload}
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _san(x):
    """JSON-safe scalar (inf/nan become strings)."""
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    if isinstance(x, (np.floating, np.integer)):
        return _san(x.item())
    return x


def _cmd_solve(cfg: RunConfig, pop, out_dir, digest, jobs, quiet):
    spec = cfg.solve
    config = SolverConfig(tol=spec.tol, max_iter=spec.max_iter)
    res = solve_erm(pop.sample_set, pop.weights, spec.lam, config)
    _write_csv(
        os.path.join(out_dir, "solve.csv"), digest, cfg.seed,
        ["index", "theta"],
        [(i, float(v)) for i, v in enumerate(res.theta_hat)],
    )
    _write_summary(
        os.path.join(out_dir, "summary.json"), digest, cfg.seed,
        {
            "command": "solve",
            "lambda": spec.lam,
            "iterations": res.iterations,
            "converged": res.converged,
            "final_decrement": _san(res.decrement_trace[-1]),
            "decrement_trace": [_san(v) for v in res.decrement_trace],
        },
    )
    if not quiet:
        print(f"solve: converged={res.converged} iterations={res.iterations} "
              f"decrement={res.decrement_trace[-1]:.3e}")
    return 0


def _cmd_diagnose(cfg: RunConfig, pop, out_dir, digest, jobs, quiet):
    spec = cfg.diagnose
    if spec.lambda_grid is not None:
        grid = np.asarray(spec.lambda_grid, dtype=float)
    else:
        sol = solve_population(pop, [])
        _, b2_star = pointwise_bounds(pop, sol.theta_star)
        grid = default_lambda_grid(b2_star, spec.log2_min, spec.log2_max)
    report = compute_diagnostics(pop, grid)
    rows = []
    for c in report.constants:
        rows.append((
            float(c.lam), c.bias, c.df, c.dikin, c.t_lambda,
            c.k_bias, c.k_var, c.c_bias, c.c_var, c.shift1, c.shift2,
            c.n_factor_hessian, c.n_factor_variance, c.branch,
        ))
    _write_csv(
        os.path.join(out_dir, "diagnostics.csv"), digest, cfg.seed,
        ["lambda", "bias", "df", "dikin_radius", "t_lambda",
         "k_bias", "k_var", "c_bias", "c_var", "shift1", "shift2",
         "n_factor_hessian", "n_factor_variance", "branch"],
        rows,
    )
    payload = {"command": "diagnose", "n_grid_points": int(report.lambda_grid.size)}
    if report.fitted_r is not None:
        payload["fitted_r"] = _san(report.fitted_r.value)
        payload["fitted_r_residual"] = _san(report.fitted_r.residual)
    if report.fitted_alpha is not None:
        payload["fitted_alpha"] = _san(report.fitted_alpha.value)
        payload["fitted_alpha_residual"] = _san(report.fitted_alpha.residual)
    _write_summary(os.path.join(out_dir, "summary.json"), digest, cfg.seed, payload)
    if not quiet:
        r_txt = payload.get("fitted_r", "n/a")
        a_txt = payload.get("fitted_alpha", "n/a")
        print(f"diagnose: {report.lambda_grid.size} grid points, "
              f"fitted_r={r_txt} fitted_alpha={a_txt}")
    return 0


def _cmd_verify(cfg: RunConfig, pop, out_dir, digest, jobs, quiet):
    spec = cfg.verify
    reports = run_check_suite(spec.trials_per_case, cfg.seed, slack=spec.slack)
    total_trials = sum(r.trials for r in reports.values())
    total_violations = sum(r.violations for r in reports.values())

    # everything that can fail runs before the first write, so a failed run
    # leaves no partial output
    loc_failures = 0
    if pop is not None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 999]))
        sol = solve_population(pop, [])
        for _ in range(spec.localization_trials):
            lam = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
            theta = sol.theta_star + rng.normal(0.0, 0.1, size=pop.dim)
            if not check_localization(pop, theta, lam).holds:
                loc_failures += 1

    _write_csv(
        os.path.join(out_dir, "verify.csv"), digest, cfg.seed,
        ["loss_kind", "check", "trials", "violations", "worst_margin"],
        [(kind, name, rep.trials, rep.violations, rep.worst_margin)
         for (kind, name), rep in sorted(reports.items())],
    )
    _write_summary(
        os.path.join(out_dir, "summary.json"), digest, cfg.seed,
        {
            "command": "verify",
            "total_trials": total_trials,
            "total_violations": total_violations,
            "localization_failures": loc_failures,
            "worst_margin": _san(min(r.worst_margin for r in reports.values())),
        },
    )
    ok = total_violations == 0 and loc_failures == 0
    if not quiet:
        print(f"verify: {total_trials} trials, {total_violations} violations, "
              f"{loc_failures} localization failures -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _rates_params(pop, regime, delta) -> RateParams:
    sol = solve_population(pop, [])
    theta_star = sol.theta_star
    b1_star, b2_star = pointwise_bounds(pop, theta_star)
    theta_norm = float(np.linalg.norm(theta_star))
    sup = sup_constants(pop.sample_set, theta_norm)
    meta = pop.meta
    return RateParams(
        delta=delta,
        b1_ball=sup.b1,
        b2_ball=sup.b2,
        b1_star=b1_star,
        b2_star=b2_star,
        cert_radius=sup_norm_certificate(pop),
        theta_norm=theta_norm,
        source_norm=(meta.source_norm if meta else None) or theta_norm,
        capacity_q=(meta.capacity_q if meta else None) or b1_star,
        r=meta.r if meta and meta.r is not None else None,
        alpha=meta.alpha if meta else None,
    )


def _cmd_rates(cfg: RunConfig, pop, out_dir, digest, jobs, quiet):
    spec = cfg.rates
    params = _rates_params(pop, spec.regime, spec.delta)
    lam_spec = spec.lambdas
    override = None
    if lam_spec.mode == "explicit":
        override = lam_spec.values
    elif lam_spec.mode == "anchored":
        exponent = lam_spec.exponent
        if exponent is None:
            # a population without construction metadata decays as r = 1/2, alpha = 1
            exponent = lambda_exponent(spec.regime,
                                       params.r if params.r is not None else 0.5,
                                       params.alpha if params.alpha is not None else 1.0)
        override = anchored_lambdas(spec.n_grid, exponent, lam_spec.anchor, lam_spec.n_anchor)

    plan = ExperimentPlan(
        population=pop,
        regime=spec.regime,
        n_grid=spec.n_grid,
        replicates=spec.replicates,
        delta=spec.delta,
        seed=cfg.seed,
        params=params,
        lambda_override=override,
        burn_in=spec.burn_in,
    )
    report = run_rate_experiment(plan, jobs=jobs)
    _write_csv(
        os.path.join(out_dir, "rates.csv"), digest, cfg.seed,
        ["n", "replicate", "lambda", "excess_risk", "bound_rhs", "guard_ok", "seed"],
        [(c.n, c.replicate, c.lam, c.excess_risk, c.bound_rhs, c.guard_ok, c.seed)
         for c in report.cells],
    )
    payload = {
        "command": "rates",
        "regime": report.regime,
        "fitted_exponent": _san(report.fitted_exponent),
        "theoretical_exponent": _san(report.theoretical_exponent),
        "mean_excess": [_san(v) for v in report.mean_excess],
        "lambdas": [_san(v) for v in report.lambdas],
        "violation_freq": [_san(v) for v in report.violation_freq],
        "guard_met": list(report.guard_met),
        "solver_failures": report.solver_failures,
    }
    try:
        consts = rate_constants(spec.regime, params)
        # the sample threshold is reported, never enforced: desk-scale n
        # sits far below it while the rates already manifest
        payload["schedule_c0"] = _san(consts.c0)
        payload["rate_c1"] = _san(consts.c1)
        payload["n_threshold"] = _san(consts.n_threshold)
    except ContractViolation:
        pass
    _write_summary(os.path.join(out_dir, "summary.json"), digest, cfg.seed, payload)
    ok = True
    if spec.tolerance is not None and report.theoretical_exponent is not None:
        ok = (
            math.isfinite(report.fitted_exponent)
            and abs(report.fitted_exponent - report.theoretical_exponent) <= spec.tolerance
        )
    if not quiet:
        theo = report.theoretical_exponent
        theo_txt = f"{theo:.4f}" if theo is not None else "n/a"
        print(f"rates[{report.regime}]: fitted={report.fitted_exponent:.4f} "
              f"theoretical={theo_txt} failures={report.solver_failures} "
              f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_concentration(cfg: RunConfig, pop, out_dir, digest, jobs, quiet):
    spec = cfg.concentration
    if spec.kind == "hessian":
        sol = solve_population(pop, [])
        report = hessian_concentration_experiment(
            pop, sol.theta_star, spec.lam, spec.n, spec.replicates, spec.delta, seed=cfg.seed
        )
    else:
        report = gradient_concentration_experiment(
            pop, spec.lam, spec.n, spec.replicates, spec.delta, k=spec.k, seed=cfg.seed
        )
    _write_csv(
        os.path.join(out_dir, "concentration.csv"), digest, cfg.seed,
        ["replicate", "success"],
        [(i, int(v)) for i, v in enumerate(report.outcomes)],
    )
    _write_summary(
        os.path.join(out_dir, "summary.json"), digest, cfg.seed,
        {
            "command": "concentration",
            "kind": report.kind,
            "n": report.n,
            "premise_n": _san(report.premise_n),
            "premise_ok": report.premise_ok,
            "frequency": _san(report.frequency),
            "threshold": _san(report.threshold),
            "skipped": report.skipped,
        },
    )
    if not quiet:
        status = "SKIPPED (premise unmet)" if report.skipped else (
            "PASS" if report.passed else "FAIL")
        print(f"concentration[{report.kind}]: n={report.n} frequency={report.frequency:.4f} "
              f"threshold={report.threshold:.4f} -> {status}")
    return 0 if report.passed else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "diagnose": _cmd_diagnose,
    "verify": _cmd_verify,
    "rates": _cmd_rates,
    "concentration": _cmd_concentration,
}


def run(cfg: RunConfig, raw_document, out_dir: str, jobs: int = 1, quiet: bool = False) -> int:
    digest = config_digest(raw_document)
    os.makedirs(out_dir, exist_ok=True)
    pop = build_population(cfg.population) if cfg.population is not None else None
    return _COMMANDS[cfg.command](cfg, pop, out_dir, digest, jobs, quiet)


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
                        help=f"worker processes for experiment cells; BLAS runs on one "
                             f"thread per process (default: ${JOBS_ENV_VAR} or 1)")
    parser.add_argument("--quiet", action="store_true", help="suppress the result digest line")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    jobs = args.jobs
    if jobs is None:
        env_jobs = os.environ.get(JOBS_ENV_VAR) or "1"
        try:
            jobs = int(env_jobs)
        except ValueError:
            print(f"error: ${JOBS_ENV_VAR} must be an integer, got {env_jobs!r}", file=sys.stderr)
            return 2
    jobs = max(1, jobs)
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
    except yaml.YAMLError as exc:
        print(f"error: config file is not valid YAML: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
        if isinstance(raw, dict):
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
