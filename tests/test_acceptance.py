"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The Monte Carlo experiments here are the heavy part of the suite (a few
minutes total); everything else is seconds.
"""

import math
import time
from functools import lru_cache

import numpy as np
import yaml

from scerm import (
    ExperimentPlan,
    FinitePopulation,
    LogisticLoss,
    Sample,
    SampleSet,
    SquareLoss,
    anchored_lambdas,
    bias_lambda,
    check_localization,
    compute_diagnostics,
    df_lambda,
    exact_hessian,
    hessian_concentration_experiment,
    make_logistic_population,
    make_source_population,
    run_check_suite,
    run_rate_experiment,
    solve_erm,
    stack_samples,
    theoretical_rate,
)
from scerm.cli import main as cli_main
from scerm.population import sup_norm_certificate
from scerm.rates import hessian_premise_n
from scerm.scfun import LOG2

from test_losses import ALL_KINDS, fd_grad, fd_hess, make_loss, random_sample


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {status} — {name}{detail}")
    assert ok, f"criterion {num} ({name}) failed{detail}"


@lru_cache(maxsize=None)
def source_pop_c():
    """Source + capacity population: r = 1/2, alpha = 2, d = 64."""
    return make_source_population(d=64, r=0.5, alpha=2.0, seed=101)


@lru_cache(maxsize=None)
def source_pop_b():
    """Source-only population: r = 1/2, alpha = 1, d = 256."""
    return make_source_population(d=256, r=0.5, alpha=1.0, seed=102)


@lru_cache(maxsize=None)
def logistic_pop_a():
    """No-regularity logistic population, d = 16, 1/j curvature spectrum."""
    return make_logistic_population(d=16, alpha=1.0, seed=103)


def test_criterion_1_derivative_correctness():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst_g, worst_h = 0.0, 0.0
    for kind in ALL_KINDS:
        loss = make_loss(kind)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            z = random_sample(rng, kind, d)
            theta = rng.normal(scale=1.5, size=d)
            g = loss.grad(z, theta)
            rel_g = np.linalg.norm(g - fd_grad(loss, z, theta)) / max(1.0, np.linalg.norm(g))
            h = loss.hess(z, theta)
            rel_h = np.linalg.norm(h - fd_hess(loss, z, theta)) / max(1.0, np.linalg.norm(h))
            worst_g = max(worst_g, rel_g)
            worst_h = max(worst_h, rel_h)
    elapsed = time.time() - t0
    ok = worst_g < 1e-6 and worst_h < 1e-5 and elapsed < 10.0
    report(1, "derivative correctness", ok,
           f" (grad {worst_g:.2e}, hess {worst_h:.2e}, {elapsed:.1f}s)")


def test_criterion_2_self_concordance_suite():
    t0 = time.time()
    trials_per_case = 525  # x 4 checks x 5 kinds = 10500 total
    reports = run_check_suite(trials_per_case=trials_per_case, seed=1002)
    total = sum(r.trials for r in reports.values())
    violations = sum(r.violations for r in reports.values())
    square_worst = min(
        abs(min(rep.worst_margin, 0.0))
        for (kind, _), rep in reports.items()
        if kind == "square"
    )
    square_ok = all(
        abs(min(rep.worst_margin, 0.0)) <= 1e-12
        for (kind, _), rep in reports.items()
        if kind == "square"
    )
    elapsed = time.time() - t0
    ok = total >= 10_000 and violations == 0 and square_ok and elapsed < 120.0
    report(2, "self-concordance suite", ok,
           f" ({total} trials, {violations} violations, square |margin| <= "
           f"{square_worst:.1e}, {elapsed:.1f}s)")


def test_criterion_3_solver_exactness():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    worst = 0.0
    one_step = True
    for _ in range(100):
        d = int(rng.integers(1, 33))
        n = int(rng.integers(d + 1, 257))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        w = rng.uniform(0.2, 1.0, size=n)
        w /= w.sum()
        lam = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
        res = solve_erm(SampleSet(SquareLoss(), x, y), w, lam)
        one_step = one_step and res.iterations == 1
        expect = np.linalg.solve((x.T * w) @ x + lam * np.eye(d), x.T @ (w * y))
        worst = max(worst, np.linalg.norm(res.theta_hat - expect)
                    / max(1.0, np.linalg.norm(expect)))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and one_step and elapsed < 10.0
    report(3, "solver exactness", ok,
           f" (rel err {worst:.1e}, one-step={one_step}, {elapsed:.1f}s)")


def test_criterion_4_diagnostics_identities():
    rng = np.random.default_rng(1004)
    lam_grid = (1e-3, 1e-2, 0.1, 1.0)

    # square loss with unit two-point noise: ridge closed forms
    d = 5
    theta_star = rng.normal(size=d)
    xs = rng.normal(size=(7, d))
    base_w = rng.uniform(0.5, 1.5, size=7)
    base_w /= base_w.sum()
    atoms, weights = [], []
    for i in range(7):
        mean = float(xs[i] @ theta_star)
        for eps in (1.0, -1.0):
            atoms.append(Sample(features=xs[i], label=mean + eps))
            weights.append(base_w[i] / 2)
    sq_pop = FinitePopulation(stack_samples(SquareLoss(), atoms), np.asarray(weights))
    cov = exact_hessian(sq_pop, sq_pop.theta_star, 0.0)
    worst_sq = 0.0
    for lam in lam_grid:
        cov_lam = cov + lam * np.eye(d)
        bias_ref = lam * math.sqrt(sq_pop.theta_star @ np.linalg.solve(cov_lam,
                                                                       sq_pop.theta_star))
        df_ref = float(np.trace(np.linalg.solve(cov_lam, cov)))
        worst_sq = max(worst_sq,
                       abs(bias_lambda(sq_pop, lam) - bias_ref),
                       abs(df_lambda(sq_pop, lam) - df_ref))

    # well-specified logistic: score-covariance identity and df = Tr(H_lam^{-1} H)
    log_pop = logistic_pop_a()
    grads = log_pop.sample_set.grads(log_pop.theta_star)
    outer = (grads.T * log_pop.weights) @ grads
    h = exact_hessian(log_pop, log_pop.theta_star, 0.0)
    bartlett_err = float(np.max(np.abs(outer - h)))
    worst_log = 0.0
    for lam in lam_grid:
        df_ref = float(np.trace(np.linalg.solve(h + lam * np.eye(log_pop.dim), h)))
        worst_log = max(worst_log, abs(df_lambda(log_pop, lam) - df_ref))

    ok = worst_sq < 1e-10 and bartlett_err < 1e-10 and worst_log < 1e-10
    report(4, "diagnostics identities", ok,
           f" (ridge {worst_sq:.1e}, score-cov {bartlett_err:.1e}, glm-df {worst_log:.1e})")


def test_criterion_5_source_capacity_recovery():
    t0 = time.time()
    pop = make_source_population(d=64, r=0.5, alpha=2.0, seed=1005)
    grid = 2.0 ** -np.arange(4, 15)
    diag = compute_diagnostics(pop, grid)
    r_hat = diag.fitted_r.value
    a_hat = diag.fitted_alpha.value
    elapsed = time.time() - t0
    ok = 0.4 <= r_hat <= 0.6 and 1.7 <= a_hat <= 2.3 and elapsed < 30.0
    report(5, "source/capacity recovery", ok,
           f" (r_hat={r_hat:.3f}, alpha_hat={a_hat:.3f}, {elapsed:.1f}s)")


N_GRID = tuple(2**k for k in range(7, 14))


def _rate_experiment(pop, regime, lambdas, seed, replicates=200, delta=0.1, n_grid=N_GRID):
    plan = ExperimentPlan(
        population=pop,
        regime=regime,
        n_grid=n_grid,
        replicates=replicates,
        delta=delta,
        seed=seed,
        lambdas=lambdas,
    )
    return run_rate_experiment(plan)


def test_criterion_6_rate_reproduction():
    t0 = time.time()
    results = []

    # (a) no-regularity logistic, lambda ~ n^{-1/2}, target 1/2 +- 0.12
    rep_a = _rate_experiment(
        logistic_pop_a(), "none",
        anchored_lambdas(N_GRID, 0.5, 0.25, 128), seed=2001,
    )
    results.append(("none/logistic", rep_a.fitted_exponent, 0.5, 0.12))

    # (b) source r=1/2 on the alpha ~ 1 construction, lambda ~ n^{-1/3}, target 2/3 +- 0.1
    rep_b = _rate_experiment(
        source_pop_b(), "source",
        anchored_lambdas(N_GRID, 1.0 / 3.0, 0.06, 128), seed=2002,
    )
    results.append(("source/alpha~1", rep_b.fitted_exponent,
                    theoretical_rate("source", r=0.5), 0.1))

    # (c) source+capacity r=1/2, alpha=2, lambda ~ n^{-2/5}, target 4/5 +- 0.1
    rep_c = _rate_experiment(
        source_pop_c(), "source_capacity",
        anchored_lambdas(N_GRID, 0.4, 0.03, 128), seed=2003,
    )
    results.append(("source+capacity", rep_c.fitted_exponent,
                    theoretical_rate("source_capacity", r=0.5, alpha=2.0), 0.1))

    elapsed = time.time() - t0
    ok = elapsed < 1200.0
    detail = []
    for name, fitted, target, tol in results:
        hit = math.isfinite(fitted) and abs(fitted - target) <= tol
        ok = ok and hit
        detail.append(f"{name}: {fitted:.3f} vs {target:.3f}±{tol}")
    report(6, "rate reproduction", ok, f" ({'; '.join(detail)}, {elapsed:.0f}s)")


def test_criterion_7_theorem_bound_frequency():
    t0 = time.time()
    replicates = 500
    delta = 0.1
    n_grid = (128, 512, 2048)
    rep = _rate_experiment(
        source_pop_c(), "source_capacity",
        anchored_lambdas(n_grid, 0.4, 0.03, 128),
        seed=2007, replicates=replicates, delta=delta, n_grid=n_grid,
    )

    # rebuild the plan-level view: per-n frequency of excess > bound RHS
    sigma = math.sqrt(2 * delta * (1 - 2 * delta) / replicates)
    cap = 2 * delta + 3 * sigma
    ok = rep.solver_failures == 0
    freqs = []
    for ni, n in enumerate(n_grid):
        freq = rep.violation_freq[ni]
        freqs.append(f"n={n}: {freq:.3f} (guard {'met' if rep.guard_met[ni] else 'unmet'})")
        # asserted whenever the guard holds; asserted here unconditionally
        # since the exact-constant bound is far from tight at desk scale
        ok = ok and freq <= cap
    elapsed = time.time() - t0
    report(7, "theorem-bound violation frequency", ok,
           f" (cap {cap:.3f}; {'; '.join(freqs)}; {elapsed:.0f}s)")


def test_criterion_8_hessian_concentration():
    t0 = time.time()
    pop = logistic_pop_a()
    lam = 0.5
    delta = 0.1
    n = int(math.ceil(hessian_premise_n(pop, lam, delta)))
    rep = hessian_concentration_experiment(pop, lam, n=n,
                                           replicates=500, delta=delta, seed=2008)
    elapsed = time.time() - t0
    ok = rep.premise_ok and rep.frequency >= rep.threshold
    report(8, "empirical-vs-expected curvature concentration", ok,
           f" (n={n}, freq={rep.frequency:.4f} >= {rep.threshold:.4f}, {elapsed:.0f}s)")


def test_criterion_9_localization_implications():
    t0 = time.time()
    rng = np.random.default_rng(1009)
    counterexamples = 0
    tested = 0

    pops = [logistic_pop_a(), source_pop_c()]
    # plus a small dense logistic population
    xs = rng.normal(size=(5, 3))
    theta = rng.normal(size=3) * 0.4
    atoms, weights = [], []
    for i in range(5):
        p = 1.0 / (1.0 + math.exp(-float(xs[i] @ theta)))
        atoms += [Sample(features=xs[i], label=1.0), Sample(features=xs[i], label=-1.0)]
        weights += [0.2 * p, 0.2 * (1.0 - p)]
    pops.append(FinitePopulation(stack_samples(LogisticLoss(), atoms), np.asarray(weights)))

    for pop in pops:
        grid = [2.0 ** -k for k in range(0, 11)]
        r_cert = sup_norm_certificate(pop)
        star_norm = float(np.linalg.norm(pop.theta_star))
        diag = compute_diagnostics(pop, grid)  # raises on a localization violation
        for i, lam in enumerate(diag.lambda_grid):
            tested += 1
            if diag.bias[i] <= diag.dikin[i] / 2.0:
                if diag.t_lambda[i] > LOG2 + 1e-12:
                    counterexamples += 1
            elif diag.t_lambda[i] > 2.0 * r_cert * star_norm + 1e-12:
                counterexamples += 1
        for lam in (grid[0], grid[4], grid[-1]):
            for _ in range(25):
                tested += 1
                point = pop.theta_star + rng.normal(
                    scale=rng.uniform(1e-3, 0.5), size=pop.dim
                )
                if not check_localization(pop, point, lam).holds:
                    counterexamples += 1
    elapsed = time.time() - t0
    ok = counterexamples == 0
    report(9, "localization implications", ok,
           f" ({tested} cases, {counterexamples} counterexamples, {elapsed:.0f}s)")


def test_criterion_10_cli_determinism(tmp_path):
    doc = {
        "command": "rates",
        "seed": 77,
        "population": {"generator": "source", "d": 16, "r": 0.5, "alpha": 2.0, "seed": 5},
        "rates": {
            "regime": "source_capacity",
            "n_grid": [64, 128, 256],
            "replicates": 5,
            "delta": 0.25,
            "lambda": {"mode": "anchored", "anchor": 0.2, "n_anchor": 64},
        },
    }
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["--config", str(cfg), "--out", str(out1)])
    code2 = cli_main(["--config", str(cfg), "--out", str(out2)])
    same_csv = (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()
    same_sum = (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    ok = code1 == 0 and code2 == 0 and same_csv and same_sum
    report(10, "CLI determinism", ok, f" (csv identical={same_csv}, summary identical={same_sum})")
