import math

import numpy as np
import pytest

from scerm import (
    CheckReport,
    ContractViolation,
    FinitePopulation,
    LogisticLoss,
    Sample,
    SampleSet,
    SquareLoss,
    check_decomposition_bound,
    check_grad_lower,
    check_grad_upper,
    check_hess_control,
    check_localization,
    check_value_bound,
    run_check_suite,
    solve_erm,
    solve_population,
    stack_samples,
)
from scerm.verify import random_population

CHECKS = (check_hess_control, check_grad_lower, check_grad_upper, check_value_bound)


def square_pop(rng, d=3, n=8):
    x = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    w = rng.uniform(0.3, 1.0, size=n)
    w /= w.sum()
    return FinitePopulation(SampleSet(SquareLoss(), x, y), w)


def test_square_margins_are_machine_zero(rng):
    # quadratic case: both sides of every inequality coincide exactly
    for _ in range(25):
        pop = square_pop(rng)
        t0 = rng.normal(size=3)
        t1 = rng.normal(size=3)
        lam = float(rng.uniform(1e-3, 1.0))
        for fn in CHECKS:
            assert abs(fn(pop, t0, t1, lam)) <= 1e-12


def test_identity_case_zero_margins(p2, rng):
    theta = rng.normal(size=1)
    for fn in CHECKS:
        assert abs(fn(p2, theta, theta, 0.1)) <= 1e-15


def test_hess_control_p2_worked_example(p2):
    # theta0=0, theta1=1, lambda=0.1: ratio (H(1)+0.1)/(H(0)+0.1) < e
    margin = check_hess_control(p2, np.zeros(1), np.ones(1), 0.1)
    h1 = 1.0 / (1.0 + math.exp(-1.0)) * (1.0 - 1.0 / (1.0 + math.exp(-1.0)))
    expected = (math.e - (h1 + 0.1) / (0.25 + 0.1)) / math.e
    assert margin > 0
    assert margin == pytest.approx(expected, rel=1e-12)


def test_hess_control_symmetric_consistency(rng):
    for _ in range(20):
        pop = random_population(rng, "logistic")
        t0 = rng.normal(size=pop.dim)
        t1 = rng.normal(size=pop.dim)
        lam = float(rng.uniform(1e-3, 1.0))
        assert check_hess_control(pop, t0, t1, lam) >= -1e-9
        assert check_hess_control(pop, t1, t0, lam) >= -1e-9


def test_single_sample_measure(rng):
    # a single sample is the one-atom population
    z = Sample(features=np.array([0.7, -0.2]), label=1.0)
    pop = FinitePopulation(stack_samples(LogisticLoss(), [z]), np.array([1.0]))
    assert check_hess_control(pop, np.zeros(2), np.ones(2), 0.05) >= -1e-12


def test_hess_control_lambda_zero_requires_pd(rng):
    pop = square_pop(rng, d=3, n=8)
    assert check_hess_control(pop, np.zeros(3), np.ones(3), 0.0) == pytest.approx(0.0, abs=1e-12)
    thin = FinitePopulation(SampleSet(SquareLoss(), [[1.0, 0.0]], [0.0]), np.array([1.0]))
    with pytest.raises(ContractViolation):
        check_hess_control(thin, np.zeros(2), np.ones(2), 0.0)


def test_grad_checks_require_positive_lambda(p2):
    for fn in (check_grad_lower, check_grad_upper):
        with pytest.raises(ContractViolation):
            fn(p2, np.zeros(1), np.ones(1), 0.0)


def test_randomized_small_suite_no_violations():
    reports = run_check_suite(trials_per_case=40, seed=123)
    assert len(reports) == 20
    for (kind, name), rep in reports.items():
        assert rep.violations == 0, (kind, name, rep.worst_margin)
        if kind == "square":
            assert abs(min(rep.worst_margin, 0.0)) <= 1e-12


def test_suite_determinism():
    r1 = run_check_suite(trials_per_case=10, seed=7)
    r2 = run_check_suite(trials_per_case=10, seed=7)
    assert {k: (v.worst_margin, v.violations) for k, v in r1.items()} == \
        {k: (v.worst_margin, v.violations) for k, v in r2.items()}


def test_check_report_validation():
    with pytest.raises(ContractViolation):
        CheckReport(trials=0, violations=0, worst_margin=0.0)


# -- localization -----------------------------------------------------------------


def test_localization_at_solution(p2):
    sol = solve_population(p2, [0.2])
    rec = check_localization(p2, sol.theta_for(0.2), 0.2)
    assert rec.antecedent and rec.consequent and rec.holds
    assert rec.gradient_norm <= 1e-9
    assert rec.seminorm <= 1e-9


def test_localization_perturbed(p2):
    sol = solve_population(p2, [0.2])
    rec = check_localization(p2, sol.theta_for(0.2) + 1e-3, 0.2)
    assert rec.holds and rec.antecedent


def test_localization_square_antecedent_always_true(rng):
    pop = square_pop(rng)
    theta = rng.normal(size=3) * 5.0
    rec = check_localization(pop, theta, 0.3)
    assert math.isinf(rec.radius)
    assert rec.antecedent
    assert rec.seminorm == 0.0
    assert rec.holds


def test_localization_empirical_variant(p2, rng):
    lam = 0.3
    sol = solve_population(p2, [lam])
    n = 64
    sset, w = draw_empirical(p2, rng, n)
    rec = check_localization(p2, sol.theta_for(lam), lam, sset=sset, weights=w)
    assert rec.empirical
    assert rec.holds


def test_localization_sweep_no_counterexamples(p2, rng):
    grid = [2.0 ** -k for k in range(0, 10)]
    sol = solve_population(p2, grid)
    for lam in grid:
        for _ in range(20):
            theta = sol.theta_star + rng.normal(scale=rng.uniform(1e-3, 1.0), size=1)
            assert check_localization(p2, theta, lam).holds


# -- analytic decomposition ----------------------------------------------------------


def draw_empirical(pop, rng, n):
    """The drawn atoms of n i.i.d. draws, weighted by their counts / n."""
    counts = rng.multinomial(n, pop.weights)
    keep = counts > 0
    sset = pop.sample_set
    return SampleSet(pop.loss, sset.features[keep], sset.labels[keep]), counts[keep] / n


def test_decomposition_bound_p1(p1, rng):
    lam = 0.1
    sol = solve_population(p1, [lam])
    sset, w = draw_empirical(p1, rng, 64)
    theta_hat = solve_erm(sset, w, lam).theta_hat
    rec = check_decomposition_bound(p1, sol, lam, sset, w, theta_hat)
    assert rec.applicable  # square loss: guard radius infinite
    assert rec.margin >= -1e-9
    assert rec.lhs >= -1e-12


def test_decomposition_bound_logistic_many_draws(p2, rng):
    lam = 0.15
    sol = solve_population(p2, [lam])
    for _ in range(25):
        sset, w = draw_empirical(p2, rng, 128)
        theta_hat = solve_erm(sset, w, lam).theta_hat
        rec = check_decomposition_bound(p2, sol, lam, sset, w, theta_hat)
        if rec.applicable:
            assert rec.margin >= -1e-9


def test_decomposition_guard_not_applicable_is_not_failure(rng):
    # large feature scale + tiny sample: Varhat above the guard radius
    s = 6.0
    support = SampleSet(LogisticLoss(), [[s], [s], [-s], [-s]], [1.0, -1.0, 1.0, -1.0])
    pop = FinitePopulation(support, np.array([0.4, 0.1, 0.1, 0.4]))
    lam = 0.005
    sol = solve_population(pop, [lam])
    seen_na = False
    for seed in range(40):
        local = np.random.default_rng(seed)
        sset, w = draw_empirical(pop, local, 3)
        try:
            theta_hat = solve_erm(sset, w, lam).theta_hat
        except Exception:
            continue
        rec = check_decomposition_bound(pop, sol, lam, sset, w, theta_hat)
        if not rec.applicable:
            seen_na = True
        else:
            assert rec.margin >= -1e-9
    assert seen_na
