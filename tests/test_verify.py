import math

import numpy as np
import pytest

import scerm.population
import scerm.verify
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
    stack_samples,
)
from scerm.linalg import chol_factor, inv_norm
from scerm.population import (exact_grad, exact_hessian, make_logistic_population,
                              make_source_population)
from scerm.rates import _draw
from scerm.verify import random_population
from test_rotation import rotated

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


def test_grad_checks_require_positive_lambda(p1, p2):
    for fn in (check_grad_lower, check_grad_upper):
        with pytest.raises(ContractViolation):
            fn(p2, np.zeros(1), np.ones(1), 0.0)
    # a NaN lambda passes lam <= 0: check_value_bound returned a NaN margin,
    # which the suite's margin < -slack does not count
    for pop in (p1, p2):
        for lam in (math.nan, math.inf):
            for fn in CHECKS:
                with pytest.raises(ContractViolation, match="finite lambda"):
                    fn(pop, np.zeros(1), np.ones(1), lam)
            with pytest.raises(ContractViolation, match="finite lambda > 0"):
                check_localization(pop, np.ones(1), lam)
            with pytest.raises(ContractViolation, match="finite lambda > 0"):
                check_decomposition_bound(pop, lam, pop.weights, np.ones(1))


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
    rec = check_localization(p2, p2.theta_lambda(0.2), 0.2)
    assert rec.antecedent and rec.consequent and rec.holds
    assert rec.gradient_norm <= 1e-9
    assert rec.seminorm <= 1e-9


def test_localization_perturbed(p2):
    rec = check_localization(p2, p2.theta_lambda(0.2) + 1e-3, 0.2)
    assert rec.holds and rec.antecedent


def test_localization_square_antecedent_always_true(rng):
    pop = square_pop(rng)
    theta = rng.normal(size=3) * 5.0
    rec = check_localization(pop, theta, 0.3)
    assert math.isinf(rec.radius)
    assert rec.antecedent
    assert rec.seminorm == 0.0
    assert rec.holds


@pytest.mark.parametrize("build", [
    lambda: make_source_population(32, 0.5, 1.5, 4),
    lambda: rotated(make_source_population(32, 0.5, 1.5, 4), seed=1),
], ids=["source", "rotated-source"])
def test_square_population_localization_reads_the_eigenpairs(build, monkeypatch):
    """On a square population the population variant answers from the cached
    eigenpairs, as the factor path would, and factors nothing."""
    pop = build()
    rng = np.random.default_rng(9)
    cases = []
    for lam in (1e-3, 0.05, 0.7):
        theta = pop.theta_star + rng.normal(0.0, 0.1, size=pop.dim)
        factor = chol_factor(exact_hessian(pop, theta, lam))
        cases.append((theta, lam, inv_norm(factor, exact_grad(pop, theta, lam))))

    def no_factor(a):
        raise AssertionError("check_localization factored H + lambda")

    monkeypatch.setattr(scerm.verify, "chol_factor", no_factor)
    for theta, lam, expect in cases:
        rec = check_localization(pop, theta, lam)
        assert rec.gradient_norm == pytest.approx(expect, rel=1e-12, abs=0)
        assert math.isinf(rec.radius)
        assert rec.antecedent and rec.consequent and rec.holds
        assert not rec.empirical


def test_localization_empirical_variant(p2, rng):
    lam = 0.3
    w = draw_empirical(p2, rng, 64)
    rec = check_localization(p2, p2.theta_lambda(lam), lam, weights=w)
    assert rec.empirical
    assert rec.holds


def test_localization_sweep_no_counterexamples(p2, rng):
    grid = [2.0 ** -k for k in range(0, 10)]
    for lam in grid:
        for _ in range(20):
            theta = p2.theta_star + rng.normal(scale=rng.uniform(1e-3, 1.0), size=1)
            assert check_localization(p2, theta, lam).holds


# -- analytic decomposition ----------------------------------------------------------


def draw_empirical(pop, rng, n):
    """Count weights counts / n over the population's atoms of n i.i.d. draws."""
    return rng.multinomial(n, pop.weights) / n


def test_decomposition_bound_p1(p1, rng):
    lam = 0.1
    w = draw_empirical(p1, rng, 64)
    theta_hat = solve_erm(p1.sample_set, w, lam).theta_hat
    rec = check_decomposition_bound(p1, lam, w, theta_hat)
    assert rec.applicable  # square loss: guard radius infinite
    assert rec.margin >= -1e-9
    assert rec.lhs >= -1e-12


def test_decomposition_bound_logistic_many_draws(p2, rng):
    lam = 0.15
    for _ in range(25):
        w = draw_empirical(p2, rng, 128)
        theta_hat = solve_erm(p2.sample_set, w, lam).theta_hat
        rec = check_decomposition_bound(p2, lam, w, theta_hat)
        if rec.applicable:
            assert rec.margin >= -1e-9


def test_decomposition_guard_not_applicable_is_not_failure(rng):
    # large feature scale + tiny sample: Varhat above the guard radius
    s = 6.0
    support = SampleSet(LogisticLoss(), [[s], [s], [-s], [-s]], [1.0, -1.0, 1.0, -1.0])
    pop = FinitePopulation(support, np.array([0.4, 0.1, 0.1, 0.4]))
    lam = 0.005
    seen_na = False
    for seed in range(40):
        local = np.random.default_rng(seed)
        w = draw_empirical(pop, local, 3)
        try:
            theta_hat = solve_erm(pop.sample_set, w, lam).theta_hat
        except Exception:
            continue
        rec = check_decomposition_bound(pop, lam, w, theta_hat)
        if not rec.applicable:
            seen_na = True
        else:
            assert rec.margin >= -1e-9
    assert seen_na


# -- count weights over the population ------------------------------------------------

BAD_WEIGHTS = [
    pytest.param(lambda w: w[:-1], id="wrong-length"),
    pytest.param(lambda w: np.r_[-0.5, w[1:] + (w[0] + 0.5) / (w.size - 1)], id="negative"),
    pytest.param(lambda w: 3.0 * w, id="sums-to-3"),
]


@pytest.mark.parametrize("corrupt", BAD_WEIGHTS)
def test_empirical_checks_reject_bad_weights(corrupt):
    pop = make_logistic_population(4, 1.0, 1)
    lam = 0.1
    w = corrupt(_draw(pop, 64, 0, 0, 0)[0])
    with pytest.raises(ContractViolation):
        check_localization(pop, pop.theta_lambda(lam), lam, weights=w)
    with pytest.raises(ContractViolation):
        check_decomposition_bound(pop, lam, w, pop.theta_lambda(lam))


@pytest.mark.parametrize("empirical", [False, True])
def test_localization_factors_population_hessian_once(monkeypatch, empirical):
    pop = make_logistic_population(4, 1.0, 1)
    lam, theta = 0.1, np.full(pop.dim, 0.2)
    h_lam = exact_hessian(pop, theta, lam)
    factored = []

    def spy(a):
        factored.append(np.array_equal(a, h_lam))
        return chol_factor(a)

    monkeypatch.setattr(scerm.verify, "chol_factor", spy)
    monkeypatch.setattr(scerm.population, "chol_factor", spy)
    w = _draw(pop, 256, 0, 0, 0)[0] if empirical else None
    check_localization(pop, theta, lam, weights=w)
    assert sum(factored) == 1
