import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scerm.population
import scerm.verify
from scerm import (
    ContractViolation,
    FinitePopulation,
    LogisticLoss,
    NonConvergenceError,
    Sample,
    SampleSet,
    SoftmaxGLMLoss,
    SquareLoss,
    bias_lambda,
    check_decomposition_bound,
    check_localization,
    compute_diagnostics,
    constants_at,
    default_lambda_grid,
    df_lambda,
    dikin_radius,
    estimate_capacity_exponent,
    estimate_source_exponent,
    exact_grad,
    exact_hessian,
    exact_risk,
    gradient_concentration_experiment,
    make_logistic_population,
    make_source_population,
    solve_erm,
    stack_samples,
    t_lambda,
)
from scerm.losses import _sigmoid, sup_constants
from scerm.population import pointwise_bounds, sup_norm_certificate
from scerm.scfun import LOG2
from test_rotation import rotated


def well_specified_logistic(rng, d=3, n_x=6, scale=1.0):
    """Logistic population whose conditional law is exactly the model's."""
    theta_star = rng.normal(size=d) * 0.5
    xs = rng.normal(size=(n_x, d)) * scale
    base_w = rng.uniform(0.5, 1.5, size=n_x)
    base_w /= base_w.sum()
    atoms, weights = [], []
    for i in range(n_x):
        m = float(xs[i] @ theta_star)
        p = 1.0 / (1.0 + math.exp(-m))
        atoms.append(Sample(features=xs[i], label=1.0))
        weights.append(base_w[i] * p)
        atoms.append(Sample(features=xs[i], label=-1.0))
        weights.append(base_w[i] * (1.0 - p))
    return FinitePopulation(stack_samples(LogisticLoss(), atoms), np.asarray(weights)), theta_star


# -- exact oracle examples -----------------------------------------------------


def test_p1_exact_risk(p1):
    assert exact_risk(p1, np.zeros(1), 0.0) == pytest.approx(1.0, abs=0)


def test_p1_exact_hessian(p1):
    np.testing.assert_allclose(exact_hessian(p1, np.zeros(1), 0.0), [[1.0]], atol=0)


def test_p2_hessian_at_log3(p2):
    h = exact_hessian(p2, np.array([math.log(3.0)]), 0.0)
    np.testing.assert_allclose(h, [[0.1875]], atol=1e-14)


def test_exact_hessian_ridge_eigenvalues(p2):
    lam = 0.3
    h = exact_hessian(p2, np.zeros(1), lam)
    assert np.linalg.eigvalsh(h)[0] >= lam - 1e-12


def test_p1_minimizers(p1):
    assert p1.theta_star == pytest.approx([1.0], abs=1e-10)
    assert p1.theta_lambda(1.0) == pytest.approx([0.5], abs=1e-10)


def test_p2_minimizer(p2):
    assert p2.theta_star == pytest.approx([math.log(3.0)], abs=1e-9)


def test_separable_population_minimum_not_attained():
    # atoms [1] -> +1 and [-1] -> -1: the risk decreases toward 0 as theta -> inf,
    # so the vanishing lambda = 0 decrement must not be reported as convergence
    pop = FinitePopulation(SampleSet(LogisticLoss(), [[1.0], [-1.0]], [1.0, -1.0]),
                           np.array([0.5, 0.5]))
    with pytest.raises(NonConvergenceError, match="not attained") as err:
        pop.theta_star
    assert err.value.trace[-1] <= 1e-12
    with pytest.raises(NonConvergenceError, match="not attained"):  # a failure is not cached
        pop.theta_star
    assert pop.theta_lambda(0.1)[0] > 0.0


def test_p1_bias(p1):
    assert bias_lambda(p1, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert bias_lambda(p1, 3.0) == pytest.approx(1.5, abs=1e-12)


def test_p1_df(p1):
    assert df_lambda(p1, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_p2_df_bartlett_value(p2):
    assert df_lambda(p2, 3.0 / 16.0) == pytest.approx(0.5, abs=1e-10)


def test_df_vanishes_at_huge_lambda(p2):
    _, b2 = pointwise_bounds(p2, p2.theta_star)
    lam = 1e6 * b2
    assert df_lambda(p2, lam) < 1e-4 * p2.dim


def test_dikin_square_infinite(p1):
    assert dikin_radius(p1, np.array([0.3]), 0.5) == math.inf


def test_dikin_p2_value(p2):
    r = dikin_radius(p2, p2.theta_star, 1.0 / 16.0)
    assert r == pytest.approx(0.5, abs=1e-9)


def test_dikin_scaling_at_huge_lambda(p2):
    lam = 1e6
    assert dikin_radius(p2, p2.theta_star, lam) / math.sqrt(lam) == pytest.approx(1.0, rel=1e-6)


def test_dikin_lower_bound_sqrt_lambda_over_r(p2):
    r_cert = sup_norm_certificate(p2)
    for lam in (1e-3, 0.1, 2.0):
        assert dikin_radius(p2, p2.theta_star, lam) >= math.sqrt(lam) / r_cert - 1e-12


def test_t_lambda_square_zero(p1):
    assert t_lambda(p1, 0.25) == 0.0


def test_t_lambda_p2(p2):
    lam = 0.01
    expect = abs(float(p2.theta_lambda(lam)[0]) - math.log(3.0))
    assert t_lambda(p2, lam) == pytest.approx(expect, rel=1e-9)


def test_t_lambda_vanishes_small_lambda(p2):
    grid = [1e-3, 1e-5, 1e-7]
    vals = [t_lambda(p2, lam) for lam in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-5


def test_lambda_contracts(p1):
    for fn in (bias_lambda, df_lambda, t_lambda, FinitePopulation.theta_lambda):
        with pytest.raises(ContractViolation):
            fn(p1, 0.0)
    with pytest.raises(ContractViolation):
        dikin_radius(p1, np.zeros(1), -1.0)


# -- population solutions, each solved once ------------------------------------------


def test_theta_star_and_each_lambda_solved_once(monkeypatch):
    solve = scerm.population.newton_minimize
    lams = []

    def counted(sset, weights, lam, config=None, **kwargs):
        lams.append(lam)
        return solve(sset, weights, lam, config, **kwargs)

    monkeypatch.setattr(scerm.population, "newton_minimize", counted)
    pop = make_logistic_population(4, 1.0, 1)
    constants_at(pop, 0.1)
    compute_diagnostics(pop, [0.2, 0.1, 0.05])
    w = np.random.default_rng(3).multinomial(64, pop.weights) / 64
    check_decomposition_bound(pop, 0.1, w, solve_erm(pop.sample_set, w, 0.1).theta_hat)
    gradient_concentration_experiment(pop, 0.2, n=64, replicates=2, delta=0.1, k=4.0)
    assert sorted(lams) == [0.0, 0.05, 0.1, 0.2]
    assert pop.theta_lambda(0.1) is pop.theta_lambda(0.1)


def test_square_loss_seminorms_solve_only_theta_star(monkeypatch):
    """The square loss's certificate set is {0}: t_lambda and both
    localization variants read seminorm 0 without solving theta*_lambda or a
    draw's minimizer, so theta* is the one solve."""
    solve = scerm.population.newton_minimize
    lams = []

    def counted(sset, weights, lam, config=None, **kwargs):
        lams.append(lam)
        return solve(sset, weights, lam, config, **kwargs)

    monkeypatch.setattr(scerm.population, "newton_minimize", counted)
    monkeypatch.setattr(scerm.verify, "newton_minimize", counted)
    pop = make_source_population(16, 0.5, 1.0, 0)
    assert t_lambda(pop, lam=0.1) == 0.0
    constants_at(pop, lam=0.1)
    compute_diagnostics(pop, [0.2, 0.1, 0.05])
    theta = pop.theta_star + 0.1
    w = np.random.default_rng(3).multinomial(64, pop.weights) / 64
    records = [check_localization(pop, theta, 0.1), check_localization(pop, theta, 0.1, w)]
    assert [(r.seminorm, r.radius, r.holds) for r in records] == [(0.0, math.inf, True)] * 2
    assert lams == [0.0]


def test_failed_theta_lambda_solve_is_not_cached(monkeypatch, p2):
    solve = scerm.population.newton_minimize
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise NonConvergenceError("forced failure", [])
        return solve(*args, **kwargs)

    monkeypatch.setattr(scerm.population, "newton_minimize", fail_first)
    with pytest.raises(NonConvergenceError):
        p2.theta_lambda(0.2)
    assert np.linalg.norm(exact_grad(p2, p2.theta_lambda(0.2), 0.2)) <= 1e-9
    assert len(calls) == 2


def test_cached_solutions_are_read_only(p2):
    with pytest.raises(ValueError):
        p2.hessian_at_star[0, 0] = 1.0
    with pytest.raises(ValueError):
        p2.theta_star[0] = 1.0
    with pytest.raises(ValueError):
        p2.theta_lambda(0.2)[0] = 1.0


def counted_weighted_hess(monkeypatch):
    """Record every SampleSet.weighted_hess call; returns the list of calls."""
    build = SampleSet.weighted_hess
    calls = []

    def counted(self, weights, theta):
        calls.append(None)
        return build(self, weights, theta)

    monkeypatch.setattr(SampleSet, "weighted_hess", counted)
    return calls


def test_square_population_hessian_built_once(monkeypatch):
    calls = counted_weighted_hess(monkeypatch)
    pop = make_source_population(16, 0.5, 1.0, 0)
    pop.theta_star, pop.hessian_at_star, pop.spectrum
    for lam in (0.5, 0.1, 0.02):
        pop.theta_lambda(lam)
    rng = np.random.default_rng(5)
    for lam in (0.0, 0.1):
        h = exact_hessian(pop, rng.normal(size=16), lam)
        np.testing.assert_array_equal(h, pop.hessian_at_star + lam * np.eye(16))
    check_localization(pop, pop.theta_star, 0.1)
    assert len(calls) == 1


def test_logistic_population_hessian_follows_theta(monkeypatch):
    calls = counted_weighted_hess(monkeypatch)
    pop = make_logistic_population(4, 1.0, 1)
    h0 = exact_hessian(pop, np.zeros(4), 0.1)
    h1 = exact_hessian(pop, np.full(4, 0.5), 0.1)
    assert len(calls) == 2
    assert not np.allclose(h0, h1)


def test_square_exact_hessian_is_a_fresh_copy(p1):
    cached = p1.hessian_at_star
    h = exact_hessian(p1, np.zeros(1), 0.0)
    h[0, 0] = 7.0
    assert cached[0, 0] == 1.0
    assert exact_hessian(p1, np.zeros(1), 0.0)[0, 0] == 1.0
    assert exact_hessian(p1, np.zeros(1), 0.5)[0, 0] == 1.5
    with pytest.raises(ValueError):
        cached[0, 0] = 1.0
    with pytest.raises(ContractViolation):
        exact_hessian(p1, np.zeros(2), 0.0)


# -- solution invariants ----------------------------------------------------------


def test_gradient_norms_at_solutions(p2):
    grid = [0.5, 0.1, 0.01]
    assert np.linalg.norm(exact_grad(p2, p2.theta_star, 0.0)) <= 1e-10
    for lam in grid:
        assert np.linalg.norm(exact_grad(p2, p2.theta_lambda(lam), lam)) <= 1e-9


def test_monotone_shrinkage(rng):
    pop, _ = well_specified_logistic(rng)
    grid = [2.0 ** -k for k in range(0, 10)]
    star_norm = np.linalg.norm(pop.theta_star)
    for lam in grid:
        assert np.linalg.norm(pop.theta_lambda(lam)) <= star_norm + 1e-10


def test_bias_monotone_df_antitone(rng):
    pop, _ = well_specified_logistic(rng)
    grid = sorted([2.0 ** -k for k in range(0, 12)])
    biases = [bias_lambda(pop, lam) for lam in grid]
    dfs = [df_lambda(pop, lam) for lam in grid]
    assert all(b <= a + 1e-12 for a, b in zip(biases[1:], biases))  # increasing in lambda
    assert all(b >= a - 1e-12 for a, b in zip(dfs[1:], dfs))  # decreasing in lambda


def test_bias_and_df_global_bounds(rng):
    pop, _ = well_specified_logistic(rng)
    b1_star, _ = pointwise_bounds(pop, pop.theta_star)
    star_norm = np.linalg.norm(pop.theta_star)
    for lam in (1e-4, 1e-2, 0.5, 4.0):
        assert bias_lambda(pop, lam) <= math.sqrt(lam) * star_norm + 1e-12
        assert df_lambda(pop, lam) <= min(pop.dim, b1_star**2 / lam) + 1e-10


# -- closed-form identities ---------------------------------------------------------


def unit_noise_square_population(rng, d=4, n_x=6):
    """y = theta*.Phi +- 1, so E[resid^2|x] = 1 and the ridge identities hold."""
    theta_star = rng.normal(size=d)
    xs = rng.normal(size=(n_x, d))
    base_w = rng.uniform(0.5, 1.5, size=n_x)
    base_w /= base_w.sum()
    atoms, weights = [], []
    for i in range(n_x):
        mean = float(xs[i] @ theta_star)
        for eps in (1.0, -1.0):
            atoms.append(Sample(features=xs[i], label=mean + eps))
            weights.append(base_w[i] / 2.0)
    pop = FinitePopulation(stack_samples(SquareLoss(), atoms), np.asarray(weights))
    return pop, theta_star


def assert_columns_match_constants(pop, grid):
    report = compute_diagnostics(pop, grid)
    for i, lam in enumerate(report.lambda_grid):
        c = constants_at(pop, lam)
        for name in ("bias", "df", "dikin", "t_lambda"):
            np.testing.assert_allclose(getattr(report, name)[i], getattr(c, name), rtol=1e-12)


def test_square_closed_forms(rng):
    pop, theta_star = unit_noise_square_population(rng)
    np.testing.assert_allclose(pop.theta_star, theta_star, atol=1e-9)
    cov = exact_hessian(pop, theta_star, 0.0)
    for lam in (1e-3, 0.05, 0.7, 3.0):
        cov_lam = cov + lam * np.eye(pop.dim)
        bias_expect = lam * math.sqrt(theta_star @ np.linalg.solve(cov_lam, theta_star))
        df_expect = float(np.trace(np.linalg.solve(cov_lam, cov)))
        assert abs(bias_lambda(pop, lam) - bias_expect) < 1e-10
        assert abs(df_lambda(pop, lam) - df_expect) < 1e-10
    assert_columns_match_constants(pop, [1e-3, 0.05, 0.7, 3.0])


def test_bartlett_identity_and_df(rng):
    pop, _ = well_specified_logistic(rng)
    grads = pop.sample_set.grads(pop.theta_star)
    outer = (grads.T * pop.weights) @ grads
    h = exact_hessian(pop, pop.theta_star, 0.0)
    np.testing.assert_allclose(outer, h, atol=1e-10)
    for lam in (1e-3, 0.1, 1.0):
        df_expect = float(np.trace(np.linalg.solve(h + lam * np.eye(pop.dim), h)))
        assert abs(df_lambda(pop, lam) - df_expect) < 1e-10
    assert_columns_match_constants(pop, [1e-3, 0.1, 1.0])


# -- localization bound at grid points -----------------------------------------------


def test_lemma_localization_bound_over_grid(rng):
    pop, _ = well_specified_logistic(rng)
    _, b2_star = pointwise_bounds(pop, pop.theta_star)
    grid = default_lambda_grid(b2_star, 0, 12)
    report = compute_diagnostics(pop, grid)  # raises on violation
    r_cert = sup_norm_certificate(pop)
    star_norm = np.linalg.norm(pop.theta_star)
    for i in range(report.lambda_grid.size):
        if report.bias[i] <= report.dikin[i] / 2.0:
            assert report.t_lambda[i] <= LOG2 + 1e-12
        else:
            assert report.t_lambda[i] <= 2.0 * r_cert * star_norm + 1e-12


# -- constants -------------------------------------------------------------------------


def small_population(rng, kind):
    """Population whose risk has a unique minimizer: generic features and,
    for the likelihood losses, every label present at every feature."""
    d = int(rng.integers(1, 4))
    n_x = int(rng.integers(d + 1, d + 4))
    base = rng.uniform(0.5, 1.5, size=n_x)
    atoms, weights = [], []
    if kind == "square":
        loss = SquareLoss()
        for i in range(n_x):
            atoms.append(Sample(features=rng.normal(size=d), label=float(rng.normal())))
            weights.append(base[i])
    elif kind == "logistic":
        loss = LogisticLoss()
        for i in range(n_x):
            x, p = rng.normal(size=d), rng.uniform(0.2, 0.8)
            atoms += [Sample(features=x, label=1.0), Sample(features=x, label=-1.0)]
            weights += [base[i] * p, base[i] * (1.0 - p)]
    else:
        n_labels = int(rng.integers(2, 4))
        loss = SoftmaxGLMLoss(rng.uniform(0.5, 2.0, size=n_labels))
        for i in range(n_x):
            feats = rng.normal(size=(n_labels, d))
            probs = rng.dirichlet(np.ones(n_labels))
            atoms += [Sample(features=feats, label=y) for y in range(n_labels)]
            weights += list(base[i] * probs)
    weights = np.asarray(weights) / np.sum(weights)
    return FinitePopulation(stack_samples(loss, atoms), weights)


def assert_constants_close(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, str):
            assert x == y, field.name
        else:
            assert x == y or math.isclose(x, y, rel_tol=1e-10), (field.name, x, y)


@given(kind=st.sampled_from(["square", "logistic", "softmax_glm"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       lam=st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_constants_invariant_to_atom_order_and_splitting(kind, seed, lam):
    rng = np.random.default_rng(seed)
    pop = small_population(rng, kind)
    feats, labels = pop.sample_set.features, pop.sample_set.labels
    perm = rng.permutation(len(labels))
    permuted = FinitePopulation(SampleSet(pop.loss, feats[perm], labels[perm]), pop.weights[perm])
    j = int(rng.integers(len(labels)))
    halves = np.append(pop.weights, pop.weights[j] / 2.0)
    halves[j] /= 2.0
    rows = np.append(np.arange(len(labels)), j)
    split = FinitePopulation(SampleSet(pop.loss, feats[rows], labels[rows]), halves)
    expect = constants_at(pop, lam)
    for other in (permuted, split):
        assert_constants_close(expect, constants_at(other, lam))


def test_constants_at_zero_t(p1):
    c = constants_at(p1, 0.5)
    assert c.t_lambda == 0.0
    assert c.t_tilde == 0.0
    assert c.branch == "universal"
    # 2 psi(log 2) evaluated numerically
    assert c.k_bias == pytest.approx(1.277347880233289, abs=1e-12)
    assert c.shift1 == 1.0
    assert c.shift2 == 2.0


def test_basic_constants_bounds(p1):
    c = constants_at(p1, 0.5)
    assert c.k_var_basic == pytest.approx(3.1492233334330244, abs=1e-12)
    assert c.k_var_basic <= 4.0
    assert c.bern_basic <= 4.0
    assert c.c_bias_basic <= 2.0
    assert c.c_var_basic <= 84.0


def test_constants_universal_branch_bounds(rng):
    from scerm.population import _constants_from_t

    # at t = log 2 (the universal branch's worst case) the paper's numeric caps hold
    c = _constants_from_t(0.1, LOG2, bias=0.5, df=1.0, dikin=1.0)
    assert c.k_bias <= 4.0
    assert c.k_var == pytest.approx(6.454822555520439, abs=1e-12)
    assert c.k_var <= 7.0
    assert c.shift1 <= 2.0
    assert c.shift2 <= 5.0
    assert c.n_factor_hessian <= 5184.0
    assert c.n_factor_variance <= 1024.0
    assert c.c_bias <= 6.0
    assert c.c_var <= 414.0


def test_constants_exponential_bounds(rng):
    from scerm.population import _constants_from_t

    for tla in rng.uniform(0.0, 3.0, size=25):
        c = _constants_from_t(0.1, tla, bias=1.0, df=1.0, dikin=1.0)
        assert c.k_bias <= 2.0 * math.exp(3.0 * tla) + 1e-9
        assert c.k_var <= 8.0 * math.exp(2.0 * tla) + 1e-9
        assert c.shift2 <= 2.0 * math.exp(1.5 * tla) + 1e-9
        assert c.c_bias <= 6.0 * math.exp(2.0 * tla) + 1e-9
        assert c.c_var <= 256.0 * math.exp(3.0 * tla) + 1e-9
        assert c.n_factor_variance <= 256.0 * math.exp(2.0 * tla) + 1e-9


# -- synthetic constructions -------------------------------------------------------------


def test_source_population_structure():
    pop = make_source_population(d=8, r=0.5, alpha=2.0, seed=3)
    meta = pop.meta
    cov = exact_hessian(pop, np.zeros(8), 0.0)
    np.testing.assert_allclose(cov, np.diag(meta.hess_eigenvalues), atol=1e-12)
    np.testing.assert_allclose(meta.hess_eigenvalues,
                               np.arange(1, 9, dtype=float) ** -2.0, atol=0)
    # theta* = C^r v with ||v|| = 1
    v = meta.theta_star / meta.hess_eigenvalues**0.5
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    # population minimizer is theta*
    np.testing.assert_allclose(pop.theta_star, meta.theta_star, atol=1e-10)


def test_source_population_bias_bound_r_half():
    pop = make_source_population(d=16, r=0.5, alpha=2.0, seed=0)
    cov = pop.hessian_at_star
    # r = 1/2: Bias_lam / lam <= ||C^{-1/2} theta*|| = ||v|| = 1
    for lam in (1e-4, 1e-2, 0.5):
        assert bias_lambda(pop, lam) / lam <= 1.0 + 1e-10
    del cov


def test_source_population_r_zero():
    pop = make_source_population(d=16, r=0.0, alpha=1.5, seed=1)
    meta = pop.meta
    # H^0 = I: theta* = v, unit norm
    assert np.linalg.norm(meta.theta_star) == pytest.approx(1.0, abs=1e-12)
    for lam in (1e-3, 0.1, 1.0):
        assert bias_lambda(pop, lam) <= math.sqrt(lam) * 1.0 + 1e-12


def test_source_population_capacity_q():
    pop = make_source_population(d=32, r=0.5, alpha=2.0, seed=2)
    meta = pop.meta
    for lam in np.geomspace(1e-4, 1.0, 9):
        assert df_lambda(pop, lam) <= meta.capacity_q * lam ** (-1.0 / meta.alpha) + 1e-9


def test_source_population_df_capacity_slope_example():
    # d=64, alpha=2: df at lambda and lambda/16 differ by at most ~ a factor 4
    pop = make_source_population(d=64, r=0.5, alpha=2.0, seed=5)
    lam = 2.0**-6
    ratio = df_lambda(pop, lam / 16.0) / df_lambda(pop, lam)
    assert ratio <= 4.3


def test_source_population_validation():
    with pytest.raises(ContractViolation):
        make_source_population(d=1, r=0.5, alpha=2.0, seed=0)
    with pytest.raises(ContractViolation):
        make_source_population(d=8, r=0.8, alpha=2.0, seed=0)
    with pytest.raises(ContractViolation):
        make_source_population(d=8, r=0.5, alpha=0.5, seed=0)


def test_source_slopes_recovered_within_tolerance():
    # measured bias and df slopes over the df-gated central window match the
    # prescribed exponents within 0.1
    for (d, r, alpha) in [(64, 0.5, 2.0), (64, 0.25, 2.0), (128, 0.4, 1.5)]:
        pop = make_source_population(d=d, r=r, alpha=alpha, seed=9)
        grid = 2.0 ** -np.arange(2, int(alpha * math.log2(d)) + 2)
        report = compute_diagnostics(pop, grid)
        assert abs(report.fitted_r.slope - (1 + 2 * r) / 2) <= 0.1, (d, r, alpha)
        assert abs(-1.0 / report.fitted_alpha.value - (-1.0 / alpha)) <= 0.1 / alpha or \
            abs(report.fitted_alpha.slope - (-1.0 / alpha)) <= 0.1, (d, r, alpha)


def test_exponent_recovery_spec_grid():
    pop = make_source_population(d=64, r=0.5, alpha=2.0, seed=11)
    grid = 2.0 ** -np.arange(4, 15)
    report = compute_diagnostics(pop, grid)
    assert 0.4 <= report.fitted_r.value <= 0.6
    assert 1.7 <= report.fitted_alpha.value <= 2.3


def test_capacity_estimate_flags_finite_dimension(p1):
    grid = 2.0 ** -np.arange(0, 14)
    report = compute_diagnostics(p1, grid)
    # d = 1: df saturates at 1, slope -> 0, alpha_hat flagged as large
    assert report.fitted_alpha.value > 10 or math.isinf(report.fitted_alpha.value)


def test_estimators_reject_degenerate_grid(p1):
    # fewer than 3 distinct lambdas: the report carries no fit, and the
    # estimators refuse one
    for grid in ([0.5, 0.25], [0.5, 0.5, 0.25]):
        report = compute_diagnostics(p1, grid)
        assert report.fitted_r is None and report.fitted_alpha is None
        with pytest.raises(ContractViolation):
            estimate_source_exponent(report)
        with pytest.raises(ContractViolation):
            estimate_capacity_exponent(report)


@pytest.mark.parametrize("make, kwargs", [
    pytest.param(make_source_population, dict(d=6, r=0.25, alpha=1.5, seed=3), id="source"),
    pytest.param(make_source_population, dict(d=2, r=0.0, alpha=1.0, seed=0), id="source-d2-r0"),
    # case (b), the benchmarked population
    pytest.param(make_source_population, dict(d=256, r=0.5, alpha=1.0, seed=102), id="case-b"),
    pytest.param(make_logistic_population, dict(d=5, alpha=1.0, seed=4), id="logistic"),
    pytest.param(make_logistic_population, dict(d=1, alpha=0.0, seed=0), id="logistic-d1-alpha0"),
])
def test_generators_match_per_atom_loops(make, kwargs):
    """Each construction equals the per-atom loop it is written from: 4 atoms
    per direction j, at +s_j e_j twice and -s_j e_j twice, with label signs
    +, -, +, -."""
    pop = make(**kwargs)
    d, theta_star = kwargs["d"], pop.meta.theta_star
    square = make is make_source_population
    if square:
        eigs = pop.meta.hess_eigenvalues
        probs = np.sqrt(eigs) / np.sqrt(eigs).sum()
        scales = np.sqrt(eigs / probs)
    else:
        scales = pop.sample_set.features[::4].max(axis=1)
        base = 1.0 / (2 * d)
    atoms, weights = [], []
    for j in range(d):
        for sign_phi in (1.0, -1.0):
            phi = np.zeros(d)
            phi[j] = sign_phi * scales[j]
            if square:
                for eps in (1.0, -1.0):
                    atoms.append(Sample(features=phi,
                                        label=theta_star[j] * sign_phi * scales[j] + eps))
                    weights.append(probs[j] / 4.0)
            else:
                p_plus = float(_sigmoid(theta_star[j] * phi[j]))
                atoms += [Sample(features=phi, label=1.0), Sample(features=phi, label=-1.0)]
                weights += [base * p_plus, base * (1.0 - p_plus)]
    expect = stack_samples(pop.loss, atoms)
    np.testing.assert_array_equal(pop.sample_set.features, expect.features)
    np.testing.assert_array_equal(pop.sample_set.labels, expect.labels)
    if square:
        weights = np.asarray(weights) / np.sum(weights)
    np.testing.assert_array_equal(pop.weights, weights)


def test_logistic_population_construction():
    pop = make_logistic_population(d=8, alpha=1.0, seed=4)
    meta = pop.meta
    np.testing.assert_allclose(pop.theta_star, meta.theta_star, atol=1e-9)
    h = exact_hessian(pop, pop.theta_star, 0.0)
    np.testing.assert_allclose(h, np.diag(meta.hess_eigenvalues), atol=1e-10)
    # well-specified: Bartlett holds
    grads = pop.sample_set.grads(pop.theta_star)
    outer = (grads.T * pop.weights) @ grads
    np.testing.assert_allclose(outer, h, atol=1e-10)


def _no_per_atom_grads(monkeypatch):
    def grads(self, theta):
        raise AssertionError("SampleSet.grads built the per-atom gradient matrix")
    monkeypatch.setattr(SampleSet, "grads", grads)


@pytest.mark.parametrize("build", [
    lambda: make_source_population(64, 0.5, 2.0, 101),
    lambda: make_logistic_population(16, 1.0, 103),
    lambda: rotated(make_source_population(64, 0.5, 2.0, 101), seed=0),
], ids=["source", "logistic", "rotated-source"])
def test_scalar_population_quantities_skip_per_atom_gradients(build, monkeypatch):
    pop = build()
    _no_per_atom_grads(monkeypatch)
    _ = pop.spectrum
    pointwise_bounds(pop, pop.theta_star)
    sup_constants(pop.sample_set, float(np.linalg.norm(pop.theta_star)))


def test_softmax_population_quantities_read_per_atom_gradients(monkeypatch):
    pop = small_population(np.random.default_rng(5), "softmax_glm")
    _no_per_atom_grads(monkeypatch)
    with pytest.raises(AssertionError, match="per-atom"):
        _ = pop.spectrum
    with pytest.raises(AssertionError, match="per-atom"):
        pointwise_bounds(pop, pop.theta_star)


def test_default_lambda_grid_respects_cap():
    grid = default_lambda_grid(0.2, 0, 16)
    assert np.all(grid <= 0.2)
    assert np.all(grid > 0)


def test_population_validation():
    one = SampleSet(SquareLoss(), [[1.0]], [0.0])
    two = SampleSet(SquareLoss(), [[1.0], [1.0]], [0.0, 0.0])
    with pytest.raises(ContractViolation):
        FinitePopulation(one, np.array([0.5]))
    with pytest.raises(ContractViolation):
        FinitePopulation(two, np.array([1.5, -0.5]))
    with pytest.raises(ContractViolation):
        FinitePopulation(two, np.array([np.nan, 0.5]))
    with pytest.raises(ContractViolation):
        FinitePopulation(two, np.array([1.0]))
