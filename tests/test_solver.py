import dataclasses
import functools
import inspect
import math

import numpy as np
import pytest

from scerm import (
    ContractViolation,
    LogisticLoss,
    NonConvergenceError,
    Sample,
    SampleSet,
    SoftmaxGLMLoss,
    SolverConfig,
    SquareLoss,
    make_logistic_population,
    make_source_population,
    solve_erm,
    stack_samples,
)
from scerm import solver
from scerm.rates import _draw
from conftest import starve_first_row
from test_rotation import rotated


def ridge_instance(rng, d, n):
    x = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    w = rng.uniform(0.2, 1.0, size=n)
    w /= w.sum()
    return SampleSet(SquareLoss(), x, y), w, x, y


def ridge_closed_form(x, y, w, lam):
    d = x.shape[1]
    a = (x.T * w) @ x + lam * np.eye(d)
    return np.linalg.solve(a, x.T @ (w * y))


def counting(monkeypatch):
    """Count weighted_hess calls and record the shape of every matrix the
    solver factors."""
    calls = {"weighted_hess": 0, "factored": []}
    build, factor = SampleSet.weighted_hess, solver.chol_factor

    def counted_build(*args, **kwargs):
        calls["weighted_hess"] += 1
        return build(*args, **kwargs)

    def recorded_factor(a):
        calls["factored"].append(a.shape)
        return factor(a)

    monkeypatch.setattr(SampleSet, "weighted_hess", counted_build)
    monkeypatch.setattr(solver, "chol_factor", recorded_factor)
    return calls


# 40 rows in d=5 take the primal path, which builds and factors the (5, 5)
# Hessian; 6 rows in d=8 take the row-span path, which factors a (6, 6)
# system and builds no Hessian
@pytest.mark.parametrize("d, n, builds, factored", [(5, 40, 1, (5, 5)), (8, 6, 0, (6, 6))],
                         ids=["primal", "row-span"])
def test_square_converges_in_one_step(rng, monkeypatch, d, n, builds, factored):
    sset, w, x, y = ridge_instance(rng, d, n)
    calls = counting(monkeypatch)
    res = solve_erm(sset, w, 0.1)
    # the constant Hessian, or the row-span system, is factored once for both iterations
    assert calls == {"weighted_hess": builds, "factored": [factored]}
    assert res.iterations == 1
    assert len(res.decrement_trace) == 2
    assert res.decrement_trace[1] <= 1e-10
    assert not res.theta_hat.flags.writeable
    # each decrement is sqrt(g^T (H + lambda I)^{-1} g) at its iterate
    h = (x.T * w) @ x + 0.1 * np.eye(d)
    for dec, theta in zip(res.decrement_trace, (np.zeros(d), res.theta_hat)):
        g = x.T @ (w * (x @ theta - y)) + 0.1 * theta
        assert dec == pytest.approx(math.sqrt(g @ np.linalg.solve(h, g)), rel=1e-12, abs=1e-14)


def test_row_span_path_is_chosen_by_the_input(rng, monkeypatch):
    # 6 rows in d=8: the (d, d) reference builds and factors the (8, 8) H
    sset, w, x, y = ridge_instance(rng, 8, 6)
    calls = counting(monkeypatch)
    res = solver._quadratic_minimize(sset, w, 0.1, SolverConfig())
    assert calls == {"weighted_hess": 1, "factored": [(8, 8)]}
    np.testing.assert_allclose(res.theta_hat, ridge_closed_form(x, y, w, 0.1), atol=1e-10)
    # fewer than d rows keep a lambda = 0 solve on the (d, d) path; rows with
    # a zero last coordinate have a singular Hessian, so the solve fails
    x[:, -1] = 0.0
    with pytest.raises(NonConvergenceError, match="not positive definite") as err:
        solver.newton_minimize(SampleSet(SquareLoss(), x, y), w, 0.0)
    assert err.value.trace == ()
    assert calls == {"weighted_hess": 2, "factored": [(8, 8), (8, 8)]}
    # rows of weight 0 leave the row-span system, and a repeated or negated
    # row is one row
    x = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [-1.0, -2.0, 0.0], [3.0, 0.0, 1.0]])
    y = np.array([1.0, -1.0, 0.5, 2.0])
    w = np.array([0.25, 0.0, 0.25, 0.5])
    res = solve_erm(SampleSet(SquareLoss(), x, y), w, 0.1)
    assert calls["factored"][-1] == (2, 2)
    np.testing.assert_allclose(res.theta_hat, ridge_closed_form(x, y, w, 0.1), atol=1e-12)


def test_lambda_zero_over_d_kept_rows_solves_in_the_row_span(rng, monkeypatch):
    # 8 dense rows in d=8, each of positive weight, span R^8: the lambda = 0
    # solve factors their (8, 8) row Gram and builds no Hessian
    _, w, x, y = ridge_instance(rng, 8, 8)
    x[:7, -1] = 0.0
    sset = SampleSet(SquareLoss(), x, y)
    assert len(sset.rows) == 8 and not sset.rows_orthogonal
    calls = counting(monkeypatch)
    res = solver.newton_minimize(sset, w, 0.0)
    assert calls == {"weighted_hess": 0, "factored": [(8, 8)]}
    np.testing.assert_allclose(res.theta_hat, ridge_closed_form(x, y, w, 0.0), rtol=1e-8)
    # with the one row that reaches the last coordinate at weight 0, the
    # solve stays on the (d, d) path, whose H has a last leading minor of
    # exactly 0
    w[-1] = 0.0
    with pytest.raises(NonConvergenceError, match="not positive definite") as err:
        solver.newton_minimize(sset, w / w.sum(), 0.0)
    assert err.value.trace == ()
    assert calls == {"weighted_hess": 1, "factored": [(8, 8), (8, 8)]}


def test_square_population_minimizer_builds_no_hessian(monkeypatch):
    # case (b)'s 256 axis rows in d = 256: theta* is a diagonal row-span solve
    calls = counting(monkeypatch)
    pop = make_source_population(256, 0.5, 1.0, 102)
    np.testing.assert_allclose(pop.theta_star, pop.meta.theta_star, rtol=1e-12)
    assert calls == {"weighted_hess": 0, "factored": []}


def test_newton_minimize_keeps_the_signature_the_benchmark_reads():
    # bench/spans.py reads config at position 3 and these two result fields
    params = list(inspect.signature(solver.newton_minimize).parameters)
    assert params == ["sset", "weights", "lam", "config"]
    res = solver.newton_minimize(SampleSet(SquareLoss(), [[1.0]], [1.0]), np.array([1.0]), 1.0)
    assert len(res.decrement_trace) == 2 and res.iterations == 1


def test_matches_ridge_closed_form(rng):
    # n > d takes the primal path and n <= d the row-span path
    for i in range(30):
        d = int(rng.integers(1, 12))
        n = int(rng.integers(d + 1, 60)) if i % 3 else int(rng.integers(1, d + 1))
        sset, w, x, y = ridge_instance(rng, d, n)
        lam = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
        res = solve_erm(sset, w, lam)
        expect = ridge_closed_form(x, y, w, lam)
        assert np.linalg.norm(res.theta_hat - expect) <= 1e-8 * max(1.0, np.linalg.norm(expect))


def normal_residual(sset, w, lam, theta):
    """Relative residual ||(H + lam I) theta - b|| / ||b|| of the normal
    equations, with H and b = -grad(0) built on the primal side."""
    zero = np.zeros(sset.dim)
    b = -sset.weighted_grad(w, zero)
    h = sset.weighted_hess(w, zero)
    return np.linalg.norm(h @ theta + lam * theta - b) / np.linalg.norm(b)


def woodbury_solve(sset, w, lam):
    """theta = -(g - R^T M^{-1} R g) / lam with M = R R^T + diag(lam / c), the
    Woodbury identity's difference form of the same row-span solve."""
    c = sset.hess_coefs(w, np.zeros(sset.dim))
    kept = c.nonzero()[0]
    rows, g = sset.rows[kept], sset.weighted_grad(w, np.zeros(sset.dim))
    return -(g - rows.T @ np.linalg.solve(rows @ rows.T + np.diag(lam / c[kept]), rows @ g)) / lam


@functools.cache
def case_b():
    return make_source_population(256, 0.5, 1.0, 102)


def span_support(name):
    if name.startswith("b-draw-"):
        pop = case_b()
        return pop.sample_set, _draw(pop, int(name[7:]), 0, 0, 0)[0]
    if name == "b-rotated":
        pop = rotated(case_b(), seed=0)
        return pop.sample_set, pop.weights
    # 200 dense rows in d=256 with row scales from 1 down to 1e-4
    rng = np.random.default_rng(5)
    x = np.logspace(0, -4, 200)[:, None] * rng.standard_normal((200, 256))
    return SampleSet(SquareLoss(), x, rng.standard_normal(200)), np.full(200, 1 / 200)


@pytest.mark.parametrize("name", ["b-draw-128", "b-draw-8192", "b-rotated", "dense"])
def test_row_span_solve_is_as_accurate_as_the_primal(name):
    sset, w = span_support(name)
    assert len(sset.rows) <= sset.dim
    for lam in (0.06, 1e-3, 1e-6, 1e-9):
        primal = solver._quadratic_minimize(sset, w, lam, SolverConfig()).theta_hat
        span = solver.newton_minimize(sset, w, lam).theta_hat
        bound = 10.0 * max(normal_residual(sset, w, lam, primal), np.finfo(float).eps)
        assert normal_residual(sset, w, lam, span) <= bound
        if lam == 1e-9:
            # the difference form cancels two terms of size ||g|| / lam
            assert normal_residual(sset, w, lam, woodbury_solve(sset, w, lam)) > bound


def recording_factors(monkeypatch):
    """Record the input and the output of every diag_chol_factor the solver
    calls, and count its chol_factor calls."""
    calls = {"chol_factor": 0, "diag": [], "diag_factor": []}
    factor, diag_factor = solver.chol_factor, solver.diag_chol_factor

    def counted(a):
        calls["chol_factor"] += 1
        return factor(a)

    def recorded(diag):
        calls["diag"].append(diag)
        calls["diag_factor"].append(diag_factor(diag))
        return calls["diag_factor"][-1]

    monkeypatch.setattr(solver, "chol_factor", counted)
    monkeypatch.setattr(solver, "diag_chol_factor", recorded)
    return calls


@pytest.mark.parametrize("n", [128, 2048])
def test_orthogonal_rows_factor_the_gathered_system_bit_for_bit(n, monkeypatch):
    pop = case_b()
    sset, lam = pop.sample_set, 0.06 * (n / 128) ** (-1 / 3)
    assert sset.rows_orthogonal
    w = _draw(pop, n, 0, 0, 0)[0]
    calls = recording_factors(monkeypatch)
    solver.newton_minimize(sset, w, lam)
    assert calls["chol_factor"] == 0 and len(calls["diag"]) == 1
    # the dense system the non-orthogonal path gathers, and its dpotrf factor
    c = sset.hess_coefs(w, np.zeros(sset.dim))
    kept = c.nonzero()[0]
    system = sset.row_gram[np.ix_(kept, kept)] + np.diag(lam / c[kept])
    assert calls["diag"][0].tobytes() == np.diagonal(system).tobytes()
    assert calls["diag_factor"][0].tobytes() == np.diagonal(solver.chol_factor(system)).tobytes()


def hadamard(n):
    """The n x n Sylvester-Hadamard design, n a power of 2: every row dense,
    the rows exactly orthogonal."""
    h = np.array([[1.0]])
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


def test_hadamard_rows_take_the_dense_span_path(rng, monkeypatch):
    # orthogonal rows that share coordinates: the row-span solve factors
    # their dense (8, 8) system and builds no Hessian
    sset = SampleSet(SquareLoss(), hadamard(8), rng.normal(size=8))
    assert not sset.rows_orthogonal and len(sset.rows) == 8
    calls = counting(monkeypatch)
    for _ in range(5):
        w = rng.uniform(0.2, 1.0, size=8)
        w /= w.sum()
        for lam in (0.3, 1e-3, 1e-6):
            span = solver.newton_minimize(sset, w, lam).theta_hat
            primal = solver._quadratic_minimize(sset, w, lam, SolverConfig()).theta_hat
            np.testing.assert_allclose(span, primal, rtol=1e-13, atol=0)
    # the primal solves build and factor H; the row-span ones factor the Gram system
    assert calls == {"weighted_hess": 15, "factored": [(8, 8)] * 30}


def test_rows_orthogonal_reads_the_rows():
    # True exactly when no two rows share a nonzero coordinate
    assert case_b().sample_set.rows_orthogonal
    assert SampleSet(SquareLoss(), [[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0]], [0.0] * 3).rows_orthogonal
    assert not SampleSet(SquareLoss(), [[1.0, 0.0], [1.0, 1e-300]], [0.0] * 2).rows_orthogonal
    assert not rotated(case_b(), seed=0).sample_set.rows_orthogonal
    # mutually orthogonal rows that share coordinates are not
    assert not SampleSet(SquareLoss(), [[1.0, 1.0], [1.0, -1.0]], [0.0] * 2).rows_orthogonal
    sset = SampleSet(SquareLoss(), hadamard(8), np.zeros(8))
    assert not sset.rows_orthogonal
    # read off the rows without building their Gram matrix
    assert "row_gram" not in vars(sset)


def test_orthogonal_rows_fail_as_the_primal_does(monkeypatch):
    # the first row's Gram entry overflows: both paths reject the system
    # with the same message and an empty trace
    sset = SampleSet(SquareLoss(), [[1e200, 0.0], [0.0, 1.0]], [1.0, 0.0])
    w = np.array([0.5, 0.5])
    calls = recording_factors(monkeypatch)
    with pytest.raises(NonConvergenceError, match="non-finite diagonal") as span:
        solver.newton_minimize(sset, w, 0.1)
    with np.errstate(over="ignore"):
        primal = solver._quadratic_minimize(sset, w, 0.1, SolverConfig())
    assert isinstance(primal, NonConvergenceError)
    assert str(span.value) == str(primal)
    assert span.value.trace == primal.trace == ()
    assert calls["chol_factor"] == 1 and len(calls["diag"]) == 1 and not calls["diag_factor"]


def test_decrement_single_sample_example():
    # one sample y=1, Phi=1, theta=0, lambda=1: grad=-1, H_lam=2 -> 1/sqrt(2)
    sset = SampleSet(SquareLoss(), [[1.0]], [1.0])
    res = solve_erm(sset, np.array([1.0]), 1.0)
    assert res.decrement_trace[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_decrement_zero_at_solution(rng):
    sset, w, *_ = ridge_instance(rng, 3, 30)
    res = solve_erm(sset, w, 0.5)
    assert res.decrement_trace[-1] <= 1e-10


def test_logistic_huge_lambda_first_order_bound(rng):
    d = 3
    atoms = [Sample(features=rng.normal(size=d), label=float(rng.choice([-1, 1])))
             for _ in range(20)]
    w = np.full(20, 0.05)
    lam = 1e6
    res = solve_erm(stack_samples(LogisticLoss(), atoms), w, lam)
    b1 = max(np.linalg.norm(z.features) for z in atoms)
    assert np.linalg.norm(res.theta_hat) <= 2.0 * b1 / lam


def test_norm_cap_from_objective_at_zero(rng):
    sset, w, x, y = ridge_instance(rng, 4, 30)
    lam = 0.05
    res = solve_erm(sset, w, lam)
    risk0 = float(w @ (0.5 * y**2))
    assert np.linalg.norm(res.theta_hat) <= math.sqrt(2.0 / lam * risk0) + 1e-12


def test_monotone_descent_logistic(rng):
    d = 4
    n = 30
    x = rng.normal(size=(n, d))
    labels = rng.choice([-1.0, 1.0], size=n)
    w = np.full(n, 1.0 / n)
    lam = 0.01

    # replay the iterates: decrement trace must be finite, objective monotone
    res = solver.newton_minimize(SampleSet(LogisticLoss(), x, labels), w, lam)
    assert res.decrement_trace[-1] <= solver.SolverConfig.tol
    assert all(np.isfinite(res.decrement_trace))
    # quadratic tail: after entering decrement < 0.1, it decreases strictly
    tail = [v for v in res.decrement_trace if v < 0.1]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    ratios = [b / a**2 for a, b in zip(tail, tail[1:]) if a > 0]
    assert all(np.isfinite(r) for r in ratios)
    print("quadratic-tail constants:", [f"{r:.3g}" for r in ratios])


def test_every_step_is_certified_by_the_value_bound(monkeypatch):
    # case (a): its draws at lambda = 0.25 and the population at 0.05 take
    # first steps whose certificate seminorm mu exceeds 1
    pop = make_logistic_population(d=16, alpha=1.0, seed=103)
    sset = pop.sample_set
    draws = np.random.default_rng(7).multinomial(128, pop.weights, size=6) / 128
    grad = SampleSet.weighted_grad
    iterates = []

    def recording(self, weights, theta):
        # weighted_grad runs once per iteration, at the iterates of the batch,
        # which for one solve is a stack of one
        iterates.append(np.array(theta)[0])
        return grad(self, weights, theta)

    damped = 0
    for w, lam in [(pop.weights, 0.05)] + [(w, 0.25) for w in draws]:
        iterates.clear()
        monkeypatch.setattr(SampleSet, "weighted_grad", recording)
        res = solver.newton_minimize(sset, w, lam)
        monkeypatch.setattr(SampleSet, "weighted_grad", grad)
        assert len(iterates) == res.iterations + 1
        np.testing.assert_array_equal(iterates[-1], res.theta_hat)
        for a, b in zip(iterates, iterates[1:]):
            h = sset.weighted_hess(w, a) + lam * np.eye(sset.dim)
            p = -np.linalg.solve(h, sset.weighted_grad(w, a) + lam * a)
            dec2 = float(p @ h @ p)
            mu = sset.seminorm(p)
            t = float((b - a) @ p / (p @ p))
            expected = 1.0 if mu <= 1.0 else math.log1p(mu) / mu
            assert t == pytest.approx(expected, rel=1e-8)
            damped += expected < 1.0
            # L(a) - L(b) >= dec^2 (t - (e^{t mu} - t mu - 1) / mu^2)
            f0 = sset.weighted_value(w, a) + 0.5 * lam * float(a @ a)
            f1 = sset.weighted_value(w, b) + 0.5 * lam * float(b @ b)
            certified = dec2 * (t - (math.expm1(t * mu) - t * mu) / mu**2)
            slack = 64 * np.finfo(float).eps * abs(f0) if dec2 < 1e-10 * abs(f0) else 0.0
            assert f0 - f1 >= certified - slack
    assert damped >= 1


def test_solver_config_contract():
    assert SolverConfig.pure_newton_below == math.inf
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol", "max_iter"]
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ContractViolation):
            SolverConfig(tol=bad)
    with pytest.raises(ContractViolation):
        SolverConfig(max_iter=0)
    with pytest.raises(TypeError):
        SolverConfig(pure_newton_below=1e-4)


def test_determinism_bitwise(rng):
    d = 6
    n = 40
    x = rng.normal(size=(n, d))
    labels = rng.choice([-1.0, 1.0], size=n)
    sset = SampleSet(LogisticLoss(), x, labels)
    w = np.full(n, 1.0 / n)
    r1 = solve_erm(sset, w, 0.03)
    r2 = solve_erm(sset, w, 0.03)
    assert r1.decrement_trace == r2.decrement_trace
    assert np.array_equal(r1.theta_hat, r2.theta_hat)


def test_lambda_contract():
    sset = SampleSet(SquareLoss(), [[1.0]], [1.0])
    with pytest.raises(ContractViolation):
        solve_erm(sset, np.array([1.0]), 0.0)
    for lam in (math.nan, math.inf):
        with pytest.raises(ContractViolation, match="finite lambda > 0"):
            solve_erm(sset, np.array([1.0]), lam)
        with pytest.raises(ContractViolation, match="finite lambda >= 0"):
            solver.newton_minimize(sset, np.array([1.0]), lam)


def test_nonconvergence_carries_trace(rng):
    d = 4
    atoms = [Sample(features=rng.normal(size=d), label=float(rng.choice([-1, 1])))
             for _ in range(10)]
    w = np.full(10, 0.1)
    with pytest.raises(NonConvergenceError) as err:
        solve_erm(stack_samples(LogisticLoss(), atoms), w, 1e-8,
                  SolverConfig(max_iter=1, tol=1e-14))
    assert len(err.value.trace) >= 1


def test_weight_validation(rng):
    sset = SampleSet(SquareLoss(), [[1.0], [1.0]], [1.0, 1.0])
    with pytest.raises(ContractViolation):
        solve_erm(sset, np.array([0.5, 0.6]), 1.0)
    with pytest.raises(ContractViolation):
        solve_erm(sset, np.array([0.5]), 1.0)


# -- batches ------------------------------------------------------------------


def draws(pop, n, count, seed=0):
    """count multinomial draws of n atoms from pop as (count, m) weights."""
    return np.random.default_rng(seed).multinomial(n, pop.weights, size=count) / n


def glm_support(rng, m=12, n_labels=3, d=4):
    feats = rng.normal(size=(m, n_labels, d))
    loss = SoftmaxGLMLoss(rng.uniform(0.5, 2.0, size=n_labels))
    return SampleSet(loss, feats, rng.integers(0, n_labels, size=m))


def batch_case(name):
    """(sample set, (R, m) weights, lambda) of one solver path."""
    rng = np.random.default_rng(11)
    if name == "orthogonal-row-span":
        pop = case_b()
        return pop.sample_set, draws(pop, 256, 6), 0.03
    if name == "dense-row-span":
        pop = rotated(case_b(), seed=0)
        return pop.sample_set, draws(pop, 256, 4), 0.03
    if name == "primal":
        # 40 distinct rows in d = 5: the (d, d) system H + lam I
        sset, *_ = ridge_instance(rng, 5, 40)
        w = rng.uniform(0.2, 1.0, size=(5, 40))
        return sset, w / w.sum(axis=1, keepdims=True), 0.1
    if name == "damped-logistic":
        pop = make_logistic_population(d=16, alpha=1.0, seed=103)
        return pop.sample_set, draws(pop, 128, 12), 0.25
    sset = glm_support(rng)
    w = rng.uniform(0.1, 1.0, size=(5, len(sset)))
    return sset, w / w.sum(axis=1, keepdims=True), 0.05


@pytest.mark.parametrize("name", ["orthogonal-row-span", "dense-row-span", "primal",
                                  "damped-logistic", "softmax-glm"])
def test_batch_matches_single_solves(name):
    sset, w, lam = batch_case(name)
    assert sset.rows_orthogonal == (name == "orthogonal-row-span" or name == "damped-logistic")
    outcomes = solver.newton_minimize_batch(sset, w, lam)
    assert len(outcomes) == len(w)
    damped = 0
    for r, out in enumerate(outcomes):
        single = solver.newton_minimize(sset, w[r], lam)
        assert isinstance(out, solver.SolveResult)
        assert out.iterations == single.iterations
        assert not out.theta_hat.flags.writeable
        err = np.linalg.norm(out.theta_hat - single.theta_hat)
        assert err <= 1e-14 * np.linalg.norm(single.theta_hat)
        damped += single.iterations > 1
        if name == "primal":
            # the (d, d) reference of one weight vector: the same bits
            given = solver._quadratic_minimize(sset, w[r], lam, SolverConfig())
            assert given.theta_hat.tobytes() == single.theta_hat.tobytes()
    # the non-quadratic cases take several, partly damped, steps
    assert (damped > 0) == (name in ("damped-logistic", "softmax-glm"))


def test_a_failed_replicate_leaves_the_others_bit_for_bit():
    # a starved weight row fails at its factor; the rest of the batch is the
    # unfaulted batch's, byte for byte
    pop = case_b()
    sset, w, lam = pop.sample_set, draws(pop, 256, 5), 0.03
    clean = solver.newton_minimize_batch(sset, w, lam)
    faulted = w.copy()
    faulted[2] = starve_first_row(sset, w[2])
    outcomes = solver.newton_minimize_batch(sset, faulted, lam)
    err = outcomes[2]
    assert isinstance(err, NonConvergenceError) and "non-finite diagonal" in str(err)
    assert err.trace == ()
    for r in (0, 1, 3, 4):
        assert outcomes[r].theta_hat.tobytes() == clean[r].theta_hat.tobytes()
        assert outcomes[r].decrement_trace == clean[r].decrement_trace


def test_an_exhausted_replicate_keeps_its_own_trace():
    # with too few iterations for some replicates, those fail alone with the
    # decrements they reached, and the rest converge bit for bit as before
    pop = make_logistic_population(d=16, alpha=1.0, seed=103)
    sset, w, lam = pop.sample_set, draws(pop, 128, 12, seed=3), 0.25
    clean = solver.newton_minimize_batch(sset, w, lam)
    cap = min(out.iterations for out in clean) + 1
    capped = solver.newton_minimize_batch(sset, w, lam, SolverConfig(max_iter=cap))
    failed = [r for r, out in enumerate(capped) if isinstance(out, NonConvergenceError)]
    assert 0 < len(failed) < len(w)
    for r, out in enumerate(capped):
        if r in failed:
            assert clean[r].iterations >= cap
            assert out.trace == clean[r].decrement_trace[:cap]
        else:
            assert out.theta_hat.tobytes() == clean[r].theta_hat.tobytes()
            assert out.decrement_trace == clean[r].decrement_trace


def test_batch_contract(rng):
    sset, w, *_ = ridge_instance(rng, 3, 4)
    with pytest.raises(ContractViolation, match=r"expected \(R, 4\)"):
        solver.newton_minimize_batch(sset, w, 0.1)
    with pytest.raises(ContractViolation, match="sum to 1"):
        solver.newton_minimize_batch(sset, np.stack([w, 2 * w]), 0.1)


def test_an_overflowing_system_fails_alone_in_the_stacked_path():
    # the third atom's row is so long that any weight on it overflows the
    # logistic Hessian; replicates that leave it out solve as if it failed
    # nowhere in their batch
    x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1e160], [1.0, 1.0, 0.0]])
    sset = SampleSet(LogisticLoss(), x, np.array([1.0, -1.0, 1.0, -1.0]))
    w = np.array([[0.5, 0.25, 0.0, 0.25], [0.2, 0.3, 0.0, 0.5], [0.25, 0.25, 0.0, 0.5],
                  [0.4, 0.4, 0.0, 0.2]])
    clean = solver.newton_minimize_batch(sset, w, 0.1)
    faulted = w.copy()
    faulted[2] = [0.25, 0.25, 0.25, 0.25]
    outcomes = solver.newton_minimize_batch(sset, faulted, 0.1)
    err = outcomes[2]
    assert isinstance(err, NonConvergenceError) and "not positive definite" in str(err)
    assert err.trace == ()
    for r in (0, 1, 3):
        assert outcomes[r].theta_hat.tobytes() == clean[r].theta_hat.tobytes()
        assert outcomes[r].decrement_trace == clean[r].decrement_trace
        assert outcomes[r].iterations > 1
