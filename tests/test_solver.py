import dataclasses
import math

import numpy as np
import pytest

from scerm import (
    ContractViolation,
    LogisticLoss,
    NonConvergenceError,
    Sample,
    SampleSet,
    SolverConfig,
    SquareLoss,
    decrement,
    make_logistic_population,
    solve_erm,
    stack_samples,
)
from scerm import solver


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


def test_square_converges_in_one_step(rng, monkeypatch):
    sset, w, x, y = ridge_instance(rng, 5, 40)
    calls = {"weighted_hess": 0, "chol_factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SampleSet, "weighted_hess", counted("weighted_hess", SampleSet.weighted_hess))
    monkeypatch.setattr(solver, "chol_factor", counted("chol_factor", solver.chol_factor))
    res = solve_erm(sset, w, 0.1)
    # the constant Hessian is built and factored once, for both iterations
    assert calls == {"weighted_hess": 1, "chol_factor": 1}
    assert res.iterations == 1
    assert len(res.decrement_trace) == 2
    assert res.decrement_trace[1] <= 1e-10
    # each decrement equals the one from a fresh Hessian at its iterate
    assert res.decrement_trace == (decrement(sset, w, 0.1, np.zeros(5)),
                                   decrement(sset, w, 0.1, res.theta_hat))


def test_given_hessian_replaces_the_build(rng, monkeypatch):
    sset, w, x, y = ridge_instance(rng, 5, 40)
    h = sset.weighted_hess(w, np.zeros(5))
    h.setflags(write=False)
    built = []
    monkeypatch.setattr(SampleSet, "weighted_hess", lambda *args: built.append(args))
    res = solver.newton_minimize(sset, w, 0.1, hessian=h)
    assert built == []
    np.testing.assert_allclose(res.theta_hat, ridge_closed_form(x, y, w, 0.1), atol=1e-10)


def test_given_hessian_contract(rng):
    sset, w, _, _ = ridge_instance(rng, 5, 40)
    with pytest.raises(ContractViolation, match="shape"):
        solver.newton_minimize(sset, w, 0.1, hessian=np.eye(4))
    logistic = SampleSet(LogisticLoss(), rng.normal(size=(6, 5)), np.sign(rng.normal(size=6)))
    with pytest.raises(ContractViolation, match="certificate"):
        solver.newton_minimize(logistic, np.full(6, 1 / 6), 0.1, hessian=np.eye(5))


def test_matches_ridge_closed_form(rng):
    for _ in range(20):
        d = int(rng.integers(1, 12))
        n = int(rng.integers(d + 1, 60))
        sset, w, x, y = ridge_instance(rng, d, n)
        lam = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
        res = solve_erm(sset, w, lam)
        expect = ridge_closed_form(x, y, w, lam)
        assert np.linalg.norm(res.theta_hat - expect) <= 1e-8 * max(1.0, np.linalg.norm(expect))


def test_decrement_single_sample_example():
    # one sample y=1, Phi=1, theta=0, lambda=1: grad=-1, H_lam=2 -> 1/sqrt(2)
    sset = SampleSet(SquareLoss(), [[1.0]], [1.0])
    val = decrement(sset, np.array([1.0]), 1.0, np.zeros(1))
    assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_decrement_zero_at_solution(rng):
    sset, w, *_ = ridge_instance(rng, 3, 30)
    res = solve_erm(sset, w, 0.5)
    assert decrement(sset, w, 0.5, res.theta_hat) <= 1e-10


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
        # weighted_grad runs once per iteration, at the iterate
        iterates.append(np.array(theta))
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
    with pytest.raises(ContractViolation):
        decrement(sset, np.array([1.0]), -1.0, np.zeros(1))


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
