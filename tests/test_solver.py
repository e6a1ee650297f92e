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
    solve_erm,
)
from scerm import solver


def ridge_instance(rng, d, n):
    x = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    w = rng.uniform(0.2, 1.0, size=n)
    w /= w.sum()
    atoms = [Sample(features=x[i], label=y[i]) for i in range(n)]
    return atoms, w, x, y


def ridge_closed_form(x, y, w, lam):
    d = x.shape[1]
    a = (x.T * w) @ x + lam * np.eye(d)
    return np.linalg.solve(a, x.T @ (w * y))


def test_square_converges_in_one_step(rng, monkeypatch):
    atoms, w, x, y = ridge_instance(rng, 5, 40)
    sset = SampleSet(SquareLoss(), atoms)
    calls = {"weighted_hess": 0, "chol_factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SampleSet, "weighted_hess", counted("weighted_hess", SampleSet.weighted_hess))
    monkeypatch.setattr(solver, "chol_factor", counted("chol_factor", solver.chol_factor))
    res = solve_erm(sset, w, SquareLoss(), 0.1)
    # the constant Hessian is built and factored once, for both iterations
    assert calls == {"weighted_hess": 1, "chol_factor": 1}
    assert res.converged
    assert res.iterations == 1
    assert len(res.decrement_trace) == 2
    assert res.decrement_trace[1] <= 1e-10
    # each decrement equals the one from a fresh Hessian at its iterate
    assert res.decrement_trace == (decrement(sset, w, SquareLoss(), 0.1, np.zeros(5)),
                                   decrement(sset, w, SquareLoss(), 0.1, res.theta_hat))


def test_matches_ridge_closed_form(rng):
    for _ in range(20):
        d = int(rng.integers(1, 12))
        n = int(rng.integers(d + 1, 60))
        atoms, w, x, y = ridge_instance(rng, d, n)
        lam = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
        res = solve_erm(atoms, w, SquareLoss(), lam)
        expect = ridge_closed_form(x, y, w, lam)
        assert np.linalg.norm(res.theta_hat - expect) <= 1e-8 * max(1.0, np.linalg.norm(expect))


def test_decrement_single_sample_example():
    # one sample y=1, Phi=1, theta=0, lambda=1: grad=-1, H_lam=2 -> 1/sqrt(2)
    atoms = [Sample(features=np.array([1.0]), label=1.0)]
    val = decrement(atoms, np.array([1.0]), SquareLoss(), 1.0, np.zeros(1))
    assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_decrement_zero_at_solution(rng):
    atoms, w, *_ = ridge_instance(rng, 3, 30)
    res = solve_erm(atoms, w, SquareLoss(), 0.5)
    assert decrement(atoms, w, SquareLoss(), 0.5, res.theta_hat) <= 1e-10


def test_logistic_huge_lambda_first_order_bound(rng):
    d = 3
    atoms = [Sample(features=rng.normal(size=d), label=float(rng.choice([-1, 1])))
             for _ in range(20)]
    w = np.full(20, 0.05)
    lam = 1e6
    res = solve_erm(atoms, w, LogisticLoss(), lam)
    b1 = max(np.linalg.norm(z.features) for z in atoms)
    assert np.linalg.norm(res.theta_hat) <= 2.0 * b1 / lam


def test_norm_cap_from_objective_at_zero(rng):
    atoms, w, x, y = ridge_instance(rng, 4, 30)
    lam = 0.05
    res = solve_erm(atoms, w, SquareLoss(), lam)
    risk0 = float(w @ (0.5 * y**2))
    assert np.linalg.norm(res.theta_hat) <= math.sqrt(2.0 / lam * risk0) + 1e-12


def test_monotone_descent_logistic(rng):
    d = 4
    n = 30
    x = rng.normal(size=(n, d))
    labels = rng.choice([-1.0, 1.0], size=n)
    atoms = [Sample(features=x[i], label=labels[i]) for i in range(n)]
    w = np.full(n, 1.0 / n)
    loss = LogisticLoss()
    lam = 0.01

    # replay the iterates: decrement trace must be finite, objective monotone
    from scerm.losses import SampleSet
    from scerm.solver import newton_minimize

    sset = SampleSet(loss, atoms)
    res = newton_minimize(sset, w, lam)
    assert res.converged
    assert all(np.isfinite(res.decrement_trace))
    # quadratic tail: after entering decrement < 0.1, it decreases strictly
    tail = [v for v in res.decrement_trace if v < 0.1]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    ratios = [b / a**2 for a, b in zip(tail, tail[1:]) if a > 0]
    assert all(np.isfinite(r) for r in ratios)
    print("quadratic-tail constants:", [f"{r:.3g}" for r in ratios])


def test_determinism_bitwise(rng):
    d = 6
    n = 40
    x = rng.normal(size=(n, d))
    labels = rng.choice([-1.0, 1.0], size=n)
    atoms = [Sample(features=x[i], label=labels[i]) for i in range(n)]
    w = np.full(n, 1.0 / n)
    r1 = solve_erm(atoms, w, LogisticLoss(), 0.03)
    r2 = solve_erm(atoms, w, LogisticLoss(), 0.03)
    assert r1.decrement_trace == r2.decrement_trace
    assert np.array_equal(r1.theta_hat, r2.theta_hat)


def test_lambda_contract():
    atoms = [Sample(features=np.array([1.0]), label=1.0)]
    with pytest.raises(ContractViolation):
        solve_erm(atoms, np.array([1.0]), SquareLoss(), 0.0)
    with pytest.raises(ContractViolation):
        decrement(atoms, np.array([1.0]), SquareLoss(), -1.0, np.zeros(1))


def test_nonconvergence_carries_trace(rng):
    d = 4
    atoms = [Sample(features=rng.normal(size=d), label=float(rng.choice([-1, 1])))
             for _ in range(10)]
    w = np.full(10, 0.1)
    with pytest.raises(NonConvergenceError) as err:
        solve_erm(atoms, w, LogisticLoss(), 1e-8, SolverConfig(max_iter=1, tol=1e-14))
    assert len(err.value.trace) >= 1


def test_weight_validation(rng):
    atoms = [Sample(features=np.array([1.0]), label=1.0)] * 2
    with pytest.raises(ContractViolation):
        solve_erm(atoms, np.array([0.5, 0.6]), SquareLoss(), 1.0)
    with pytest.raises(ContractViolation):
        solve_erm(atoms, np.array([0.5]), SquareLoss(), 1.0)
