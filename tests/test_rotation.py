"""Metamorphic check: rotating every feature vector by one orthogonal Q
rotates theta* with it and leaves every reported quantity unchanged.

Both generators put each atom on a coordinate axis, so H(theta*) is diagonal,
the rows are mutually orthogonal and every certificate row is one-hot: the
eigensolve and the square-loss row-span factors take closed forms. The
rotated populations run dense rows and a non-diagonal Hessian through LAPACK.
"""

import numpy as np
import pytest

from scerm import (
    ExperimentPlan,
    FinitePopulation,
    SampleSet,
    anchored_lambdas,
    compute_diagnostics,
    make_logistic_population,
    make_source_population,
    run_rate_experiment,
)
from scerm.rates import lambda_exponent

RTOL = 1e-10
LAMBDAS = 2.0 ** -np.arange(2, 12)
N_GRID = (128, 256, 512, 1024)


def rotated(pop: FinitePopulation, seed: int) -> FinitePopulation:
    """pop with each feature vector x replaced by Q x, for a seeded random orthogonal Q."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((pop.dim, pop.dim)))
    sset = pop.sample_set
    return FinitePopulation(SampleSet(pop.loss, sset.features @ q.T, sset.labels),
                            pop.weights, pop.meta)


def rate_report(pop: FinitePopulation, regime: str, anchor: float):
    meta = pop.meta
    exponent = lambda_exponent(regime, meta.r if meta.r is not None else 0.5, meta.alpha)
    plan = ExperimentPlan(population=pop, regime=regime, n_grid=N_GRID, replicates=20,
                          delta=0.1, seed=0,
                          lambdas=anchored_lambdas(N_GRID, exponent, anchor, N_GRID[0]))
    return run_rate_experiment(plan)


@pytest.mark.parametrize("make_pop, regime, anchor", [
    (lambda: make_source_population(64, 0.5, 2.0, 101), "source_capacity", 0.03),
    (lambda: make_logistic_population(16, 1.0, 103), "none", 0.25),
], ids=["source-c", "logistic-a"])
def test_rotated_population_reports_the_same(make_pop, regime, anchor):
    pop = make_pop()
    rot = rotated(pop, seed=0)
    base, turned = compute_diagnostics(pop, LAMBDAS), compute_diagnostics(rot, LAMBDAS)
    for name in ("bias", "df", "dikin", "t_lambda"):
        np.testing.assert_allclose(getattr(turned, name), getattr(base, name), rtol=RTOL,
                                   atol=0, err_msg=name)
    base, turned = rate_report(pop, regime, anchor), rate_report(rot, regime, anchor)
    np.testing.assert_allclose(turned.mean_excess, base.mean_excess, rtol=RTOL, atol=0)
    assert turned.fitted_exponent == pytest.approx(base.fitted_exponent, rel=RTOL, abs=0)
