"""Property checks for the self-concordance inequalities and localization.

Every check evaluates one side of a proved inequality exactly on a finitely
supported population and returns the margin

    (RHS - LHS) / max(1, |LHS|, |RHS|),

so a nonnegative margin means the inequality holds and margins are
comparable across scales. The randomized suite drives all four inequalities
over every loss kind and counts violations below a relative slack.

The empirical localization and decomposition checks take count weights over
the population's atoms (counts / n of a draw, as in ``rates``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scfun
from .errors import ContractViolation
from .linalg import (add_ridge, ball_point, chol_factor, eigmin, gen_eigmax, inv_norm, norm_a,
                     radius_from_factor)
from .losses import LOSS_KINDS, SampleSet, SoftmaxGLMLoss
from .population import (
    FinitePopulation,
    constants_at,
    exact_grad,
    exact_hessian,
    exact_risk,
)
from .solver import _as_weights, newton_minimize

__all__ = [
    "CheckReport",
    "LocalizationRecord",
    "DecompositionRecord",
    "check_hess_control",
    "check_grad_lower",
    "check_grad_upper",
    "check_value_bound",
    "check_localization",
    "check_decomposition_bound",
    "run_check_suite",
    "random_population",
]

_SLACK = 1e-9  # the suite counts a margin below -_SLACK as a violation


def _margin(lhs: float, rhs: float) -> float:
    return (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))


def check_hess_control(pop: FinitePopulation, theta0, theta1, lam: float) -> float:
    """Margin of H_lam(theta1) <= e^m H_lam(theta0), m the certificate factor
    of theta1 - theta0 over the population's support.

    lam = 0 requires H(theta0) positive definite.
    """
    theta0 = np.asarray(theta0, dtype=float)
    theta1 = np.asarray(theta1, dtype=float)
    if lam < 0:
        raise ContractViolation("lambda must be nonnegative")
    h0 = exact_hessian(pop, theta0, lam)
    if lam == 0.0 and eigmin(h0) <= 0.0:
        raise ContractViolation("H(theta0) must be positive definite when lambda = 0")
    h1 = exact_hessian(pop, theta1, lam)
    m = pop.sample_set.seminorm(theta1 - theta0)
    mu_max = gen_eigmax(h1, h0)
    return _margin(mu_max, math.exp(m))


def _grad_sides(pop, theta0, theta1, lam):
    if lam <= 0:
        raise ContractViolation("gradient checks require lambda > 0")
    theta0 = np.asarray(theta0, dtype=float)
    theta1 = np.asarray(theta1, dtype=float)
    h0 = exact_hessian(pop, theta0, lam)
    delta_g = exact_grad(pop, theta1, lam) - exact_grad(pop, theta0, lam)
    lhs = inv_norm(chol_factor(h0), delta_g)
    step_norm = norm_a(h0, theta1 - theta0)
    m = pop.sample_set.seminorm(theta1 - theta0)
    return lhs, step_norm, m


def check_grad_lower(pop: FinitePopulation, theta0, theta1, lam: float) -> float:
    """Margin of phi_lower(m) ||theta1-theta0||_{H_lam(theta0)} <= ||dgrad||_{H_lam^{-1}(theta0)}."""
    lhs, step_norm, m = _grad_sides(pop, theta0, theta1, lam)
    return _margin(scfun.phi_lower(m) * step_norm, lhs)


def check_grad_upper(pop: FinitePopulation, theta0, theta1, lam: float) -> float:
    """Margin of ||dgrad||_{H_lam^{-1}(theta0)} <= phi_upper(m) ||theta1-theta0||_{H_lam(theta0)}."""
    lhs, step_norm, m = _grad_sides(pop, theta0, theta1, lam)
    return _margin(lhs, scfun.phi_upper(m) * step_norm)


def check_value_bound(pop: FinitePopulation, theta0, theta1, lam: float) -> float:
    """Margin of the Bregman gap against psi(m) ||theta1-theta0||^2_{H_lam(theta0)}."""
    if lam < 0:
        raise ContractViolation("lambda must be nonnegative")
    theta0 = np.asarray(theta0, dtype=float)
    theta1 = np.asarray(theta1, dtype=float)
    gap = (
        exact_risk(pop, theta1, lam)
        - exact_risk(pop, theta0, lam)
        - float(exact_grad(pop, theta0, lam) @ (theta1 - theta0))
    )
    h0 = exact_hessian(pop, theta0, lam)
    m = pop.sample_set.seminorm(theta1 - theta0)
    rhs = scfun.psi(m) * norm_a(h0, theta1 - theta0) ** 2
    return _margin(gap, rhs)


# -- localization ----------------------------------------------------------------

@dataclass(frozen=True)
class LocalizationRecord:
    """One evaluation of the localization implication.

    ``antecedent``: renormalized gradient <= r_lambda(theta)/2 (with the
    empirical operator-norm correction in the empirical variant);
    ``consequent``: certificate seminorm of theta - minimizer <= log 2.
    ``holds`` is vacuously true when the antecedent fails.
    """

    antecedent: bool
    consequent: bool
    gradient_norm: float
    radius: float
    seminorm: float
    empirical: bool

    @property
    def holds(self) -> bool:
        return self.consequent or not self.antecedent


def _varhat(pop: FinitePopulation, w: np.ndarray, theta: np.ndarray, lam: float,
            h_lam: np.ndarray, factor) -> float:
    """Varhat = ||Hhat_lam^{-1/2} H_lam^{1/2}||^2 ||grad Lhat_lam(theta)||_{H_lam^{-1}} of
    count weights w, given H_lam = H_lam(theta) and its Cholesky factor."""
    sset = pop.sample_set
    g_hat = sset.weighted_grad(w, theta) + lam * theta
    h_hat = add_ridge(sset.weighted_hess(w, theta), lam)
    return gen_eigmax(h_lam, h_hat) * inv_norm(factor, g_hat)


def check_localization(pop: FinitePopulation, theta, lam: float,
                       weights=None) -> LocalizationRecord:
    """Evaluate the localization implication at theta.

    Population variant: ||grad L_lam||_{H_lam^{-1}(theta)} <= r_lam(theta)/2
    implies the certificate seminorm of theta - theta*_lam is at most log 2.
    Passing ``weights``, count weights over the population's atoms (such as
    counts / n of a draw), evaluates the empirical variant against the
    empirical minimizer instead, with Varhat in place of the gradient norm.
    The square loss's seminorm is 0, with neither minimizer solved.
    """
    if lam <= 0:
        raise ContractViolation("check_localization requires lambda > 0")
    theta = np.asarray(theta, dtype=float)
    sset = pop.sample_set
    h_pop = exact_hessian(pop, theta, lam)
    factor = chol_factor(h_pop)
    radius = radius_from_factor(factor, sset.certificate_rows)
    if weights is None:
        grad_norm = inv_norm(factor, exact_grad(pop, theta, lam))
    else:
        w = _as_weights(weights, len(sset))
        grad_norm = _varhat(pop, w, theta, lam, h_pop, factor)
    if sset.quadratic:
        seminorm = 0.0
    else:
        target = (pop.theta_lambda(lam) if weights is None
                  else newton_minimize(sset, w, lam).theta_hat)
        seminorm = sset.seminorm(theta - target)
    return LocalizationRecord(
        antecedent=grad_norm <= radius / 2.0,
        consequent=seminorm <= scfun.LOG2 + 1e-12,
        gradient_norm=grad_norm,
        radius=radius,
        seminorm=seminorm,
        empirical=weights is not None,
    )


# -- analytic decomposition --------------------------------------------------------

@dataclass(frozen=True)
class DecompositionRecord:
    """Excess risk against K_bias Bias^2 + K_var Varhat^2, guarded by
    Varhat <= r_lambda(theta*_lambda)/2 (not-applicable when the guard fails)."""

    applicable: bool
    margin: float
    lhs: float
    rhs: float
    varhat: float
    guard_radius: float
    k_bias: float
    k_var: float


def check_decomposition_bound(pop: FinitePopulation, lam: float, weights,
                              theta_hat) -> DecompositionRecord:
    """Evaluate the decomposition bound for the empirical minimizer theta_hat
    of ``weights``, count weights over the population's atoms (such as
    counts / n of a draw)."""
    if lam <= 0:
        raise ContractViolation("check_decomposition_bound requires lambda > 0")
    sset = pop.sample_set
    w = _as_weights(weights, len(sset))
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_lam = pop.theta_lambda(lam)
    h_lam = exact_hessian(pop, theta_lam, lam)
    factor = chol_factor(h_lam)
    varhat = _varhat(pop, w, theta_lam, lam, h_lam, factor)
    guard_radius = radius_from_factor(factor, sset.certificate_rows)
    applicable = varhat <= guard_radius / 2.0

    consts = constants_at(pop, lam=lam)
    lhs = exact_risk(pop, theta_hat, 0.0) - exact_risk(pop, pop.theta_star, 0.0)
    rhs = consts.k_bias * consts.bias**2 + consts.k_var * varhat**2
    return DecompositionRecord(
        applicable=applicable,
        margin=_margin(lhs, rhs),
        lhs=lhs,
        rhs=rhs,
        varhat=varhat,
        guard_radius=guard_radius,
        k_bias=consts.k_bias,
        k_var=consts.k_var,
    )


# -- randomized suite ----------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    trials: int
    violations: int
    worst_margin: float

    def __post_init__(self):
        if self.trials < 1:
            raise ContractViolation("a check report needs at least one trial")


# size limits of the suite's random populations
_MAX_ATOMS = 16
_MAX_DIM = 5


def random_population(rng: np.random.Generator, kind: str) -> FinitePopulation:
    """Small random population of the given loss kind for randomized trials.

    Square-loss populations keep at least d+2 atoms so H is comfortably
    conditioned (their margins are asserted near machine precision).
    """
    d = int(rng.integers(1, _MAX_DIM + 1))
    if kind == "square":
        m = int(rng.integers(d + 2, max(_MAX_ATOMS, d + 3) + 1))
    else:
        m = int(rng.integers(2, _MAX_ATOMS + 1))
    weights = rng.uniform(0.2, 1.0, size=m)
    weights /= weights.sum()

    if kind == "softmax_glm":
        n_labels = int(rng.integers(2, 5))
        loss = SoftmaxGLMLoss(rng.uniform(0.5, 2.0, size=n_labels))
        feats = np.empty((m, n_labels, d))
        labels = np.empty(m)
        # each atom's features and label are drawn in turn
        for i in range(m):
            feats[i] = rng.normal(0.0, 1.0, size=(n_labels, d))
            labels[i] = rng.integers(0, n_labels)
    else:
        loss = LOSS_KINDS[kind]()
        feats = rng.normal(0.0, 1.0, size=(m, d))
        if kind == "logistic":
            labels = rng.choice([-1.0, 1.0], size=m)
        else:
            labels = rng.normal(0.0, 1.0, size=m)
    return FinitePopulation(SampleSet(loss, feats, labels), weights)


def _suite_lambda(rng, pop, check: str) -> float:
    # grad checks need lambda > 0; the others may draw lambda = 0 when the
    # bare Hessian is invertible.
    lam = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
    if check in ("grad_lower", "grad_upper"):
        return lam
    if rng.uniform() < 0.25:
        theta_probe = ball_point(rng, pop.dim, 3.0)
        if eigmin(exact_hessian(pop, theta_probe, 0.0)) > 1e-8:
            return 0.0
    return lam


def run_check_suite(trials_per_case: int, seed: int) -> dict:
    """Randomized margins for all four inequalities over every loss kind.

    Returns a dict keyed by (kind, check_name) -> CheckReport. Total trial
    count is trials_per_case * 4 checks * 5 kinds.
    """
    if trials_per_case < 1:
        raise ContractViolation("trials_per_case must be >= 1")
    checks = {
        "hess_control": check_hess_control,
        "grad_lower": check_grad_lower,
        "grad_upper": check_grad_upper,
        "value_bound": check_value_bound,
    }
    reports = {}
    for ki, kind in enumerate(LOSS_KINDS):
        for ci, (name, fn) in enumerate(checks.items()):
            rng = np.random.default_rng(np.random.SeedSequence([seed, ki, ci]))
            worst = math.inf
            violations = 0
            for _ in range(trials_per_case):
                pop = random_population(rng, kind)
                theta0 = ball_point(rng, pop.dim, 3.0)
                theta1 = ball_point(rng, pop.dim, 3.0)
                lam = _suite_lambda(rng, pop, name)
                margin = fn(pop, theta0, theta1, lam)
                worst = min(worst, margin)
                if margin < -_SLACK:
                    violations += 1
            reports[(kind, name)] = CheckReport(
                trials=trials_per_case,
                violations=violations,
                worst_margin=worst,
            )
    return reports
