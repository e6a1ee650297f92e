"""Property checks for the self-concordance inequalities and localization.

Every check evaluates one side of a proved inequality exactly on a finite
measure (a population or a single sample) and returns the margin

    (RHS - LHS) / max(1, |LHS|, |RHS|),

so a nonnegative margin means the inequality holds and margins are
comparable across scales. The randomized suite drives all four inequalities
over every loss kind and counts violations below a relative slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scfun
from .errors import ContractViolation
from .linalg import add_ridge, ball_point, chol_factor, eigmin, gen_eigmax, inv_norm, norm_a
from .losses import (
    HuberLogCoshLoss,
    HuberSqrtLoss,
    LogisticLoss,
    LossModel,
    Sample,
    SampleSet,
    SoftmaxGLMLoss,
    SquareLoss,
)
from .population import (
    FinitePopulation,
    PopulationSolution,
    constants_at,
    dikin_radius,
    exact_grad,
    exact_hessian,
    exact_risk,
    minimize_population,
)
from .solver import newton_minimize

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
    "DEFAULT_SLACK",
]

DEFAULT_SLACK = 1e-9

CHECK_NAMES = ("hess_control", "grad_lower", "grad_upper", "value_bound")


def _as_population(measure, loss: LossModel | None) -> FinitePopulation:
    if isinstance(measure, FinitePopulation):
        return measure
    if isinstance(measure, Sample):
        if loss is None:
            raise ContractViolation("a bare Sample measure needs an explicit loss")
        return FinitePopulation.from_single(loss, measure)
    raise ContractViolation(f"unsupported measure type {type(measure)!r}")


def _sup_sc(pop: FinitePopulation, direction) -> float:
    return float(np.max(pop.sample_set.sc_factors(direction)))


def _margin(lhs: float, rhs: float) -> float:
    return (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))


def check_hess_control(measure, theta0, theta1, lam: float, loss=None) -> float:
    """Margin of H_lam(theta1) <= e^m H_lam(theta0), m the certificate factor
    of theta1 - theta0 over the measure's support.

    lam = 0 requires H(theta0) positive definite.
    """
    pop = _as_population(measure, loss)
    theta0 = np.asarray(theta0, dtype=float)
    theta1 = np.asarray(theta1, dtype=float)
    if lam < 0:
        raise ContractViolation("lambda must be nonnegative")
    h0 = exact_hessian(pop, theta0, lam)
    if lam == 0.0 and eigmin(h0) <= 0.0:
        raise ContractViolation("H(theta0) must be positive definite when lambda = 0")
    h1 = exact_hessian(pop, theta1, lam)
    m = _sup_sc(pop, theta1 - theta0)
    mu_max = gen_eigmax(h1, h0)
    return _margin(mu_max, math.exp(m))


def _grad_sides(measure, theta0, theta1, lam, loss):
    pop = _as_population(measure, loss)
    if lam <= 0:
        raise ContractViolation("gradient checks require lambda > 0")
    theta0 = np.asarray(theta0, dtype=float)
    theta1 = np.asarray(theta1, dtype=float)
    h0 = exact_hessian(pop, theta0, lam)
    delta_g = exact_grad(pop, theta1, lam) - exact_grad(pop, theta0, lam)
    lhs = inv_norm(chol_factor(h0), delta_g)
    step_norm = norm_a(h0, theta1 - theta0)
    m = _sup_sc(pop, theta1 - theta0)
    return lhs, step_norm, m


def check_grad_lower(measure, theta0, theta1, lam: float, loss=None) -> float:
    """Margin of phi_lower(m) ||theta1-theta0||_{H_lam(theta0)} <= ||dgrad||_{H_lam^{-1}(theta0)}."""
    lhs, step_norm, m = _grad_sides(measure, theta0, theta1, lam, loss)
    return _margin(scfun.phi_lower(m) * step_norm, lhs)


def check_grad_upper(measure, theta0, theta1, lam: float, loss=None) -> float:
    """Margin of ||dgrad||_{H_lam^{-1}(theta0)} <= phi_upper(m) ||theta1-theta0||_{H_lam(theta0)}."""
    lhs, step_norm, m = _grad_sides(measure, theta0, theta1, lam, loss)
    return _margin(lhs, scfun.phi_upper(m) * step_norm)


def check_value_bound(measure, theta0, theta1, lam: float, loss=None) -> float:
    """Margin of the Bregman gap against psi(m) ||theta1-theta0||^2_{H_lam(theta0)}."""
    pop = _as_population(measure, loss)
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
    m = _sup_sc(pop, theta1 - theta0)
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


def check_localization(pop: FinitePopulation, theta, lam: float,
                       samples=None, weights=None) -> LocalizationRecord:
    """Evaluate the localization implication at theta.

    Population variant: ||grad L_lam||_{H_lam^{-1}(theta)} <= r_lam(theta)/2
    implies the certificate seminorm of theta - theta*_lam is at most log 2.
    Passing (samples, weights) evaluates the empirical variant against the
    empirical minimizer instead.
    """
    if lam <= 0:
        raise ContractViolation("check_localization requires lambda > 0")
    theta = np.asarray(theta, dtype=float)
    h_pop = exact_hessian(pop, theta, lam)
    factor = chol_factor(h_pop)
    radius = dikin_radius(pop, theta, lam)

    if samples is None:
        grad_norm = inv_norm(factor, exact_grad(pop, theta, lam))
        target = minimize_population(pop, lam)
        seminorm = _sup_sc(pop, theta - target)
        antecedent = grad_norm <= radius / 2.0
        return LocalizationRecord(
            antecedent=antecedent,
            consequent=seminorm <= scfun.LOG2 + 1e-12,
            gradient_norm=grad_norm,
            radius=radius,
            seminorm=seminorm,
            empirical=False,
        )

    sset = samples if isinstance(samples, SampleSet) else SampleSet(pop.loss, samples)
    w = np.asarray(weights, dtype=float)
    g_hat = sset.weighted_grad(w, theta) + lam * theta
    h_hat = add_ridge(sset.weighted_hess(w, theta), lam)
    grad_norm = inv_norm(factor, g_hat)
    op_sq = gen_eigmax(h_pop, h_hat)  # ||Hhat^{-1/2} H^{1/2}||^2
    target = newton_minimize(sset, w, lam).theta_hat
    seminorm = _sup_sc(pop, theta - target)
    antecedent = grad_norm * op_sq <= radius / 2.0
    return LocalizationRecord(
        antecedent=antecedent,
        consequent=seminorm <= scfun.LOG2 + 1e-12,
        gradient_norm=grad_norm * op_sq,
        radius=radius,
        seminorm=seminorm,
        empirical=True,
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


def check_decomposition_bound(pop: FinitePopulation, sol: PopulationSolution, lam: float,
                              samples, weights, theta_hat) -> DecompositionRecord:
    if lam <= 0:
        raise ContractViolation("check_decomposition_bound requires lambda > 0")
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_lam = sol.theta_for(lam)
    h_lam = exact_hessian(pop, theta_lam, lam)
    factor = chol_factor(h_lam)

    sset = samples if isinstance(samples, SampleSet) else SampleSet(pop.loss, samples)
    w = np.asarray(weights, dtype=float)
    g_hat = sset.weighted_grad(w, theta_lam) + lam * theta_lam
    h_hat = add_ridge(sset.weighted_hess(w, theta_lam), lam)
    op_sq = gen_eigmax(h_lam, h_hat)
    varhat = op_sq * inv_norm(factor, g_hat)

    guard_radius = dikin_radius(pop, theta_lam, lam)
    applicable = varhat <= guard_radius / 2.0

    consts = constants_at(pop, sol, lam)
    lhs = exact_risk(pop, theta_hat, 0.0) - exact_risk(pop, sol.theta_star, 0.0)
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


_SUITE_KINDS = ("square", "huber_sqrt", "huber_logcosh", "logistic", "softmax_glm")


def random_population(rng: np.random.Generator, kind: str,
                      max_atoms: int = 16, max_dim: int = 5) -> FinitePopulation:
    """Small random population of the given loss kind for randomized trials.

    Square-loss populations keep at least d+2 atoms so H is comfortably
    conditioned (their margins are asserted near machine precision).
    """
    d = int(rng.integers(1, max_dim + 1))
    if kind == "square":
        m = int(rng.integers(d + 2, max(max_atoms, d + 3) + 1))
    else:
        m = int(rng.integers(2, max_atoms + 1))
    weights = rng.uniform(0.2, 1.0, size=m)
    weights /= weights.sum()

    if kind == "softmax_glm":
        n_labels = int(rng.integers(2, 5))
        mu = rng.uniform(0.5, 2.0, size=n_labels)
        loss = SoftmaxGLMLoss(mu)
        atoms = tuple(
            Sample(features=rng.normal(0.0, 1.0, size=(n_labels, d)),
                   label=int(rng.integers(0, n_labels)))
            for _ in range(m)
        )
        return FinitePopulation(atoms=atoms, weights=weights, loss=loss)

    loss = {
        "square": SquareLoss,
        "huber_sqrt": HuberSqrtLoss,
        "huber_logcosh": HuberLogCoshLoss,
        "logistic": LogisticLoss,
    }[kind]()
    feats = rng.normal(0.0, 1.0, size=(m, d))
    if kind == "logistic":
        labels = rng.choice([-1.0, 1.0], size=m)
    else:
        labels = rng.normal(0.0, 1.0, size=m)
    atoms = tuple(Sample(features=feats[i], label=labels[i]) for i in range(m))
    return FinitePopulation(atoms=atoms, weights=weights, loss=loss)


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


def run_check_suite(trials_per_case: int, seed: int,
                    slack: float = DEFAULT_SLACK) -> dict:
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
    for ki, kind in enumerate(_SUITE_KINDS):
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
                if margin < -slack:
                    violations += 1
            reports[(kind, name)] = CheckReport(
                trials=trials_per_case,
                violations=violations,
                worst_margin=worst,
            )
    return reports
