"""Damped Newton minimizer for ridge-regularized (empirical or population) risk.

The ridge term makes the objective strongly convex for lambda > 0, so the
Newton step (H(theta) + lambda I) p = -grad always exists, and the decrement

    D = sqrt(grad^T (H + lambda I)^{-1} grad)

doubles as the convergence certificate. Every step length is certified by the
generalized self-concordance value bound

    L(theta + t p) - L(theta) <= -D^2 (t - (e^{t mu} - t mu - 1) / mu^2),

with mu = ``SampleSet.seminorm(p)`` (Sun & Tran-Dinh's damped step with the
exact finite-support seminorm): the full step t = 1 when mu <= 1, which
decreases the objective by at least (3 - e) D^2, and the bound's minimizer
t = log(1 + mu) / mu otherwise. No objective value is evaluated and there is
no line search.

On quadratic objectives (square loss) mu = 0 and the first full step is exact,
so the solver stops after one iteration. A loss whose certificate set is {0}
(``SampleSet.quadratic``) has a vanishing third derivative, so its Hessian is
the same at every theta: the solver builds and factors H + lambda I once and
reuses the factor to certify the decrement.

For such a loss the caller may pass that Hessian sum_i w_i H_i itself, as
``newton_minimize(..., hessian=H)``; a population keeps its H and hands it to
each of its solves, while draw solves, whose weights change every time, let
the solver build theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ContractViolation, NonConvergenceError
from .linalg import chol_factor, chol_solve, radius_from_factor
from .losses import SampleSet

__all__ = ["SolverConfig", "SolveResult", "solve_erm", "decrement", "newton_minimize"]


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 200
    # unused by the solver; kept only because bench/spans.py still reads it
    pure_newton_below: ClassVar[float] = math.inf

    def __post_init__(self):
        if not self.tol > 0:
            raise ContractViolation("tol must be positive")
        if self.max_iter < 1:
            raise ContractViolation("max_iter must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    theta_hat: np.ndarray
    decrement_trace: tuple
    iterations: int


def _as_weights(weights, m):
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ContractViolation(f"weights have shape {w.shape}, expected ({m},)")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ContractViolation("weights must be finite and nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ContractViolation("weights must sum to 1")
    return w


def newton_minimize(sset: SampleSet, weights, lam: float,
                    config: SolverConfig | None = None,
                    hessian: np.ndarray | None = None) -> SolveResult:
    """Minimize the weighted regularized risk over a stacked sample set.

    lam may be 0 here (population minimizers under an attainment guarantee);
    the public ``solve_erm`` enforces lam > 0. ``hessian``, allowed only for a
    quadratic ``sset``, is the (d, d) weighted Hessian of these weights and is
    used in place of building it; it is not written to. Each step's decrease
    is certified by the value bound (see the module docstring), so no
    objective value is computed. Raises NonConvergenceError, carrying the
    decrement trace, on iteration exhaustion, or at lam = 0 a singular Hessian
    or a final decrement above half the Dikin radius (a small decrement alone
    also occurs on separable data).
    """
    config = config or SolverConfig()
    if lam < 0:
        raise ContractViolation("lambda must be nonnegative")
    w = _as_weights(weights, len(sset))
    quadratic = sset.quadratic
    if hessian is not None:
        if not quadratic:
            raise ContractViolation("a fixed Hessian needs a loss whose certificate set is {0}")
        if np.shape(hessian) != (sset.dim, sset.dim):
            raise ContractViolation(
                f"hessian has shape {np.shape(hessian)}, expected ({sset.dim}, {sset.dim})")
    theta = np.zeros(sset.dim)
    trace: list[float] = []
    # a quadratic loss has one Hessian, built (or given) and factored once
    factor = None
    for _ in range(config.max_iter):
        g = sset.weighted_grad(w, theta) + lam * theta
        if factor is None or not quadratic:
            h = sset.weighted_hess(w, theta) if hessian is None else np.array(hessian, dtype=float)
            h[np.diag_indices_from(h)] += lam
            try:
                factor = chol_factor(h)
            except ContractViolation as exc:
                raise NonConvergenceError(
                    f"regularized Hessian not positive definite (lambda={lam}): {exc}", trace
                ) from exc
        step = -chol_solve(factor, g)
        dec = float(np.sqrt(max(-float(g @ step), 0.0)))
        trace.append(dec)
        if dec <= config.tol:
            # the localization lemma's proof that a lam = 0 minimum is attained
            if lam == 0.0 and dec > radius_from_factor(factor, sset.certificate_rows) / 2.0:
                raise NonConvergenceError(
                    f"population minimum not attained: decrement {dec:.3e} exceeds half "
                    f"the Dikin radius at lambda=0", trace)
            theta.setflags(write=False)
            return SolveResult(theta, tuple(trace), len(trace) - 1)
        mu = sset.seminorm(step)
        theta = theta + (step if mu <= 1.0 else math.log1p(mu) / mu * step)
    raise NonConvergenceError(
        f"no convergence to decrement {config.tol} within {config.max_iter} iterations", trace
    )


def solve_erm(sset: SampleSet, weights, lam: float,
              config: SolverConfig | None = None) -> SolveResult:
    """Unique minimizer of sum_i w_i l_{z_i}(theta) + lam/2 ||theta||^2, lam > 0."""
    if lam <= 0:
        raise ContractViolation("solve_erm requires lambda > 0")
    return newton_minimize(sset, weights, lam, config)


def decrement(sset: SampleSet, weights, lam: float, theta) -> float:
    """Newton decrement sqrt(grad^T (H_hat + lam I)^{-1} grad) at theta."""
    if lam <= 0:
        raise ContractViolation("decrement requires lambda > 0")
    w = _as_weights(weights, len(sset))
    theta = np.asarray(theta, dtype=float)
    g = sset.weighted_grad(w, theta) + lam * theta
    h = sset.weighted_hess(w, theta)
    h[np.diag_indices_from(h)] += lam
    factor = chol_factor(h)
    return float(np.sqrt(max(g @ chol_solve(factor, g), 0.0)))
