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
the same at every theta: the solver factors one Newton system once and
reuses the factor to certify the decrement. Which system depends on the
input:

- Over at most d distinct rows (``len(sset.rows) <= sset.dim``), at
  lambda > 0 and with no ``hessian=``, the solve runs in the span of the rows
  K of nonzero Hessian coefficient c_K, where the minimizer lies (the
  representer theorem): theta = R_K^T beta, and the system is the k x k
  M = G_KK + diag(lambda / c_K), with G_KK a block of the row Gram
  ``SampleSet.row_gram``, in place of the (d, d) H + lambda I. It is the
  coefficient form of kernel ridge regression; the Woodbury identity's
  difference form (g - R_K^T M^{-1} R_K g) / lambda would lose digits as
  lambda shrinks. When the rows are mutually orthogonal
  (``SampleSet.rows_orthogonal``: axis-aligned rows, as both generators
  draw, or dense ones such as a Hadamard design's), M is diagonal and its
  factor is the square root of its diagonal (``linalg.diag_chol_factor``),
  with no gather of G_KK and no dpotrf.
- Otherwise the solver builds H + lambda I and factors it. The caller may
  pass H = sum_i w_i H_i itself, as ``newton_minimize(..., hessian=H)``; a
  population keeps its H and hands it to each of its solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ContractViolation, NonConvergenceError, check_lambda
from .linalg import chol_factor, chol_solve, diag_chol_factor, radius_from_factor
from .losses import SampleSet

__all__ = ["SolverConfig", "SolveResult", "solve_erm", "newton_minimize"]


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
    if (w < 0).any() or not np.isfinite(w).all():
        raise ContractViolation("weights must be finite and nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ContractViolation("weights must sum to 1")
    return w


def _factor(factorize, a: np.ndarray, lam: float, trace: list) -> np.ndarray:
    """factorize(a), with a failure raised as NonConvergenceError."""
    try:
        return factorize(a)
    except ContractViolation as exc:
        raise NonConvergenceError(
            f"regularized Hessian not positive definite (lambda={lam}): {exc}", trace
        ) from exc


def _decrement(sq: float, lam: float, trace: list) -> float:
    """The decrement sqrt(g . (H + lam I)^{-1} g) of one Newton system, given
    that quadratic form, appended to the trace."""
    if not math.isfinite(sq):  # checked before the clip: max(0.0, nan) is 0.0
        raise NonConvergenceError(f"Newton system is not finite (lambda={lam})", trace)
    dec = float(np.sqrt(max(0.0, sq)))
    trace.append(dec)
    return dec


def _result(theta: np.ndarray, trace: list) -> SolveResult:
    theta.setflags(write=False)
    return SolveResult(theta, tuple(trace), len(trace) - 1)


def _exhausted(config: SolverConfig, trace: list) -> NonConvergenceError:
    return NonConvergenceError(
        f"no convergence to decrement {config.tol} within {config.max_iter} iterations", trace
    )


# an overflowing sum is not warned about: the solver rejects a non-finite
# Hessian factor or Newton system itself
@np.errstate(over="ignore", invalid="ignore")
def newton_minimize(sset: SampleSet, weights, lam: float,
                    config: SolverConfig | None = None,
                    hessian: np.ndarray | None = None) -> SolveResult:
    """Minimize the weighted regularized risk over a stacked sample set.

    lam may be 0 here (population minimizers under an attainment guarantee);
    the public ``solve_erm`` enforces lam > 0. ``hessian``, allowed only for a
    quadratic ``sset``, is the (d, d) weighted Hessian of these weights and is
    used in place of building it; it is not written to. Each step's decrease
    is certified by the value bound (see the module docstring), so no
    objective value is computed. A quadratic solve at lam > 0 without
    ``hessian`` over at most d distinct rows runs in the span of its rows,
    and factors its system as a diagonal when those rows are mutually
    orthogonal (see the module docstring). Raises NonConvergenceError,
    carrying the decrement trace, on iteration exhaustion, a regularized
    Hessian that is not positive definite, a gradient or Newton step that is
    not finite, or at lam = 0 a final decrement above half the Dikin radius
    (a small decrement alone also occurs on separable data).
    """
    config = config or SolverConfig()
    check_lambda(lam, "newton_minimize", zero_ok=True)
    w = _as_weights(weights, len(sset))
    quadratic = sset.quadratic
    if hessian is not None:
        if not quadratic:
            raise ContractViolation("a fixed Hessian needs a loss whose certificate set is {0}")
        if np.shape(hessian) != (sset.dim, sset.dim):
            raise ContractViolation(
                f"hessian has shape {np.shape(hessian)}, expected ({sset.dim}, {sset.dim})")
    elif quadratic and lam > 0.0 and len(sset.rows) <= sset.dim:
        return _row_span_minimize(sset, w, lam, config)
    theta = np.zeros(sset.dim)
    trace: list[float] = []
    # a quadratic loss has one Hessian, built (or given) and factored once
    factor = None
    for _ in range(config.max_iter):
        g = sset.weighted_grad(w, theta) + lam * theta
        if factor is None or not quadratic:
            h = sset.weighted_hess(w, theta) if hessian is None else np.array(hessian, dtype=float)
            h.flat[::sset.dim + 1] += lam
            factor = _factor(chol_factor, h, lam, trace)
        step = -chol_solve(factor, g)
        dec = _decrement(-float(g @ step), lam, trace)
        if dec <= config.tol:
            # the localization lemma's proof that a lam = 0 minimum is attained
            if lam == 0.0 and dec > radius_from_factor(factor, sset.certificate_rows) / 2.0:
                raise NonConvergenceError(
                    f"population minimum not attained: decrement {dec:.3e} exceeds half "
                    f"the Dikin radius at lambda=0", trace)
            return _result(theta, trace)
        mu = sset.seminorm(step)
        theta = theta + (step if mu <= 1.0 else math.log1p(mu) / mu * step)
    raise _exhausted(config, trace)


def _row_span_minimize(sset: SampleSet, w: np.ndarray, lam: float,
                       config: SolverConfig) -> SolveResult:
    """newton_minimize of a quadratic loss at lam > 0 in the coefficients beta
    of theta = R^T beta over the rows, nonzero only on the rows K of nonzero
    Hessian coefficient c_K. With v = gamma + lam beta, gamma the gradient's
    row coefficients, the gradient is g = R^T v and the Newton step is
    beta_K <- beta_K - s with s = M^{-1}(v_K / c_K) and M = G_KK + diag(lam / c_K)
    from the row Gram G, factored as a diagonal over orthogonal rows. The
    squared decrement is g . R_K^T s, which equals v_K . G_KK s without a
    second copy of G_KK."""
    coef = sset.hess_coefs(w, np.zeros(sset.dim))
    kept = coef.nonzero()[0]
    c = coef.take(kept)
    trace: list[float] = []
    if sset.rows_orthogonal:
        # G_KK is diagonal, so M is too: its factor is its square-root diagonal
        factor = _factor(diag_chol_factor, np.diagonal(sset.row_gram).take(kept) + lam / c,
                         lam, trace)
    else:
        # one gather through flat indices: take(kept, 0).take(kept, 1) would
        # first copy k full rows of G, a transient that raised the peak RSS
        system = sset.row_gram.reshape(-1).take((kept * len(sset.rows))[:, None] + kept)
        system.flat[::len(kept) + 1] += lam / c
        factor = _factor(chol_factor, system, lam, trace)
    beta, step = np.zeros(len(sset.rows)), np.zeros(len(sset.rows))
    theta = np.zeros(sset.dim)
    for _ in range(config.max_iter):
        v = sset.grad_coefs(w, theta) + lam * beta
        step[kept] = chol_solve(factor, v.take(kept) / c)
        if _decrement(float((v @ sset.rows) @ (step @ sset.rows)), lam, trace) <= config.tol:
            return _result(theta, trace)
        beta = beta - step
        theta = beta @ sset.rows
    raise _exhausted(config, trace)


def solve_erm(sset: SampleSet, weights, lam: float,
              config: SolverConfig | None = None) -> SolveResult:
    """Unique minimizer of sum_i w_i l_{z_i}(theta) + lam/2 ||theta||^2, lam > 0."""
    check_lambda(lam, "solve_erm")
    return newton_minimize(sset, weights, lam, config)

