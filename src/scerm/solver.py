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

Every solve is a batch. ``newton_minimize_batch`` takes an (R, m) weight
matrix, one replicate per row, over one support at one lambda, and returns
R outcomes: a ``SolveResult``, or the replicate's own NonConvergenceError
with its decrement trace. Each replicate converges, fails or steps on its
own; a replicate that is done keeps its iterate, and the gradients and
seminorms a batch shares are taken over all R rows, so its outcome does not
depend on the others. ``newton_minimize`` is the R = 1 case, raising the
replicate's error.

On quadratic objectives (square loss) mu = 0 and the first full step is exact,
so the solver stops after one iteration. A loss whose certificate set is {0}
(``SampleSet.quadratic``) has a vanishing third derivative, so its Hessian is
the same at every theta: the solver factors one Newton system per replicate
once and reuses the factor to certify the decrement. ``_minimize`` picks
which system from the input alone:

- Over k <= d distinct rows (``len(sset.rows) <= sset.dim``), at lambda > 0,
  or at lambda = 0 when k = d and every weight of the batch is > 0, the
  solve runs in the span of the rows K of nonzero Hessian coefficient c_K,
  where the minimizer lies (the representer theorem): theta = R_K^T beta,
  and the system is the k x k M = G_KK + diag(lambda / c_K), with G_KK a
  block of the row Gram ``SampleSet.row_gram``, in place of the (d, d)
  H + lambda I. It is the coefficient form of kernel ridge regression; the
  Woodbury identity's difference form (g - R_K^T M^{-1} R_K g) / lambda
  would lose digits as lambda shrinks. At lambda = 0, d independent rows,
  all kept, span R^d, so the span minimizer is the minimizer; dependent (or
  zero) rows fail in M's factor as the singular H would. When no
  two rows share a nonzero coordinate (``SampleSet.rows_orthogonal``, as
  the axis-aligned rows both generators draw), M is diagonal with G's
  diagonal ``SampleSet.row_sqnorms``: each replicate's factor is the square
  root of its diagonal (``linalg.diag_chol_factor``), and the whole batch
  solves as (R, k) arrays, each replicate with its own kept mask K.
- Otherwise the solver builds H + lambda I and factors it.

A quadratic solve that factors a dense (k, k) or (d, d) system keeps that
factor for its second iteration, so those batches run one replicate at a
time, each holding one such factor. A loss that is not quadratic refactors
at every iteration: the batch takes its gradients and step seminorms in one
call each over the (R, d) stack of iterates, and builds, factors and solves
its live replicates' systems as stacks (``linalg.chol_solve_stack``, numpy's
stacked LAPACK for several systems and scipy's for one), so a replicate's
bits depend on whether it is solved alone, never on the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ContractViolation, NonConvergenceError, check_lambda
from .linalg import (chol_factor, chol_solve, chol_solve_stack, diag_chol_factor,
                     radius_from_factor)
from .losses import SampleSet

__all__ = ["SolverConfig", "SolveResult", "solve_erm", "newton_minimize",
           "newton_minimize_batch"]


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


def _as_weights(weights, m, stacked: bool = False):
    """weights as a float array of shape (m,), or (R, m) with R >= 1 when
    stacked: finite, nonnegative, and each row summing to 1."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 + stacked or w.shape[-1:] != (m,) or not len(w):
        expected = f"(R, {m})" if stacked else f"({m},)"
        raise ContractViolation(f"weights have shape {w.shape}, expected {expected}")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ContractViolation("weights must be finite and nonnegative")
    if (np.abs(w.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ContractViolation("weights must sum to 1")
    return w


class _Replicate:
    """One replicate's decrement trace and, once it has one, its outcome: a
    SolveResult or its own NonConvergenceError."""

    def __init__(self, lam: float):
        self.lam = lam
        self.trace = []
        self.outcome = None

    def fail(self, message: str, cause: Exception | None = None):
        self.outcome = NonConvergenceError(message, self.trace)
        self.outcome.__cause__ = cause
        return self.outcome

    def finish(self, theta: np.ndarray) -> SolveResult:
        theta = np.array(theta)
        theta.setflags(write=False)
        self.outcome = SolveResult(theta, tuple(self.trace), len(self.trace) - 1)
        return self.outcome

    def factor(self, factorize, a: np.ndarray):
        """factorize(a), or None with the replicate failed when it raises."""
        try:
            return factorize(a)
        except ContractViolation as exc:
            self.unfactored(exc)
            return None

    def unfactored(self, exc: ContractViolation) -> float:
        """Fail the replicate, whose regularized Hessian a factorization
        rejected; NaN, its decrement."""
        self.fail(f"regularized Hessian not positive definite (lambda={self.lam}): {exc}", exc)
        return math.nan

    def decrement(self, sq: float) -> float:
        """The decrement sqrt(g . (H + lam I)^{-1} g), given that quadratic
        form, appended to the trace; NaN, with the replicate failed, when
        the form is not finite."""
        if not math.isfinite(sq):  # checked before the clip: max(0.0, nan) is 0.0
            self.fail(f"Newton system is not finite (lambda={self.lam})")
            return math.nan
        dec = math.sqrt(max(0.0, sq))
        self.trace.append(dec)
        return dec

    def exhausted(self, config: SolverConfig):
        """The outcome, failed for want of iterations if there is none yet."""
        return self.outcome or self.fail(f"no convergence to decrement {config.tol} within "
                                         f"{config.max_iter} iterations")


# an overflowing sum is not warned about: the solver rejects a non-finite
# Hessian factor or Newton system itself
@np.errstate(over="ignore", invalid="ignore")
def newton_minimize_batch(sset: SampleSet, weights, lam: float,
                          config: SolverConfig | None = None) -> list:
    """Minimize the weighted regularized risk over a stacked sample set for
    each row of an (R, m) weight matrix, in one batch.

    Returns R outcomes in row order: a ``SolveResult``, or the replicate's
    NonConvergenceError carrying its own decrement trace, for any failure
    ``newton_minimize`` raises. Argument errors (lambda, weights) raise
    ContractViolation for the whole batch.
    """
    config = config or SolverConfig()
    check_lambda(lam, "newton_minimize", zero_ok=True)
    return _minimize(sset, _as_weights(weights, len(sset), stacked=True), lam, config)


@np.errstate(over="ignore", invalid="ignore")
def newton_minimize(sset: SampleSet, weights, lam: float,
                    config: SolverConfig | None = None) -> SolveResult:
    """Minimize the weighted regularized risk over a stacked sample set: the
    R = 1 case of ``newton_minimize_batch``.

    lam may be 0 here (population minimizers under an attainment guarantee);
    the public ``solve_erm`` enforces lam > 0. Each step's decrease is
    certified by the value bound, and a quadratic solve's system is picked
    from the input (see the module docstring). Raises NonConvergenceError,
    carrying the decrement trace, on iteration exhaustion, a Newton system
    that is not positive definite, a gradient or Newton step that is not
    finite, or at lam = 0 a final decrement above half the Dikin radius (a
    small decrement alone also occurs on separable data).
    """
    config = config or SolverConfig()
    check_lambda(lam, "newton_minimize", zero_ok=True)
    (outcome,) = _minimize(sset, _as_weights(weights, len(sset))[None], lam, config)
    if isinstance(outcome, NonConvergenceError):
        raise outcome
    return outcome


def _minimize(sset: SampleSet, w: np.ndarray, lam: float, config: SolverConfig) -> list:
    """The batch core over checked (R, m) weights, and the one place that
    picks a path of the module docstring: a quadratic loss solves in the row
    span over k <= d rows at lam > 0, and at lam = 0 over k = d rows of which
    every replicate keeps all (every weight > 0), spanning R^d."""
    if not sset.quadratic:
        return _damped_minimize(sset, w, lam, config)
    k, d = len(sset.rows), sset.dim
    row_span = k <= d and (lam > 0.0 or k == d and (w > 0.0).all())
    if row_span and sset.rows_orthogonal:
        return _orthogonal_span_minimize(sset, w, lam, config)
    # a dense quadratic system's factor lives across both iterations: one
    # replicate at a time keeps one (k, k) or (d, d) factor alive at a time
    if row_span:
        return [_dense_span_minimize(sset, wr, lam, config) for wr in w]
    return [_quadratic_minimize(sset, wr, lam, config) for wr in w]


# the most entries in one stack of (d, d) systems, or of the scaled rows that
# build them, that a non-quadratic batch factors at once (16 MB of floats)
_STACK_ENTRIES = 2**21


def _damped_minimize(sset: SampleSet, w: np.ndarray, lam: float, config: SolverConfig) -> list:
    """Damped Newton in theta for a loss that is not quadratic, refactoring
    H + lam I at every iteration. Each iteration takes the batch's gradients
    and step seminorms in one call each over the whole (R, d) stack of
    iterates, so that a replicate's bits do not depend on which others are
    still moving (a replicate that is done keeps its iterate, and its step
    is 0), and builds, factors and solves the live replicates' systems as
    stacks of at most _STACK_ENTRIES entries (``linalg.chol_solve_stack``)."""
    count, d = len(w), sset.dim
    reps, theta = [_Replicate(lam) for _ in range(count)], np.zeros((count, d))
    size = max(1, _STACK_ENTRIES // (d * max(d, len(sset.rows))))
    # chosen by the batch's size, never by how many replicates are still live
    factorize = chol_solve_stack if count > 1 else _chol_solve_one
    live = list(range(count))
    for _ in range(config.max_iter):
        g = sset.weighted_grad(w, theta) + lam * theta
        steps = np.zeros((count, d))
        for lo in range(0, len(live), size):
            part = live[lo:lo + size]
            # a run of consecutive replicates (every one, while all are live)
            # indexes as a slice: views in place of gathered copies
            pick = slice(part[0], part[-1] + 1) if part[-1] - part[0] < len(part) else part
            h = sset.weighted_hess(w[pick], theta[pick])
            h.reshape(len(part), -1)[:, ::d + 1] += lam
            factors, x, errors = factorize(h, g[pick])
            for r, factor, xr, err in zip(part, factors, x, errors):
                rep = reps[r]
                dec = rep.unfactored(err) if err is not None else rep.decrement(float(g[r] @ xr))
                if dec > config.tol:
                    steps[r] = -xr
                # the localization lemma's proof that a lam = 0 minimum is attained
                elif lam == 0.0 and dec > radius_from_factor(factor, sset.certificate_rows) / 2.0:
                    rep.fail(f"population minimum not attained: decrement {dec:.3e} exceeds "
                             f"half the Dikin radius at lambda=0")
                elif dec <= config.tol:
                    rep.finish(theta[r])
        live = [r for r in live if reps[r].outcome is None]
        if not live:
            break
        mu = sset.seminorm(steps)
        far = mu > 1.0
        if far.any():
            steps[far] *= (np.log1p(mu[far]) / mu[far])[:, None]
        theta += steps
    return [rep.exhausted(config) for rep in reps]


def _chol_solve_one(a: np.ndarray, b: np.ndarray) -> tuple:
    """``chol_solve_stack``'s (factors, x, errors) for a stack of one system,
    through ``chol_factor`` and ``chol_solve``: on one 16 x 16 system their
    two scipy calls take a quarter of the time of numpy's stacked routines,
    and a process that solves only single systems never loads numpy's
    LAPACK workspace."""
    try:
        factor = chol_factor(a[0])
    except ContractViolation as exc:
        return np.zeros(a.shape), np.zeros(b.shape), [exc]
    return factor[None], chol_solve(factor, b[0])[None], [None]


def _orthogonal_span_minimize(sset: SampleSet, w: np.ndarray, lam: float,
                              config: SolverConfig) -> list:
    """The batch of a quadratic loss in the row span over rows of which no
    two share a nonzero coordinate, in the coefficients beta of
    theta = R^T beta, nonzero only on each replicate's rows K of nonzero
    Hessian coefficient c_K. With v = gamma + lam beta, gamma the gradient's
    row coefficients, the gradient is g = R^T v and the Newton step is
    beta_K <- beta_K - s with s = M^{-1}(v_K / c_K) and
    M = G_KK + diag(lam / c_K) from the row Gram G, which is diagonal here,
    the squared row norms: M's factor is its square-root diagonal, and the
    whole batch solves as (R, k) arrays. The squared decrement g . R_K^T s is
    v . G s, a product with G's diagonal."""
    count = len(w)
    reps = [_Replicate(lam) for _ in range(count)]
    coef = sset.hess_coefs(w, np.zeros((count, sset.dim)))
    # dpotrs with a diagonal factor multiplies by the root's reciprocal twice
    inv_root, sqnorms = np.zeros(coef.shape), sset.row_sqnorms
    for rep, c, inv in zip(reps, coef, inv_root):
        keep = c.nonzero()[0]
        root = rep.factor(diag_chol_factor, sqnorms.take(keep) + lam / c.take(keep))
        if root is not None:
            inv[keep] = 1.0 / root
    scale = np.where(coef != 0.0, coef, 1.0)
    beta, theta = np.zeros(coef.shape), np.zeros((count, sset.dim))
    live = [r for r, rep in enumerate(reps) if rep.outcome is None]
    for _ in range(config.max_iter if live else 0):
        v = sset.grad_coefs(w, theta) + lam * beta
        step = v / scale * inv_root * inv_root
        sq = np.einsum("rk,rk->r", v, sqnorms * step)
        for r in live:
            if reps[r].decrement(sq[r]) <= config.tol:
                reps[r].finish(theta[r])
        live = [r for r in live if reps[r].outcome is None]
        if not live:
            break
        # a replicate that is done keeps its coefficients
        step[[rep.outcome is not None for rep in reps]] = 0.0
        beta = beta - step
        theta = sset.combine_rows(beta)
    return [rep.exhausted(config) for rep in reps]


def _dense_span_minimize(sset: SampleSet, w: np.ndarray, lam: float,
                         config: SolverConfig):
    """One replicate of a quadratic loss in the row span over rows that
    share nonzero coordinates, in the coefficients beta of theta = R^T beta
    as in ``_orthogonal_span_minimize``, with M = G_KK + diag(lam / c_K)
    factored once by Cholesky (the one reader of ``SampleSet.row_gram``).
    The squared decrement g . R_K^T s equals v_K . G_KK s, taken without a
    second copy of G_KK. Returns its outcome."""
    rep, rows = _Replicate(lam), sset.rows
    coef = sset.hess_coefs(w, np.zeros(sset.dim))
    kept = coef.nonzero()[0]
    c = coef.take(kept)
    # one gather through flat indices: take(kept, 0).take(kept, 1) would
    # first copy k full rows of G, a transient that raised the peak RSS
    system = sset.row_gram.reshape(-1).take((kept * len(rows))[:, None] + kept)
    system.flat[::len(kept) + 1] += lam / c
    factor = rep.factor(chol_factor, system)
    beta, step = np.zeros(len(rows)), np.zeros(len(rows))
    theta = np.zeros(sset.dim)
    for _ in range(config.max_iter if factor is not None else 0):
        v = sset.grad_coefs(w, theta) + lam * beta
        step[kept] = chol_solve(factor, v.take(kept) / c)
        dec = rep.decrement(float((v @ rows) @ (step @ rows)))
        if not dec > config.tol:  # converged, or failed
            return rep.outcome or rep.finish(theta)
        beta = beta - step
        theta = beta @ rows
    return rep.exhausted(config)


def _quadratic_minimize(sset: SampleSet, w: np.ndarray, lam: float, config: SolverConfig):
    """One replicate of a quadratic loss over the (d, d) system H + lam I,
    built and factored once, since the Hessian is the same at every theta;
    each step is the full Newton step (mu = 0). The certificate set is {0},
    so the Dikin radius is infinite and a lam = 0 minimum is always attained.
    Returns its outcome."""
    rep, d = _Replicate(lam), sset.dim
    h = sset.weighted_hess(w, np.zeros(d))
    h.flat[::d + 1] += lam
    factor = rep.factor(chol_factor, h)
    theta = np.zeros(d)
    for _ in range(config.max_iter if factor is not None else 0):
        g = sset.weighted_grad(w, theta) + lam * theta
        step = -chol_solve(factor, g)
        dec = rep.decrement(-float(g @ step))
        if not dec > config.tol:  # converged, or failed
            return rep.outcome or rep.finish(theta)
        theta = theta + step
    return rep.exhausted(config)


def solve_erm(sset: SampleSet, weights, lam: float,
              config: SolverConfig | None = None) -> SolveResult:
    """Unique minimizer of sum_i w_i l_{z_i}(theta) + lam/2 ||theta||^2, lam > 0."""
    check_lambda(lam, "solve_erm")
    return newton_minimize(sset, weights, lam, config)
