"""Exact-expectation oracle over finitely supported distributions.

A ``FinitePopulation`` is a ``SampleSet`` of atoms with a weight vector, so
every expectation — risk, gradient, Hessian, bias, degrees of freedom, Dikin
radius — is a finite sum computed exactly. Populations therefore serve as
ground truth when checking inequalities and convergence rates against Monte
Carlo draws.

Diagnostic quantities at a regularization level lambda:

    Bias   = lambda * || (H(t*) + lambda I)^{-1/2} t* ||
    df     = E || (H(t*) + lambda I)^{-1/2} grad l_Z(t*) ||^2
    1/r    = sup over atoms and certificate vectors of ||g||_{H_lambda^{-1}}
    t_lam  = sup over atoms of the certificate factor at direction t*_lam - t*

A population solves t* = argmin L, H(t*) and its eigendecomposition
H(t*) = sum_i e_i u_i u_i^T once, on first use, and each t*_lam once per
lambda. For a quadratic loss (certificate set {0}, ``SampleSet.quadratic``)
H(t) = sum_i w_i x_i x_i^T is the same at every t: the population builds it
once, without solving t* first, and ``exact_hessian`` and every t* and t*_lam
solve reuse it instead of rebuilding it. Bias and df are O(d) sums over the
one spectrum that every lambda of the population shares:

    Bias^2 = lambda^2 sum_i (u_i . t*)^2 / (e_i + lambda)
    df     = sum_i E[(u_i . grad l_Z(t*))^2] / (e_i + lambda)

For a scalar loss the gradient moments E[(u_i . grad l_Z(t*))^2] are summed
once per distinct feature row (``SampleSet.grad_moments``), and the pointwise
bounds B1 and B2 read each row's norm once, so no population quantity builds
the per-atom gradient matrix.

Where the Bartlett identity E[grad grad^T] = H(t*) holds, df is the effective
dimension Tr H (H + lambda)^{-1} = sum_i e_i / (e_i + lambda) of Caponnetto
and De Vito (Optimal rates for the regularized least-squares algorithm, 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import scfun
from .errors import ContractViolation
from .linalg import add_ridge, chol_factor, radius_from_factor
from .losses import LogisticLoss, LossModel, SampleSet, SquareLoss, _check_theta, _sigmoid
from .solver import SolverConfig, newton_minimize

__all__ = [
    "FinitePopulation",
    "DiagnosticsReport",
    "ScConstants",
    "ExponentFit",
    "ConstructionMeta",
    "exact_risk",
    "exact_grad",
    "exact_hessian",
    "bias_lambda",
    "df_lambda",
    "dikin_radius",
    "t_lambda",
    "pointwise_bounds",
    "constants_at",
    "default_lambda_grid",
    "compute_diagnostics",
    "estimate_source_exponent",
    "estimate_capacity_exponent",
    "make_source_population",
    "make_logistic_population",
    "stack_samples",
]

_POP_SOLVE_TOL = 1e-12


@dataclass(frozen=True)
class ConstructionMeta:
    """Ground-truth attributes of a synthetically constructed population."""

    theta_star: np.ndarray
    hess_eigenvalues: np.ndarray
    r: float | None = None
    alpha: float | None = None
    source_norm: float | None = None
    capacity_q: float | None = None


@dataclass(frozen=True)
class FinitePopulation:
    """Finitely supported distribution: a ``SampleSet`` of atoms and their
    strictly positive weights. theta*, H(theta*), its spectrum and each
    theta*_lambda are computed on first use and kept."""

    sample_set: SampleSet
    weights: np.ndarray
    meta: ConstructionMeta | None = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (len(self.sample_set),):
            raise ContractViolation("weights and atoms disagree in length")
        if not np.all(w > 0):
            raise ContractViolation("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ContractViolation(f"weights sum to {w.sum()!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_theta_lambdas", {})

    @cached_property
    def theta_star(self) -> np.ndarray:
        """Minimizer theta* of the unregularized risk (a failed solve raises
        and is not cached)."""
        return _minimize_population(self, 0.0)

    @cached_property
    def hessian_at_star(self) -> np.ndarray:
        """H(theta*), read-only; for a quadratic loss, H at every theta, built
        without solving theta*."""
        sset = self.sample_set
        theta = np.zeros(self.dim) if sset.quadratic else self.theta_star
        hessian = sset.weighted_hess(self.weights, theta)
        hessian.setflags(write=False)
        return hessian

    @cached_property
    def spectrum(self) -> tuple:
        """Eigenvalues e_i of H(theta*), with (u_i . theta*)^2 and
        E[(u_i . grad l_Z(theta*))^2] over its eigenvectors u_i."""
        eigs, vecs = np.linalg.eigh(self.hessian_at_star)
        grad_sq = self.sample_set.grad_moments(self.weights, self.theta_star, vecs)
        return np.maximum(eigs, 0.0), (self.theta_star @ vecs) ** 2, grad_sq

    def theta_lambda(self, lam: float) -> np.ndarray:
        """Minimizer theta*_lambda of the lambda-regularized risk, lambda > 0,
        solved once per lambda (a failed solve raises and is not cached)."""
        lam = float(lam)
        if lam <= 0:
            raise ContractViolation("theta_lambda requires lambda > 0")
        solved = self._theta_lambdas
        if lam not in solved:
            solved[lam] = _minimize_population(self, lam)
        return solved[lam]

    @property
    def loss(self) -> LossModel:
        return self.sample_set.loss

    @property
    def dim(self) -> int:
        return self.sample_set.dim


def stack_samples(loss: LossModel, samples) -> SampleSet:
    """The ``SampleSet`` of a sequence of ``Sample`` objects of one shape, for
    inline atoms and small hand-written supports."""
    samples = tuple(samples)
    if not samples:
        raise ContractViolation("empty sample list")
    if len({z.features.shape for z in samples}) > 1:
        raise ContractViolation("samples disagree on feature shape")
    return SampleSet(loss, np.stack([z.features for z in samples]), [z.label for z in samples])


def exact_risk(pop: FinitePopulation, theta, lam: float = 0.0) -> float:
    if lam < 0:
        raise ContractViolation("lambda must be nonnegative")
    theta = np.asarray(theta, dtype=float)
    return pop.sample_set.weighted_value(pop.weights, theta) + 0.5 * lam * float(theta @ theta)


def exact_grad(pop: FinitePopulation, theta, lam: float = 0.0) -> np.ndarray:
    if lam < 0:
        raise ContractViolation("lambda must be nonnegative")
    theta = np.asarray(theta, dtype=float)
    return pop.sample_set.weighted_grad(pop.weights, theta) + lam * theta


def exact_hessian(pop: FinitePopulation, theta, lam: float = 0.0) -> np.ndarray:
    """H(theta) + lam I as a new, writable array; a quadratic loss copies the
    population's one cached H."""
    if lam < 0:
        raise ContractViolation("lambda must be nonnegative")
    theta = _check_theta(theta, pop.dim)
    if pop.sample_set.quadratic:
        return add_ridge(pop.hessian_at_star, lam)
    h = pop.sample_set.weighted_hess(pop.weights, theta)
    return add_ridge(h, lam) if lam else h


def _minimize_population(pop: FinitePopulation, lam: float) -> np.ndarray:
    """Minimizer of the exact regularized population risk.

    lam = 0 is allowed for populations whose unregularized minimum is
    attained (the synthetic constructions below guarantee it); failure to
    converge or to certify attainment there surfaces as NonConvergenceError.
    """
    hessian = pop.hessian_at_star if pop.sample_set.quadratic else None
    res = newton_minimize(pop.sample_set, pop.weights, lam, SolverConfig(tol=_POP_SOLVE_TOL),
                          hessian=hessian)
    return res.theta_hat


def bias_lambda(pop: FinitePopulation, lam: float) -> float:
    """lambda * ||theta*||_{H_lambda(theta*)^{-1}}; always <= sqrt(lambda)||theta*||."""
    if lam <= 0:
        raise ContractViolation("bias_lambda requires lambda > 0")
    eigs, theta_sq, _ = pop.spectrum
    return lam * math.sqrt(float(np.sum(theta_sq / (eigs + lam))))


def df_lambda(pop: FinitePopulation, lam: float) -> float:
    """Exact degrees of freedom E ||grad l_Z(theta*)||^2_{H_lambda^{-1}(theta*)}."""
    if lam <= 0:
        raise ContractViolation("df_lambda requires lambda > 0")
    eigs, _, grad_sq = pop.spectrum
    return float(np.sum(grad_sq / (eigs + lam)))


def dikin_radius(pop: FinitePopulation, theta, lam: float) -> float:
    """Inverse of the largest H_lambda^{-1/2}-norm of a certificate vector.

    Returns inf when every certificate vector is zero (square loss).
    """
    if lam <= 0:
        raise ContractViolation("dikin_radius requires lambda > 0")
    if pop.sample_set.quadratic:
        return math.inf
    return radius_from_factor(chol_factor(exact_hessian(pop, theta, lam)),
                              pop.sample_set.certificate_rows)


def t_lambda(pop: FinitePopulation, lam: float) -> float:
    """Certificate seminorm of theta*_lambda - theta*, exact sup over atoms;
    0 for the square loss (certificate set {0}) without solving theta*_lambda."""
    if lam <= 0:
        raise ContractViolation("t_lambda requires lambda > 0")
    if pop.sample_set.quadratic:
        return 0.0
    return pop.sample_set.seminorm(pop.theta_lambda(lam) - pop.theta_star)


def pointwise_bounds(pop: FinitePopulation, theta) -> tuple[float, float]:
    """Exact B1(theta) = sup ||grad l_z||, B2(theta) = sup Tr(hess l_z) over atoms."""
    sset = pop.sample_set
    theta = np.asarray(theta, dtype=float)
    return float(np.max(sset.grad_norms(theta))), float(np.max(sset.trace_hess(theta)))


# -- constants -----------------------------------------------------------------

_BERN_FACTOR = 2.0 * math.sqrt(2.0) * (1.0 + 1.0 / (2.0 * math.sqrt(3.0)))
_K_VAR_BASIC = (1.0 + scfun.psi(scfun.LOG2)) / scfun.phi_lower(scfun.LOG2) ** 2


@dataclass(frozen=True)
class ScConstants:
    """All lambda-dependent constants of the refined decomposition, plus the
    universal constants of the simplified analysis.

    ``branch`` records whether t_tilde = Bias/r_lambda(theta*) fell in the
    universal regime (<= 1/2, hence t_lambda <= log 2) or the exponential one.
    """

    lam: float
    bias: float
    df: float
    dikin: float
    t_lambda: float
    t_tilde: float
    branch: str
    k_bias: float
    k_var: float
    shift1: float
    shift2: float
    c_bias: float
    c_var: float
    n_factor_hessian: float
    n_factor_variance: float
    # simplified-setting constants (independent of lambda)
    k_var_basic: ClassVar[float] = _K_VAR_BASIC
    bern_basic: ClassVar[float] = _BERN_FACTOR
    c_bias_basic: ClassVar[float] = 1.0 + _K_VAR_BASIC / 8.0
    c_var_basic: ClassVar[float] = 2.0 * _K_VAR_BASIC * _BERN_FACTOR**2


def _constants_from_t(lam: float, tla: float, bias: float, df: float,
                      dikin: float) -> ScConstants:
    t_tilde = 0.0 if math.isinf(dikin) else bias / dikin
    log2 = scfun.LOG2
    psi_shift = scfun.psi(tla + log2)
    phl_t = scfun.phi_lower(tla)
    phl_log2 = scfun.phi_lower(log2)
    e_t = math.exp(tla)
    shift1 = math.exp(tla / 2.0)
    shift2 = shift1 * (1.0 + e_t)
    k_bias = 2.0 * psi_shift / phl_t**2
    k_var = 2.0 * psi_shift * e_t / phl_log2**2
    c_bias = psi_shift * (2.0 / phl_t + e_t / phl_log2**2)
    c_var = 64.0 * psi_shift * e_t**2 / phl_log2**2
    tri1 = 576.0 * shift1**2 * shift2**2 * max(0.5, t_tilde) ** 2
    tri2 = 256.0 * shift1**4
    return ScConstants(
        lam=lam,
        bias=bias,
        df=df,
        dikin=dikin,
        t_lambda=tla,
        t_tilde=t_tilde,
        branch="universal" if t_tilde <= 0.5 else "exponential",
        k_bias=k_bias,
        k_var=k_var,
        shift1=shift1,
        shift2=shift2,
        c_bias=c_bias,
        c_var=c_var,
        n_factor_hessian=tri1,
        n_factor_variance=tri2,
    )


def constants_at(pop: FinitePopulation, lam: float) -> ScConstants:
    """Bias, df, Dikin radius r_lambda(theta*) and t_lambda of this population,
    with every decomposition constant evaluated at them."""
    return _constants_from_t(lam, t_lambda(pop, lam=lam), bias_lambda(pop, lam=lam),
                             df_lambda(pop, lam=lam), dikin_radius(pop, pop.theta_star, lam))


# -- diagnostics over a lambda grid ---------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    value: float
    slope: float
    residual: float
    n_points: int


@dataclass(frozen=True)
class DiagnosticsReport:
    population_dim: int
    lambda_grid: np.ndarray
    bias: np.ndarray
    df: np.ndarray
    dikin: np.ndarray
    t_lambda: np.ndarray
    constants: tuple
    fitted_r: ExponentFit | None = None
    fitted_alpha: ExponentFit | None = None


def default_lambda_grid(b2_star: float, k_min: int, k_max: int) -> np.ndarray:
    """Geometric grid {2^-k} intersected with (0, B2*]."""
    grid = 2.0 ** -np.arange(k_min, k_max + 1, dtype=float)
    return grid[grid <= b2_star]


def compute_diagnostics(pop: FinitePopulation, lambda_grid) -> DiagnosticsReport:
    """Bias, df, Dikin radius, t_lambda and constants on a lambda grid.

    The localization bound on t_lambda (t <= log 2 when Bias <= r/2, else
    t <= 2 R ||theta*||) is asserted at every grid point; a violation would
    falsify the implementation and raises immediately.
    """
    grid = np.sort(np.asarray(lambda_grid, dtype=float))[::-1]
    if grid.size == 0 or np.any(grid <= 0):
        raise ContractViolation("lambda grid must be nonempty and positive")
    sup = sup_norm_certificate(pop)
    theta_norm = float(np.linalg.norm(pop.theta_star))
    consts = tuple(constants_at(pop, lam=lam) for lam in grid)
    for c in consts:
        if c.bias <= c.dikin / 2.0:
            bound = scfun.LOG2
        else:
            bound = 2.0 * sup * theta_norm
        if c.t_lambda > bound + 1e-9 * max(1.0, bound):
            raise ContractViolation(
                f"localization bound violated at lambda={c.lam}: t={c.t_lambda}, bound={bound}"
            )
    bias, df, dik, tla = np.array([(c.bias, c.df, c.dikin, c.t_lambda) for c in consts]).T
    report = DiagnosticsReport(
        population_dim=pop.dim,
        lambda_grid=grid,
        bias=bias,
        df=df,
        dikin=dik,
        t_lambda=tla,
        constants=consts,
    )
    if _fittable(grid):
        report = replace(report, fitted_r=estimate_source_exponent(report),
                         fitted_alpha=estimate_capacity_exponent(report))
    return report


def sup_norm_certificate(pop: FinitePopulation) -> float:
    """R = the largest certificate-vector norm over atoms; 0 when there is none."""
    return float(np.max(np.linalg.norm(pop.sample_set.certificate_rows, axis=1), initial=0.0))


def _loglog_fit(lams, values):
    x = np.log(np.asarray(lams, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    return float(coef[0]), float(np.sqrt(np.mean(resid**2)))


def _fit_window(report: DiagnosticsReport) -> np.ndarray:
    """Grid points clear of both spectral edges, located through df itself:
    df near the dimension means lambda fell below the spectrum, df near zero
    means lambda sits above it. Falls back to the central half by index."""
    d = report.population_dim
    mask = (report.df >= 2.0) & (report.df <= d / 4.0)
    if mask.sum() >= 3:
        return mask
    n = report.lambda_grid.size
    q = n // 4
    mask = np.zeros(n, dtype=bool)
    mask[q:n - q] = True
    if mask.sum() < 3:
        mask[:] = True
    return mask


def _fittable(grid) -> bool:
    # a set, not np.unique: np.unique imports numpy.ma on its first call
    return len(set(grid.tolist())) >= 3


def _check_grid(report: DiagnosticsReport):
    if not _fittable(report.lambda_grid):
        raise ContractViolation("exponent fit needs at least 3 distinct lambda values")


def estimate_source_exponent(report: DiagnosticsReport) -> ExponentFit:
    """Source exponent from the slope of log Bias vs log lambda.

    Bias ~ lambda^{(1+2r)/2}, so r_hat = slope - 1/2.
    """
    _check_grid(report)
    mask = _fit_window(report)
    slope, resid = _loglog_fit(report.lambda_grid[mask], np.maximum(report.bias[mask], 1e-300))
    return ExponentFit(value=slope - 0.5, slope=slope, residual=resid, n_points=int(mask.sum()))


def estimate_capacity_exponent(report: DiagnosticsReport) -> ExponentFit:
    """Capacity exponent from the slope of log df vs log lambda.

    df ~ lambda^{-1/alpha}, so alpha_hat = -1/slope; a flat fit (finite
    dimension saturating) reports alpha_hat = inf.
    """
    _check_grid(report)
    mask = _fit_window(report)
    slope, resid = _loglog_fit(report.lambda_grid[mask], np.maximum(report.df[mask], 1e-300))
    alpha = math.inf if slope >= -1e-6 else -1.0 / slope
    return ExponentFit(value=alpha, slope=slope, residual=resid, n_points=int(mask.sum()))


# -- synthetic constructions -----------------------------------------------------

def _capacity_constant(eigs: np.ndarray, alpha: float) -> float:
    lams = np.geomspace(min(eigs.min() * 1e-3, 1.0), 1.0, 400)
    df = (eigs[None, :] / (eigs[None, :] + lams[:, None])).sum(axis=1)
    return float(np.max(df * lams ** (1.0 / alpha)))


# Atoms 4j to 4j + 3 of an axis population sit at s_j e_j, s_j e_j, -s_j e_j and
# -s_j e_j, with label signs +, -, +, -.
_AXIS_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_LABEL_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _axis_population(loss: LossModel, scales: np.ndarray, theta_star: np.ndarray,
                     probs: np.ndarray, meta: ConstructionMeta) -> FinitePopulation:
    """The axis population of the square or the logistic loss: direction j is
    carried by the points +-s_j e_j of probability q_j / 2 each, and each
    point's conditional label law at theta* is folded into its atoms' weights:
    labels theta*.x +- 1 with probability 1/2 each (square loss), or +-1 with
    probability sigmoid(+-theta*.x) (logistic loss). theta* is then the exact
    minimizer, and H(theta*) is diagonal."""
    d = scales.size
    rows = np.arange(4 * d)
    features = np.zeros((4 * d, d))
    features[rows, rows // 4] = np.outer(scales, _AXIS_SIGNS).ravel()
    margins = np.outer(theta_star * scales, _AXIS_SIGNS)
    if isinstance(loss, SquareLoss):
        labels = (margins + _LABEL_SIGNS).ravel()
        weights = np.repeat(probs / 4.0, 4)
        weights /= weights.sum()  # not the logistic weights: that shifts their last bits
    else:
        labels = np.tile(_LABEL_SIGNS, d)
        p_plus = _sigmoid(margins).ravel()
        weights = np.repeat(probs / 2.0, 4) * np.where(labels > 0, p_plus, 1.0 - p_plus)
    return FinitePopulation(SampleSet(loss, features, labels), weights, meta)


def make_source_population(d: int, r: float, alpha: float, seed: int) -> FinitePopulation:
    """Square-loss population with prescribed source and capacity exponents.

    The covariance is exactly diagonal with eigenvalues j^-alpha: direction j
    is carried by atoms +-s_j e_j of total probability q_j with
    q_j s_j^2 = j^-alpha. The direction probabilities are importance-weighted
    toward the top of the spectrum (q_j proportional to the square root of
    the eigenvalue), so finite draws rarely miss the directions that dominate
    the excess risk; missing a tail direction costs next to nothing. theta* =
    C^r v for a unit-norm v with decaying coordinates, and labels are
    theta*.Phi plus independent +-1 noise, so the population minimizer is
    theta* and df equals Tr(C (C + lambda)^{-1}) exactly. v's coordinate
    decay is j^-1/2 (the profile whose bias slope is exactly (1+2r)/2 for
    r < 1/2) and j^-3/4 at r = 1/2, where any summable profile gives slope 1
    and the faster decay suppresses the edge terms.
    """
    if d < 2:
        raise ContractViolation("source population needs d >= 2")
    if not 0.0 <= r <= 0.5:
        raise ContractViolation("r must lie in [0, 0.5] (source condition range)")
    if alpha < 1.0:
        raise ContractViolation("alpha must be >= 1 (capacity condition range)")
    rng = np.random.default_rng(seed)
    j = np.arange(1, d + 1, dtype=float)
    eigs = j**-alpha
    s_exp = 1.5 if r > 0.499 else 1.0
    v = j ** (-s_exp / 2.0)
    v /= np.linalg.norm(v)
    v *= rng.choice([-1.0, 1.0], size=d)
    theta_star = eigs**r * v
    probs = np.sqrt(eigs)
    probs /= probs.sum()
    meta = ConstructionMeta(
        theta_star=theta_star,
        hess_eigenvalues=eigs,
        r=r,
        alpha=alpha,
        source_norm=1.0,
        capacity_q=_capacity_constant(eigs, alpha),
    )
    return _axis_population(SquareLoss(), np.sqrt(eigs / probs), theta_star, probs, meta)


_TOP_CURVATURE = 0.25
_COEFF_SCALE = 0.1


def make_logistic_population(d: int, alpha: float, seed: int) -> FinitePopulation:
    """Well-specified logistic axis population with a prescribed Hessian spectrum.

    Every direction has probability q_j = 1/d, and labels follow the true
    conditional sigmoid(theta*.x), so the Bartlett identity holds. The
    margins m_j = s_j |theta*_j| solve sigma(m)sigma(-m)m^2 = d h_j
    theta*_j^2, so that H(theta*) is diagonal with h_j = _TOP_CURVATURE *
    j^-alpha while theta*_j^2 = _COEFF_SCALE / j (a no-source coefficient
    profile: the bias exponent stays at the slow-rate value 1/2). The margin
    equation is solvable for d <= 17.
    """
    if d < 1:
        raise ContractViolation("d must be >= 1")
    if alpha < 0:
        raise ContractViolation("alpha must be nonnegative")
    rng = np.random.default_rng(seed)
    j = np.arange(1, d + 1, dtype=float)
    h = _TOP_CURVATURE * j**-alpha
    a2 = _COEFF_SCALE / j
    kappa = d * h * a2
    # g(m) = sigma(m)sigma(-m)m^2 increases on [0, 2.39] up to ~0.4395
    if np.any(kappa > 0.43):
        raise ContractViolation(
            f"logistic profile infeasible at d={d}: the margin equation needs d <= 17")
    theta_star = np.sqrt(a2) * rng.choice([-1.0, 1.0], size=d)
    scales = _bisect_margins(kappa) / np.abs(theta_star)
    meta = ConstructionMeta(theta_star=theta_star, hess_eigenvalues=h, alpha=alpha)
    return _axis_population(LogisticLoss(), scales, theta_star, np.full(d, 1.0 / d), meta)


def _bisect_margins(kappa: np.ndarray) -> np.ndarray:
    """Solve sigma(m)sigma(-m)m^2 = kappa on [0, 2.39] for every entry (0 where kappa <= 0)."""
    lo, hi = np.zeros_like(kappa), np.full_like(kappa, 2.39)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        s = _sigmoid(mid)
        below = s * (1.0 - s) * mid * mid - kappa < 0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.where(kappa > 0, 0.5 * (lo + hi), 0.0)
