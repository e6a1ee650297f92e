"""Monte Carlo verification of the statistical guarantees.

Three regimes are supported, matching the summary table of convergence
rates:

    none             lambda ~ sqrt(log(2/delta)/n)     excess ~ n^{-1/2}
    source           lambda ~ n^{-1/(2+2r)}            excess ~ n^{-(1+2r)/(2+2r)}
    source_capacity  lambda ~ n^{-alpha/(1+a(1+2r))}   excess ~ n^{-a(1+2r)/(a(1+2r)+1)}

``RateParams.of`` reads a population's constants: B1 and B2 over the
||theta*||-ball and at theta*, R, ||theta*||, and L, Q, r and alpha from its
construction metadata, with L = ||theta*|| and Q = B1* where the metadata
gives none. The measured constants are always defined; r and alpha may be
None, and one table says which of them each regime's exponent needs.

``lambda_schedule`` evaluates the corollaries' prescriptions literally (their
constants are very conservative at desk scale, hence the clamp to (0, B2]
and plans that take any ``lambdas``); ``run_rate_experiment`` draws
i.i.d. multinomial samples from a finite population, solves the regularized
ERM per cell, and compares exact excess risks against the refined
bias/variance bound evaluated with the exact per-lambda constants. Every
draw, in rate cells and concentration replicates alike, weights the
population's atoms by their multinomial counts / n.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractViolation, NonConvergenceError
from .linalg import add_ridge, chol_factor, gen_eigmax, inv_norm, single_thread_blas
from .losses import sup_constants
from .population import (
    FinitePopulation,
    ScConstants,
    _loglog_fit,
    constants_at,
    exact_hessian,
    exact_risk,
    pointwise_bounds,
    sup_norm_certificate,
)
from .solver import newton_minimize

__all__ = [
    "REGIMES",
    "MAX_SAMPLE_SIZE",
    "RateParams",
    "ExperimentPlan",
    "CellResult",
    "RateReport",
    "ConcentrationReport",
    "lambda_schedule",
    "lambda_exponent",
    "theoretical_rate",
    "rate_constants",
    "anchored_lambdas",
    "run_rate_experiment",
    "hessian_premise_n",
    "hessian_concentration_experiment",
    "gradient_concentration_experiment",
]

# the exponent parameters each regime's rate, and so its corollary lambda, reads
_EXPONENT_PARAMS = {"none": (), "source": ("r",), "source_capacity": ("r", "alpha")}
REGIMES = tuple(_EXPONENT_PARAMS)
# the largest n a multinomial draw takes: numpy reads n as a C long
MAX_SAMPLE_SIZE = 2**63 - 1


def _missing(regime: str, r, alpha) -> tuple:
    """The exponent parameters ``regime`` needs that are None."""
    if regime not in _EXPONENT_PARAMS:
        raise ContractViolation(f"unknown regime {regime!r}")
    given = {"r": r, "alpha": alpha}
    return tuple(name for name in _EXPONENT_PARAMS[regime] if given[name] is None)


@dataclass(frozen=True)
class RateParams:
    """Constants feeding the schedules and thresholds.

    b1_ball/b2_ball are sups over the ||theta*||-ball (slow-rate regime),
    b1_star/b2_star the values at theta*; cert_radius is R, source_norm is
    the source-condition norm L, capacity_q the capacity constant Q. These
    eight must be finite and >= 0; only the exponents r and alpha may be None.
    """

    delta: float
    b1_ball: float
    b2_ball: float
    b1_star: float
    b2_star: float
    cert_radius: float
    theta_norm: float
    source_norm: float
    capacity_q: float
    r: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if not 0.0 < self.delta <= 0.5:
            raise ContractViolation("delta must lie in (0, 0.5]")
        measured = {f.name: getattr(self, f.name) for f in fields(self)
                    if f.name not in ("delta", "r", "alpha")}
        bad = [name for name, v in measured.items() if v is None or not 0.0 <= v < math.inf]
        if bad:
            raise ContractViolation(f"rate params {bad} must be finite and >= 0")

    @classmethod
    def of(cls, pop: FinitePopulation, delta: float) -> RateParams:
        """The population's constants at confidence delta. r, alpha, L and Q
        come from its construction metadata; without them L falls back to
        ||theta*|| and Q to B1*, and r and alpha stay None."""
        b1_star, b2_star = pointwise_bounds(pop)
        theta_norm = float(np.linalg.norm(pop.theta_star))
        sup, meta = sup_constants(pop.sample_set, theta_norm), pop.meta
        return cls(delta, sup.b1, sup.b2, b1_star, b2_star, sup_norm_certificate(pop), theta_norm,
                   getattr(meta, "source_norm", None) or theta_norm,
                   getattr(meta, "capacity_q", None) or b1_star,
                   getattr(meta, "r", None), getattr(meta, "alpha", None))

    @property
    def q_star_sq(self) -> float:
        """Q*^2 = B1*^2 / B2*, or 0 when B2* is 0."""
        return self.b1_star**2 / self.b2_star if self.b2_star > 0 else 0.0

    def missing(self, regime: str) -> tuple:
        """The exponent parameters ``regime`` needs that this population leaves None."""
        return _missing(regime, self.r, self.alpha)


@dataclass(frozen=True)
class ScheduledLambda:
    value: float
    clamped: bool
    raw: float


def _exponents(regime: str, r, alpha) -> tuple[float, float]:
    """(beta, gamma) of the regime: lambda ~ n^-beta and excess risk ~ n^-gamma.

    source is source_capacity at alpha = 1; none has beta = gamma = 1/2. A
    regime whose r or alpha is None raises ContractViolation.
    """
    if _missing(regime, r, alpha):
        raise ContractViolation(f"{regime} regime needs {' and '.join(_EXPONENT_PARAMS[regime])}")
    if regime == "none":
        return 0.5, 0.5
    if regime == "source":
        alpha = 1.0
    s = alpha * (1.0 + 2.0 * r)
    return alpha / (1.0 + s), s / (s + 1.0)


def _corollary_q_alpha(regime: str, params: RateParams) -> tuple[float, float]:
    """The corollary's (Q, alpha): (B1*, 1) under the source condition alone,
    (Q, alpha) under the source and capacity conditions."""
    if regime == "source":
        return params.b1_star, 1.0
    return params.capacity_q, params.alpha


def lambda_exponent(regime: str, r: float, alpha: float) -> float:
    """Decay exponent beta of the corollary's schedule lambda ~ n^-beta."""
    return _exponents(regime, r, alpha)[0]


def lambda_schedule(regime: str, n: int, params: RateParams) -> ScheduledLambda:
    """The corollary's lambda for sample size n, clamped to (0, B2], with B2
    over the ball for none and B2* otherwise. A lambda of 0, from a zero B1
    over the ball or Q, raises ContractViolation.

    none:            16 B1_ball max(1, R) sqrt(log(2/delta)/n)
    source:          (256 (B1*/L)^2 / n)^{1/(2+2r)}
    source_capacity: (256 (Q/L)^2 / n)^{alpha/(1+alpha(1+2r))}
    """
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if regime == "none":
        raw = 16.0 * params.b1_ball * max(1.0, params.cert_radius) * math.sqrt(
            math.log(2.0 / params.delta) / n
        )
        cap = params.b2_ball
        cause = "B1 over the ball"
    else:
        q, alpha = _corollary_q_alpha(regime, params)
        c0 = 256.0 * (q / params.source_norm) ** 2
        raw = (c0 / n) ** lambda_exponent(regime, params.r, alpha)
        cap = params.b2_star
        cause = "Q"
    if raw <= 0:
        raise ContractViolation(
            f"the corollary's lambda is {raw} because {cause} is 0; "
            "set rates.lambda.mode: anchored|explicit"
        )
    if raw > cap:
        return ScheduledLambda(value=cap, clamped=True, raw=raw)
    return ScheduledLambda(value=raw, clamped=False, raw=raw)


def theoretical_rate(regime: str, r: float | None = None, alpha: float | None = None) -> float:
    """Exponent gamma of the optimal excess-risk rate n^-gamma."""
    return _exponents(regime, r, alpha)[1]


@dataclass(frozen=True)
class RateConstants:
    c0: float
    c1: float
    n_threshold: float
    gamma: float
    lambda0: float | None = None
    lambda1: float | None = None


def rate_constants(regime: str, params: RateParams) -> RateConstants:
    """The corollaries' constants evaluated literally, plus the sample
    threshold N. N is reported, not enforced: at desk scale it is far above
    any n in the grids while the rates themselves already manifest.
    """
    delta = params.delta
    log2d = math.log(2.0 / delta)
    if regime == "none":
        if params.b1_ball == 0.0:
            raise ContractViolation("sample threshold unavailable: B1 over the ball is 0")
        rmax = max(1.0, params.cert_radius)
        c0 = 16.0 * params.b1_ball * rmax
        c1 = 48.0 * params.b1_ball * rmax * max(1.0, params.theta_norm**2)
        a = params.b2_ball / params.b1_ball
        n_thr = max(
            36.0 * a * a * math.log(6.0 * a * a / delta) ** 2,
            256.0 / (a * a) * log2d,
            512.0 * max((params.theta_norm * params.cert_radius) ** 2, 1.0) * log2d,
        )
        return RateConstants(c0=c0, c1=c1, n_threshold=n_thr, gamma=theoretical_rate("none"))

    q, alpha = _corollary_q_alpha(regime, params)
    r, ell = params.r, params.source_norm
    beta, gamma = _exponents(regime, r, alpha)
    c0 = 256.0 * (q / ell) ** 2
    c1 = 8.0 * 256.0**gamma * (q**gamma * ell ** (1.0 - gamma)) ** 2

    if params.cert_radius == 0.0:
        lambda0 = 1.0
    elif r > 0.0:
        lambda0 = min((2.0 * ell * params.cert_radius * log2d) ** (-1.0 / r), 1.0)
    else:
        raise ContractViolation(
            "sample threshold unavailable: r = 0 with a nonzero certificate radius"
        )
    q_star = params.b1_star / math.sqrt(params.b2_star) if params.b1_star else None
    lambda1 = min((q / q_star) ** (2.0 * alpha), 1.0) if q_star else 1.0
    lam_floor = min(params.b2_star, lambda0, lambda1)
    a = params.b2_star * ell ** (2.0 * beta) / q ** (2.0 * beta)
    n_thr = max(
        256.0 * q * q / (ell * ell) * lam_floor ** (-1.0 / beta),
        (1296.0 / (1.0 - beta) * a * math.log(5184.0 / (1.0 - beta) * a * a / delta))
        ** (1.0 / (1.0 - beta)),
    )
    return RateConstants(
        c0=c0, c1=c1, n_threshold=n_thr, gamma=gamma, lambda0=lambda0, lambda1=lambda1
    )


def anchored_lambdas(n_grid, exponent: float, anchor: float, n_anchor: int) -> tuple:
    """Desk-scale schedule lambda_n = anchor * (n/n_anchor)^-exponent.

    Keeps the corollary's decay exponent while pinning the level inside the
    population's spectral range, where the rates are actually observable.
    """
    if anchor <= 0:
        raise ContractViolation("anchor must be positive")
    if n_anchor < 1 or any(n < 1 for n in n_grid):
        raise ContractViolation("n_anchor and every n must be >= 1")
    return tuple(anchor * (n / n_anchor) ** (-exponent) for n in n_grid)


# -- experiment plan / report -----------------------------------------------------

@dataclass(frozen=True)
class ExperimentPlan:
    population: FinitePopulation
    regime: str
    n_grid: tuple
    replicates: int
    delta: float
    seed: int
    lambdas: tuple

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ContractViolation(f"unknown regime {self.regime!r}")
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) < 1 or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ContractViolation("n_grid must be nonempty, positive and strictly increasing")
        if grid[-1] > MAX_SAMPLE_SIZE:
            raise ContractViolation(f"n_grid entries must be <= {MAX_SAMPLE_SIZE}")
        if self.replicates < 1:
            raise ContractViolation("replicates must be >= 1")
        if not 0.0 < self.delta <= 0.5:
            raise ContractViolation("delta must lie in (0, 0.5]")
        lambdas = tuple(float(x) for x in self.lambdas)
        if len(lambdas) != len(grid) or not all(x > 0 for x in lambdas):
            raise ContractViolation("lambdas must give one positive lambda per n")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "lambdas", lambdas)


@dataclass(frozen=True)
class CellResult:
    n: int
    replicate: int
    lam: float
    excess_risk: float
    bound_rhs: float
    guard_ok: bool
    seed: int
    solved: bool


@dataclass(frozen=True)
class RateReport:
    cells: tuple
    mean_excess: tuple
    fitted_exponent: float
    theoretical_exponent: float | None
    violation_freq: tuple
    guard_met: tuple
    solver_failures: int


def _draw(pop: FinitePopulation, n: int, base: int, n_index: int, replicate: int):
    """Empirical weights counts / n over every atom of n i.i.d. draws from pop,
    and the seed word of the draw's SeedSequence([base, n_index, replicate])."""
    ss = np.random.SeedSequence([int(base), int(n_index), int(replicate)])
    counts = np.random.default_rng(ss).multinomial(n, pop.weights)
    return counts / float(n), int(ss.generate_state(1, dtype=np.uint32)[0])


def _bound_rhs(consts: ScConstants, params: RateParams, n: int) -> float:
    """The refined bound's RHS C_bias Bias^2 + C_var (df v Q*^2) log(2/delta) / n."""
    dfq = max(consts.df, params.q_star_sq)
    return consts.c_bias * consts.bias**2 + consts.c_var * dfq * math.log(2.0 / params.delta) / n


def _guard(consts: ScConstants, params: RateParams, n: int) -> bool:
    """Whether n meets both sample-size conditions of the refined bound."""
    lam, delta, q_star_sq, b2_star = consts.lam, params.delta, params.q_star_sq, params.b2_star
    n1 = consts.n_factor_hessian * (b2_star / lam) * math.log(
        8.0 * consts.shift1**2 * b2_star / (lam * delta)
    )
    if math.isinf(consts.dikin):
        n2 = 0.0
    else:
        n2 = (consts.n_factor_variance * max(consts.df, q_star_sq) / consts.dikin**2
              * math.log(2.0 / delta))
    return n >= n1 and n >= n2


def _run_cell(args):
    pop, lam, n, n_index, replicate, base_seed = args
    weights, cell_seed = _draw(pop, n, base_seed, n_index, replicate)
    try:
        theta_hat = newton_minimize(pop.sample_set, weights, lam).theta_hat
    except NonConvergenceError:
        theta_hat = None
    return n_index, replicate, cell_seed, theta_hat


def run_rate_experiment(plan: ExperimentPlan, jobs: int = 1) -> RateReport:
    """Draw-solve-measure over the full (n, replicate) grid.

    Each cell draws n atoms i.i.d. by weight and solves the regularized ERM
    at the plan's lambda for its n, with the population's atoms weighted by
    their multinomial counts / n. Its exact excess risk fills entry
    (n_index, replicate) of one len(n_grid) x replicates table, NaN where the
    solve failed. The refined bound's RHS and guard depend on n and lambda
    alone, so they are evaluated once per n. Every per-n summary reduces one
    row of the table over its solved entries, and the slope fit drops the
    smallest n whenever the grid has more than two points. The cells come
    out n-major, whatever order the workers finish in.
    """
    pop = plan.population
    risk_star = exact_risk(pop, pop.theta_star, 0.0)
    params = RateParams.of(pop, plan.delta)
    # each distinct lambda's population context, shared by every n it serves
    consts = {lam: constants_at(pop, lam=lam) for lam in set(plan.lambdas)}
    rhs, guard = [], []
    for n, lam in zip(plan.n_grid, plan.lambdas):
        rhs.append(_bound_rhs(consts[lam], params, n))
        guard.append(_guard(consts[lam], params, n))

    tasks = [
        (pop, plan.lambdas[ni], n, ni, rep, plan.seed)
        for ni, n in enumerate(plan.n_grid)
        for rep in range(plan.replicates)
    ]
    # a pool starts every worker at once, so it gets no more workers than cells
    workers = min(jobs, len(tasks))
    if workers > 1:
        # naming the attribute imports concurrent.futures.process: serial runs never do
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                    initializer=single_thread_blas) as pool:
            raw = list(pool.map(_run_cell, tasks, chunksize=max(1, len(tasks) // (8 * workers))))
    else:
        raw = [_run_cell(t) for t in tasks]

    excess = np.full((len(plan.n_grid), plan.replicates), math.nan)
    seeds = np.zeros(excess.shape, dtype=np.int64)
    for n_index, replicate, cell_seed, theta_hat in raw:
        seeds[n_index, replicate] = cell_seed
        if theta_hat is not None:
            excess[n_index, replicate] = exact_risk(pop, theta_hat, 0.0) - risk_star
    solved = ~np.isnan(excess)

    cells = tuple(
        CellResult(n=n, replicate=rep, lam=plan.lambdas[ni], excess_risk=float(excess[ni, rep]),
                   bound_rhs=rhs[ni], guard_ok=guard[ni], seed=int(seeds[ni, rep]),
                   solved=bool(solved[ni, rep]))
        for ni, n in enumerate(plan.n_grid)
        for rep in range(plan.replicates)
    )
    mean_excess, violation = [], []
    for row, ok, bound in zip(excess, solved, rhs):
        values = row[ok]
        mean_excess.append(float(np.mean(values)) if values.size else math.nan)
        violation.append(float(np.mean(values > bound)) if values.size else math.nan)
    guard_met = tuple(bool(g and ok.any()) for g, ok in zip(guard, solved))

    burn = 1 if len(plan.n_grid) > 2 else 0
    fit = np.maximum(np.asarray(mean_excess)[burn:], 1e-300)
    finite = np.isfinite(fit)
    if finite.sum() >= 2:
        fitted = -_loglog_fit(np.asarray(plan.n_grid)[burn:][finite], fit[finite])[0]
    else:
        fitted = math.nan

    # the regime's exponent at the r and alpha the population was built with
    theo = (None if params.missing(plan.regime)
            else theoretical_rate(plan.regime, params.r, params.alpha))

    return RateReport(
        cells=cells,
        mean_excess=tuple(mean_excess),
        fitted_exponent=fitted,
        theoretical_exponent=theo,
        violation_freq=tuple(violation),
        guard_met=guard_met,
        solver_failures=int((~solved).sum()),
    )


# -- concentration experiments -------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationReport:
    kind: str
    n: int
    replicates: int
    delta: float
    premise_n: float
    premise_ok: bool
    successes: int
    frequency: float
    threshold: float
    skipped: bool
    outcomes: tuple

    @property
    def passed(self) -> bool:
        return self.skipped or self.frequency >= self.threshold


def _binomial_threshold(p: float, replicates: int) -> float:
    sigma = math.sqrt(p * (1.0 - p) / replicates)
    return p - 3.0 * sigma


def _concentration_report(kind: str, n: int, replicates: int, delta: float, premise: float,
                          outcomes: list) -> ConcentrationReport:
    """Success frequency of the replicate outcomes; skipped when n is below
    the premise."""
    successes = int(sum(outcomes))
    premise_ok = n >= premise
    return ConcentrationReport(
        kind=kind,
        n=n,
        replicates=replicates,
        delta=delta,
        premise_n=premise,
        premise_ok=premise_ok,
        successes=successes,
        frequency=successes / replicates,
        threshold=_binomial_threshold(1.0 - delta, replicates),
        skipped=not premise_ok,
        outcomes=tuple(outcomes),
    )


def _check_run(lam: float, replicates: int) -> None:
    if lam <= 0:
        raise ContractViolation("lambda must be positive")
    if replicates < 1:
        raise ContractViolation("replicates must be >= 1")


def _sample_size(n: int | None, premise: float) -> int:
    """n, which must lie in [1, MAX_SAMPLE_SIZE], or the smallest n that meets
    the premise when None."""
    if n is None:
        if not premise <= MAX_SAMPLE_SIZE:  # also an infinite premise
            raise ContractViolation(f"the premise needs n >= {premise:.6g} > {MAX_SAMPLE_SIZE}")
        return max(1, math.ceil(premise))
    if not 1 <= n <= MAX_SAMPLE_SIZE:
        raise ContractViolation(f"n must be >= 1 and <= {MAX_SAMPLE_SIZE}, got {n}")
    return n


def hessian_premise_n(pop: FinitePopulation, lam: float, delta: float) -> float:
    """Sample size above which the two-sided Hessian equivalence at theta* is
    guaranteed: 24 B2*/lambda * log(8 B2*/(lambda delta))."""
    _, b2 = pointwise_bounds(pop)
    return 24.0 * b2 / lam * math.log(8.0 * b2 / (lam * delta))


def hessian_concentration_experiment(pop: FinitePopulation, lam: float, n: int | None,
                                     replicates: int, delta: float,
                                     seed: int = 0) -> ConcentrationReport:
    """Monte Carlo frequency of H_lambda(theta*) <= 2 Hhat_lambda(theta*).

    The event is tested through the largest generalized eigenvalue of
    (H_lambda, Hhat_lambda). When n is below the lemma's premise the
    experiment is marked skipped (frequencies still reported); n = None runs
    at the smallest n that meets it.
    """
    _check_run(lam, replicates)
    premise = hessian_premise_n(pop, lam, delta)
    n = _sample_size(n, premise)
    theta, h_lam = pop.theta_star, add_ridge(pop.hessian_at_star, lam)
    outcomes = []
    for rep in range(replicates):
        w, _ = _draw(pop, n, seed, 0, rep)
        h_hat = add_ridge(pop.sample_set.weighted_hess(w, theta), lam)
        outcomes.append(bool(gen_eigmax(h_lam, h_hat) <= 2.0 + 1e-12))
    return _concentration_report("hessian", n, replicates, delta, premise, outcomes)


def gradient_concentration_experiment(pop: FinitePopulation, lam: float, n: int | None,
                                      replicates: int, delta: float, k: float,
                                      seed: int = 0) -> ConcentrationReport:
    """Monte Carlo frequency of the empirical-gradient concentration bound

        ||grad Lhat_lam(t*_lam)||_{H_lam^{-1}(t*_lam)}
            <= (2 sqrt(3)/k) Bias_lam
               + 2 shift1 sqrt((df_lam v Q*^2) log(2/delta) / n).

    n = None runs at the smallest n that meets the premise. delta must lie in
    (0, 0.5], where RateParams takes it.
    """
    _check_run(lam, replicates)
    if k < 4.0:
        raise ContractViolation("the bound requires k >= 4")
    theta_lam = pop.theta_lambda(lam)
    factor = chol_factor(exact_hessian(pop, theta_lam, lam))
    params = RateParams.of(pop, delta)
    consts = constants_at(pop, lam=lam)
    log2d = math.log(2.0 / delta)
    # the bound's premise: n >= k^2 shift2^2 (B2*/lambda) log(2/delta)
    premise = k * k * consts.shift2**2 * (params.b2_star / consts.lam) * log2d
    n = _sample_size(n, premise)
    rhs = (2.0 * math.sqrt(3.0) / k) * consts.bias + 2.0 * consts.shift1 * math.sqrt(
        max(consts.df, params.q_star_sq) * log2d / n
    )
    outcomes = []
    for rep in range(replicates):
        w, _ = _draw(pop, n, seed, 1, rep)
        g_hat = pop.sample_set.weighted_grad(w, theta_lam) + lam * theta_lam
        outcomes.append(bool(inv_norm(factor, g_hat) <= rhs))
    return _concentration_report("gradient", n, replicates, delta, premise, outcomes)
