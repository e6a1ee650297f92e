"""Regularized empirical risk minimization with generalized self-concordant
losses: a damped Newton solver, exact diagnostics over finitely supported
populations, randomized inequality checks, and Monte Carlo rate experiments.
"""

from .errors import ConfigError, ContractViolation, DomainError, NonConvergenceError
from .losses import (
    HuberLogCoshLoss,
    HuberSqrtLoss,
    LogisticLoss,
    LossModel,
    Sample,
    SampleSet,
    SoftmaxGLMLoss,
    SquareLoss,
    SupConstants,
    sup_constants,
)
from .population import (
    ConstructionMeta,
    DiagnosticsReport,
    FinitePopulation,
    PopulationSolution,
    ScConstants,
    bias_lambda,
    compute_diagnostics,
    constants_at,
    default_lambda_grid,
    df_lambda,
    dikin_radius,
    estimate_capacity_exponent,
    estimate_source_exponent,
    exact_grad,
    exact_hessian,
    exact_risk,
    make_logistic_population,
    make_source_population,
    minimize_population,
    solve_population,
    stack_samples,
    t_lambda,
)
from .rates import (
    ExperimentPlan,
    RateParams,
    RateReport,
    anchored_lambdas,
    gradient_concentration_experiment,
    hessian_concentration_experiment,
    lambda_schedule,
    rate_constants,
    run_rate_experiment,
    theoretical_rate,
)
from .solver import SolveResult, SolverConfig, decrement, solve_erm
from .verify import (
    CheckReport,
    check_decomposition_bound,
    check_grad_lower,
    check_grad_upper,
    check_hess_control,
    check_localization,
    check_value_bound,
    run_check_suite,
)

__version__ = "0.1.0"
