import concurrent.futures
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scerm import (
    ContractViolation,
    ExperimentPlan,
    NonConvergenceError,
    RateParams,
    SampleSet,
    anchored_lambdas,
    exact_hessian,
    exact_risk,
    gradient_concentration_experiment,
    hessian_concentration_experiment,
    lambda_schedule,
    make_logistic_population,
    make_source_population,
    rate_constants,
    run_rate_experiment,
    solve_erm,
    theoretical_rate,
)
from scerm import rates
from scerm.linalg import add_ridge, gen_eigmax
from scerm.losses import LogisticLoss, sup_constants
from scerm.population import (
    ConstructionMeta,
    FinitePopulation,
    pointwise_bounds,
    sup_norm_certificate,
)
from scerm.rates import MAX_SAMPLE_SIZE, hessian_premise_n


def complete_params(**given):
    """RateParams with unit constants wherever ``given`` names none."""
    units = dict.fromkeys(("b1_ball", "b2_ball", "b1_star", "b2_star", "cert_radius",
                           "theta_norm", "source_norm", "capacity_q"), 1.0)
    return RateParams(**{**units, **given})


def test_schedule_none_worked_example():
    params = complete_params(delta=0.25, b1_ball=1.0, b2_ball=10.0, cert_radius=1.0)
    sched = lambda_schedule("none", 1024, params)
    expect = 16.0 * math.sqrt(math.log(8.0) / 1024.0)
    assert sched.value == pytest.approx(expect, rel=1e-12)
    assert not sched.clamped


def test_schedule_none_clamps_to_b2():
    params = complete_params(delta=0.25, b1_ball=1.0, b2_ball=0.25, cert_radius=1.0)
    sched = lambda_schedule("none", 128, params)
    assert sched.clamped
    assert sched.value == 0.25
    assert sched.raw > 0.25


def test_schedule_source_unit_base():
    # C0/n = 1 -> lambda = 1 regardless of r
    for r in (0.1, 0.5):
        c0 = 256.0
        params = complete_params(delta=0.1, b1_star=1.0, source_norm=1.0, r=r, b2_star=100.0)
        sched = lambda_schedule("source", int(c0), params)
        assert sched.value == pytest.approx(1.0, rel=1e-12)


def test_schedule_source_capacity_alpha_inf_limit():
    # exponent alpha/(1+alpha(1+2r)) -> 1/(1+2r) = 1/2 at r=1/2 as alpha grows
    params = complete_params(delta=0.1, capacity_q=1.0, source_norm=1.0, r=0.5, alpha=1e9,
                             b2_star=1e9)
    n = 256 * 10**4
    sched = lambda_schedule("source_capacity", n, params)
    assert sched.value == pytest.approx((256.0 / n) ** 0.5, rel=1e-3)


def test_schedule_strictly_decreasing_in_n():
    cases = [
        ("none", complete_params(delta=0.2, b1_ball=2.0, b2_ball=50.0, cert_radius=0.5)),
        ("source", complete_params(delta=0.2, b1_star=1.0, source_norm=1.0, r=0.3, b2_star=50.0)),
        ("source_capacity",
         complete_params(delta=0.2, capacity_q=2.0, source_norm=1.0, r=0.5, alpha=2.0,
                         b2_star=50.0)),
    ]
    for regime, params in cases:
        vals = [lambda_schedule(regime, n, params).value for n in (10**3, 10**4, 10**5, 10**6)]
        assert all(b < a for a, b in zip(vals, vals[1:])), regime


def test_schedule_missing_params():
    with pytest.raises(ContractViolation):
        lambda_schedule("source", 100, complete_params(delta=0.1, b1_star=1.0))
    with pytest.raises(ContractViolation):
        lambda_schedule("bogus", 100, complete_params(delta=0.1))


def test_theoretical_rates():
    assert theoretical_rate("none") == 0.5
    assert theoretical_rate("source", r=0.5) == pytest.approx(2.0 / 3.0)
    assert theoretical_rate("source_capacity", r=0.5, alpha=4.0) == pytest.approx(8.0 / 9.0)
    assert theoretical_rate("source_capacity", r=0.5, alpha=2.0) == pytest.approx(0.8)
    with pytest.raises(ContractViolation):
        theoretical_rate("source")


def test_rate_constants_none():
    params = complete_params(delta=0.1, b1_ball=1.0, b2_ball=1.0, cert_radius=1.0, theta_norm=1.0)
    c = rate_constants("none", params)
    assert c.c0 == pytest.approx(16.0)
    assert c.c1 == pytest.approx(48.0)
    log2d = math.log(20.0)
    expect_n = max(36.0 * math.log(60.0) ** 2, 256.0 * log2d, 512.0 * log2d)
    assert c.n_threshold == pytest.approx(expect_n, rel=1e-12)


def test_rate_constants_source_gamma_two_thirds():
    params = complete_params(delta=0.1, b1_star=1.0, b2_star=1.0, source_norm=1.0, r=0.5,
                             cert_radius=1.0)
    c = rate_constants("source", params)
    assert c.gamma == pytest.approx(2.0 / 3.0)
    assert c.c1 == pytest.approx(8.0 * 256.0 ** (2.0 / 3.0), rel=1e-12)
    assert c.c1 == pytest.approx(322.5, abs=0.1)


def test_rate_constants_square_loss_lambda0():
    params = complete_params(delta=0.1, b1_star=1.0, b2_star=1.0, source_norm=1.0, r=0.5,
                             cert_radius=0.0)
    c = rate_constants("source", params)
    assert c.lambda0 == 1.0


def test_rate_constants_r_zero_with_radius_flagged():
    params = complete_params(delta=0.1, b1_star=1.0, b2_star=1.0, source_norm=1.0, r=0.0,
                             cert_radius=1.0)
    with pytest.raises(ContractViolation):
        rate_constants("source", params)


def test_anchored_lambdas():
    vals = anchored_lambdas((128, 512), 0.5, 0.2, 128)
    assert vals[0] == pytest.approx(0.2)
    assert vals[1] == pytest.approx(0.1)
    for grid, n_anchor in (((128, 256), 0), ((128, 256), -4), ((-128, 256), 128)):
        with pytest.raises(ContractViolation, match="must be >= 1"):
            anchored_lambdas(grid, 0.5, 0.1, n_anchor)


@pytest.mark.parametrize("make, source_norm, capacity_q, exponents", [
    pytest.param(lambda: make_source_population(d=6, r=0.5, alpha=2.0, seed=2),
                 lambda pop: 1.0, lambda pop: pop.meta.capacity_q, (0.5, 2.0), id="source"),
    pytest.param(lambda: make_logistic_population(d=4, alpha=1.0, seed=2),
                 lambda pop: float(np.linalg.norm(pop.theta_star)),
                 lambda pop: pointwise_bounds(pop)[0], (None, 1.0), id="logistic"),
    pytest.param(lambda: FinitePopulation(
                     SampleSet(LogisticLoss(), [[1.0, 0.5], [1.0, 0.5], [-0.5, 1.0], [-0.5, 1.0]],
                               [1.0, -1.0, 1.0, -1.0]), [0.3, 0.2, 0.1, 0.4]),
                 lambda pop: float(np.linalg.norm(pop.theta_star)),
                 lambda pop: pointwise_bounds(pop)[0], (None, None), id="inline"),
])
def test_rate_params_of(make, source_norm, capacity_q, exponents):
    pop = make()
    params = RateParams.of(pop, 0.2)
    b1_star, b2_star = pointwise_bounds(pop)
    theta_norm = float(np.linalg.norm(pop.theta_star))
    sup = sup_constants(pop.sample_set, theta_norm)
    assert (params.delta, params.b1_ball, params.b2_ball) == (0.2, sup.b1, sup.b2)
    assert (params.b1_star, params.b2_star) == (b1_star, b2_star)
    assert (params.cert_radius, params.theta_norm) == (sup_norm_certificate(pop), theta_norm)
    assert (params.source_norm, params.capacity_q) == (source_norm(pop), capacity_q(pop))
    assert (params.r, params.alpha) == exponents
    assert params.q_star_sq == b1_star**2 / b2_star


@pytest.mark.parametrize("value", [None, math.nan, math.inf, -1.0])
@pytest.mark.parametrize("field", ["b1_ball", "b2_star", "cert_radius", "capacity_q"])
def test_rate_params_rejects_bad_measured_constants(field, value):
    with pytest.raises(ContractViolation, match=f"rate params \\['{field}'\\] must be finite"):
        complete_params(delta=0.1, **{field: value})


# -- experiment plumbing ---------------------------------------------------------


def tiny_plan(seed=5, replicates=1, n_grid=(64,)):
    pop = make_source_population(d=8, r=0.5, alpha=2.0, seed=1)
    return ExperimentPlan(
        population=pop,
        regime="source_capacity",
        n_grid=n_grid,
        replicates=replicates,
        delta=0.1,
        seed=seed,
        lambdas=anchored_lambdas(n_grid, 0.4, 0.2, n_grid[0]),
    )


def test_single_cell_report():
    report = run_rate_experiment(tiny_plan())
    assert len(report.cells) == 1
    cell = report.cells[0]
    assert cell.n == 64 and cell.replicate == 0
    assert cell.solved
    assert cell.excess_risk >= -1e-12
    assert math.isnan(report.fitted_exponent) or math.isfinite(report.fitted_exponent)


def test_experiment_determinism():
    r1 = run_rate_experiment(tiny_plan(seed=9, replicates=4, n_grid=(32, 64)))
    r2 = run_rate_experiment(tiny_plan(seed=9, replicates=4, n_grid=(32, 64)))
    assert r1.cells == r2.cells
    assert r1.fitted_exponent == r2.fitted_exponent


def test_excess_nonnegative_and_violations_bounded():
    plan = tiny_plan(seed=3, replicates=30, n_grid=(64, 256))
    report = run_rate_experiment(plan)
    for cell in report.cells:
        if cell.solved:
            assert cell.excess_risk >= -1e-12
    for freq in report.violation_freq:
        sigma = math.sqrt(2 * plan.delta * (1 - 2 * plan.delta) / plan.replicates)
        assert freq <= 2 * plan.delta + 3 * sigma


def test_plan_validation():
    pop = make_source_population(d=4, r=0.5, alpha=2.0, seed=1)
    with pytest.raises(ContractViolation):
        ExperimentPlan(population=pop, regime="none", n_grid=(64, 32), replicates=1,
                       delta=0.1, seed=0, lambdas=(0.1, 0.05))
    with pytest.raises(ContractViolation):
        ExperimentPlan(population=pop, regime="none", n_grid=(32,), replicates=1,
                       delta=0.7, seed=0, lambdas=(0.1,))
    with pytest.raises(ContractViolation):
        ExperimentPlan(population=pop, regime="none", n_grid=(32, 64), replicates=1,
                       delta=0.1, seed=0, lambdas=(0.1,))
    for grid in ((0, 8), (-8, 8)):
        with pytest.raises(ContractViolation, match="positive"):
            ExperimentPlan(population=pop, regime="none", n_grid=grid, replicates=1,
                           delta=0.1, seed=0, lambdas=(0.1, 0.05))
    # numpy's multinomial takes n as a C long
    with pytest.raises(ContractViolation, match="must be <= 9223372036854775807"):
        ExperimentPlan(population=pop, regime="none", n_grid=(8, MAX_SAMPLE_SIZE + 1),
                       replicates=1, delta=0.1, seed=0, lambdas=(0.1, 0.05))


def test_schedule_based_plan_runs():
    pop = make_source_population(d=6, r=0.5, alpha=2.0, seed=2)
    b1, b2 = pointwise_bounds(pop)
    params = complete_params(delta=0.25, b1_star=b1, b2_star=b2, source_norm=1.0, r=0.5,
                             capacity_q=pop.meta.capacity_q, alpha=2.0, cert_radius=0.0)
    lambdas = [lambda_schedule("source_capacity", n, params).value for n in (64, 128)]
    plan = ExperimentPlan(population=pop, regime="source_capacity", n_grid=(64, 128),
                          replicates=2, delta=0.25, seed=0, lambdas=lambdas)
    report = run_rate_experiment(plan)
    assert len(report.cells) == 4
    assert [c.lam for c in report.cells] == [lam for lam in lambdas for _ in range(2)]
    assert all(l > 0 for l in lambdas)


def test_theoretical_exponent_needs_every_exponent_of_the_regime():
    # a population built with r but not alpha has no source_capacity exponent
    pop = make_source_population(d=6, r=0.5, alpha=2.0, seed=2)
    meta = ConstructionMeta(theta_star=pop.meta.theta_star,
                            hess_eigenvalues=pop.meta.hess_eigenvalues, r=0.5)
    plan = ExperimentPlan(population=FinitePopulation(pop.sample_set, pop.weights, meta),
                          regime="source_capacity", n_grid=(32, 64), replicates=1, delta=0.1,
                          seed=0, lambdas=(0.1, 0.05))
    assert run_rate_experiment(plan).theoretical_exponent is None


def test_bound_and_guard_evaluated_once_per_n(monkeypatch):
    calls = {"_bound_rhs": 0, "_guard": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(rates, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(rates, name, counted)
    report = run_rate_experiment(tiny_plan(replicates=4, n_grid=(32, 64, 128)))
    assert len(report.cells) == 12
    assert calls == {"_bound_rhs": 3, "_guard": 3}


def test_partly_failed_n_reduces_its_solved_cells(monkeypatch):
    # at jobs = 1 the cells run n-major, so the first solve is replicate 0 of the first n
    solve = rates.newton_minimize
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise NonConvergenceError("forced failure", [])
        return solve(*args, **kwargs)

    monkeypatch.setattr(rates, "newton_minimize", fail_first)
    plan = tiny_plan(seed=2, replicates=3, n_grid=(32, 64, 128))
    report = run_rate_experiment(plan)
    cells = report.cells
    assert [(c.n, c.replicate) for c in cells] == [
        (n, rep) for n in plan.n_grid for rep in range(3)]
    assert report.solver_failures == 1
    assert not cells[0].solved and math.isnan(cells[0].excess_risk)
    solved = [c for c in cells[:3] if c.solved]
    assert len(solved) == 2
    assert report.mean_excess[0] == float(np.mean([c.excess_risk for c in solved]))
    assert report.violation_freq[0] == float(np.mean([c.excess_risk > c.bound_rhs
                                                      for c in solved]))
    for ni in range(len(plan.n_grid)):
        group = cells[3 * ni:3 * ni + 3]
        assert len({(c.bound_rhs, c.guard_ok) for c in group}) == 1
        assert report.guard_met[ni] == group[0].guard_ok


def test_parallel_jobs_match_serial():
    plan = tiny_plan(seed=21, replicates=6, n_grid=(32, 64))
    serial = run_rate_experiment(plan, jobs=1)
    parallel = run_rate_experiment(plan, jobs=2)
    assert serial.cells == parallel.cells


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), replicates=st.integers(1, 3))
@settings(max_examples=4, deadline=None)
def test_jobs_invariance(seed, replicates):
    plan = tiny_plan(seed=seed, replicates=replicates, n_grid=(32, 64))
    assert run_rate_experiment(plan, jobs=1).cells == run_rate_experiment(plan, jobs=2).cells


def test_pool_gets_no_more_workers_than_cells(monkeypatch):
    # a stand-in pool that records its worker count and runs the cells in
    # this process, so a huge jobs value starts no process
    started = []

    class SerialPool:
        def __init__(self, max_workers, initializer=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    plan = tiny_plan(seed=5, replicates=2, n_grid=(32, 64))
    capped = run_rate_experiment(plan, jobs=10**6)
    assert started == [4]
    assert capped.cells == run_rate_experiment(plan, jobs=1).cells


# Run in a fresh interpreter with OPENBLAS_NUM_THREADS=2: rate cells on a
# two-worker pool record both OpenBLAS thread counts (numpy's copy, then
# scipy's) of the worker that ran them; the parent, which was not pinned
# while the pool ran, then pins its own and prints them.
BLAS_PROBE = textwrap.dedent("""
    import ctypes, json, os, sys
    import scerm.rates as rates
    from scerm.linalg import single_thread_blas
    from scerm.population import make_source_population

    GETTERS = (("libscipy_openblas64_", "scipy_openblas_get_num_threads64_"),
               ("libscipy_openblas-", "scipy_openblas_get_num_threads"))

    def blas_threads():
        with open("/proc/self/maps", encoding="utf-8") as fh:
            loaded = {line.split()[-1] for line in fh if ".so" in line}
        counts = []
        for marker, symbol in GETTERS:
            paths = sorted(p for p in loaded if marker in os.path.basename(p))
            if not paths:
                return None
            get = getattr(ctypes.CDLL(paths[0]), symbol)
            get.argtypes, get.restype = [], ctypes.c_int
            counts.append(get())
        return counts

    run_cell = rates._run_cell

    def probe(args):
        with open(os.path.join(sys.argv[1], f"worker-{os.getpid()}.json"), "w") as fh:
            json.dump(blas_threads(), fh)
        return run_cell(args)

    if __name__ == "__main__":
        rates._run_cell = probe
        pop = make_source_population(d=8, r=0.5, alpha=2.0, seed=1)
        plan = rates.ExperimentPlan(population=pop, regime="source_capacity", n_grid=(32, 64),
                                    replicates=4, delta=0.1, seed=0,
                                    lambdas=(0.1, 0.05))
        rates.run_rate_experiment(plan, jobs=2)
        single_thread_blas()
        print(json.dumps(blas_threads()))
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_blas_single_thread_in_parent_and_pool_workers(tmp_path):
    script = tmp_path / "probe.py"
    script.write_text(BLAS_PROBE)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    parent = json.loads(proc.stdout.splitlines()[-1])
    if parent is None:
        pytest.skip("numpy's or scipy's OpenBLAS copy is not loaded")
    assert parent == [1, 1]
    workers = [json.loads(path.read_text()) for path in tmp_path.glob("worker-*.json")]
    assert workers and all(counts == [1, 1] for counts in workers)


def logistic_plan():
    pop = make_logistic_population(d=4, alpha=1.0, seed=2)
    n_grid = (32, 64)
    return ExperimentPlan(population=pop, regime="none", n_grid=n_grid, replicates=3, delta=0.1,
                          seed=13, lambdas=anchored_lambdas(n_grid, 0.5, 0.1, 32))


@pytest.mark.parametrize("make_plan", [
    lambda: tiny_plan(seed=11, replicates=3, n_grid=(32, 64)),
    logistic_plan,
], ids=["square", "logistic"])
def test_cells_match_restacked_draws(make_plan):
    """Weighting every atom by counts / n solves the same ERM as restacking
    the drawn atoms alone, on the same SeedSequence([seed, n_index, replicate])."""
    plan = make_plan()
    pop = plan.population
    risk_star = exact_risk(pop, pop.theta_star)
    undrawn = 0
    for cell in run_rate_experiment(plan).cells:
        ss = np.random.SeedSequence([plan.seed, plan.n_grid.index(cell.n), cell.replicate])
        counts = np.random.default_rng(ss).multinomial(cell.n, pop.weights)
        assert cell.seed == int(ss.generate_state(1, dtype=np.uint32)[0])
        keep = np.nonzero(counts)[0]
        undrawn += len(counts) - keep.size
        drawn = SampleSet(pop.loss, pop.sample_set.features[keep], pop.sample_set.labels[keep])
        res = solve_erm(drawn, counts[keep] / cell.n, cell.lam)
        assert cell.solved
        assert cell.excess_risk == pytest.approx(exact_risk(pop, res.theta_hat) - risk_star,
                                                 rel=1e-12)
    assert undrawn > 0  # zero-weight atoms do take part in the weighted solves


# -- concentration ----------------------------------------------------------------


def test_hessian_concentration_trivial_when_lambda_dominates():
    pop = make_logistic_population(d=4, alpha=1.0, seed=2)
    _, b2 = pointwise_bounds(pop)
    lam = 2.0 * b2  # generalized eigenvalue <= (B2+lam)/lam <= 1.5 always
    rep = hessian_concentration_experiment(pop, lam, n=50, replicates=40,
                                           delta=0.1, seed=1)
    assert rep.frequency == 1.0


def test_hessian_concentration_premise_and_skip():
    pop = make_logistic_population(d=4, alpha=1.0, seed=2)
    lam = 0.5
    premise = hessian_premise_n(pop, lam, 0.1)
    assert premise > 1
    rep = hessian_concentration_experiment(pop, lam, n=5, replicates=10,
                                           delta=0.1, seed=1)
    assert rep.skipped and not rep.premise_ok
    n = int(math.ceil(premise))
    rep2 = hessian_concentration_experiment(pop, lam, n=n, replicates=60,
                                            delta=0.1, seed=1)
    assert rep2.premise_ok
    assert rep2.frequency >= rep2.threshold
    for bad in (0, -3):
        with pytest.raises(ContractViolation, match="n must be >= 1"):
            hessian_concentration_experiment(pop, lam, n=bad, replicates=1,
                                             delta=0.1)
    with pytest.raises(ContractViolation, match="n must be >= 1 and <= 9223372036854775807"):
        hessian_concentration_experiment(pop, lam, n=MAX_SAMPLE_SIZE + 1, replicates=1,
                                         delta=0.1)
    # the premise at a tiny lambda asks for more than the largest sample size
    with pytest.raises(ContractViolation, match="the premise needs n >= "):
        hessian_concentration_experiment(pop, 1e-18, n=None, replicates=1, delta=0.1)
    for bad in (0, -2):
        with pytest.raises(ContractViolation, match="replicates must be >= 1"):
            hessian_concentration_experiment(pop, lam, n=100, replicates=bad, delta=0.1)


def test_hessian_concentration_reads_the_cached_hessian_at_star(monkeypatch):
    pop = make_logistic_population(d=4, alpha=1.0, seed=2)
    lam, n, replicates = 0.02, 40, 30
    _ = pop.hessian_at_star
    # the outcomes against an H_lambda(theta*) rebuilt over the population weights
    h_lam = exact_hessian(pop, pop.theta_star, lam)
    expect = []
    for rep in range(replicates):
        w, _ = rates._draw(pop, n, 1, 0, rep)
        h_hat = add_ridge(pop.sample_set.weighted_hess(w, pop.theta_star), lam)
        expect.append(bool(gen_eigmax(h_lam, h_hat) <= 2.0 + 1e-12))
    assert 0 < sum(expect) < replicates

    weights_seen, weighted_hess = [], SampleSet.weighted_hess

    def recording(self, weights, theta):
        weights_seen.append(weights)
        return weighted_hess(self, weights, theta)

    monkeypatch.setattr(SampleSet, "weighted_hess", recording)
    report = hessian_concentration_experiment(pop, lam, n=n, replicates=replicates, delta=0.1,
                                              seed=1)
    assert report.outcomes == tuple(expect)
    assert len(weights_seen) == replicates
    assert not any(w is pop.weights for w in weights_seen)


def test_gradient_concentration_p1(p1):
    lam = 0.25
    rep = gradient_concentration_experiment(p1, lam, n=None, replicates=60, delta=0.1, k=4.0,
                                            seed=3)
    assert rep.n == math.ceil(rep.premise_n)
    assert rep.premise_ok
    assert rep.frequency >= rep.threshold


def test_gradient_concentration_rhs_positive(p1):
    # even at delta = 0.5 the bound's RHS is strictly positive
    lam = 0.25
    rep = gradient_concentration_experiment(p1, lam, n=2000, replicates=5, delta=0.5, k=4.0,
                                            seed=3)
    assert rep.frequency >= 0.0  # ran without error; RHS > 0 by construction


def test_gradient_concentration_k_contract(p1):
    with pytest.raises(ContractViolation):
        gradient_concentration_experiment(p1, 0.25, n=100, replicates=5, delta=0.1, k=2.0)
    for bad in (0, -3):
        with pytest.raises(ContractViolation, match="n must be >= 1"):
            gradient_concentration_experiment(p1, 0.25, n=bad, replicates=5, delta=0.1, k=4.0)
    for bad in (0, -2):
        with pytest.raises(ContractViolation, match="replicates must be >= 1"):
            gradient_concentration_experiment(p1, 0.25, n=100, replicates=bad, delta=0.1, k=4.0)
