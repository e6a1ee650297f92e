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
    RateParams,
    SampleSet,
    anchored_lambdas,
    exact_risk,
    gradient_concentration_experiment,
    hessian_concentration_experiment,
    lambda_schedule,
    make_logistic_population,
    make_source_population,
    rate_constants,
    run_rate_experiment,
    solve_erm,
    solve_population,
    theoretical_rate,
)
from scerm.rates import hessian_premise_n


def test_schedule_none_worked_example():
    params = RateParams(delta=0.25, b1_ball=1.0, b2_ball=10.0, cert_radius=1.0)
    sched = lambda_schedule("none", 1024, params)
    expect = 16.0 * math.sqrt(math.log(8.0) / 1024.0)
    assert sched.value == pytest.approx(expect, rel=1e-12)
    assert not sched.clamped


def test_schedule_none_clamps_to_b2():
    params = RateParams(delta=0.25, b1_ball=1.0, b2_ball=0.25, cert_radius=1.0)
    sched = lambda_schedule("none", 128, params)
    assert sched.clamped
    assert sched.value == 0.25
    assert sched.raw > 0.25


def test_schedule_source_unit_base():
    # C0/n = 1 -> lambda = 1 regardless of r
    for r in (0.1, 0.5):
        c0 = 256.0
        params = RateParams(delta=0.1, b1_star=1.0, source_norm=1.0, r=r, b2_star=100.0)
        sched = lambda_schedule("source", int(c0), params)
        assert sched.value == pytest.approx(1.0, rel=1e-12)


def test_schedule_source_capacity_alpha_inf_limit():
    # exponent alpha/(1+alpha(1+2r)) -> 1/(1+2r) = 1/2 at r=1/2 as alpha grows
    params = RateParams(delta=0.1, capacity_q=1.0, source_norm=1.0, r=0.5, alpha=1e9,
                        b2_star=1e9)
    n = 256 * 10**4
    sched = lambda_schedule("source_capacity", n, params)
    assert sched.value == pytest.approx((256.0 / n) ** 0.5, rel=1e-3)


def test_schedule_strictly_decreasing_in_n():
    cases = [
        ("none", RateParams(delta=0.2, b1_ball=2.0, b2_ball=50.0, cert_radius=0.5)),
        ("source", RateParams(delta=0.2, b1_star=1.0, source_norm=1.0, r=0.3, b2_star=50.0)),
        ("source_capacity",
         RateParams(delta=0.2, capacity_q=2.0, source_norm=1.0, r=0.5, alpha=2.0, b2_star=50.0)),
    ]
    for regime, params in cases:
        vals = [lambda_schedule(regime, n, params).value for n in (10**3, 10**4, 10**5, 10**6)]
        assert all(b < a for a, b in zip(vals, vals[1:])), regime


def test_schedule_missing_params():
    with pytest.raises(ContractViolation):
        lambda_schedule("source", 100, RateParams(delta=0.1, b1_star=1.0))
    with pytest.raises(ContractViolation):
        lambda_schedule("bogus", 100, RateParams(delta=0.1))


def test_theoretical_rates():
    assert theoretical_rate("none") == 0.5
    assert theoretical_rate("source", r=0.5) == pytest.approx(2.0 / 3.0)
    assert theoretical_rate("source_capacity", r=0.5, alpha=4.0) == pytest.approx(8.0 / 9.0)
    assert theoretical_rate("source_capacity", r=0.5, alpha=2.0) == pytest.approx(0.8)
    with pytest.raises(ContractViolation):
        theoretical_rate("source")


def test_rate_constants_none():
    params = RateParams(delta=0.1, b1_ball=1.0, b2_ball=1.0, cert_radius=1.0, theta_norm=1.0)
    c = rate_constants("none", params)
    assert c.c0 == pytest.approx(16.0)
    assert c.c1 == pytest.approx(48.0)
    log2d = math.log(20.0)
    expect_n = max(36.0 * math.log(60.0) ** 2, 256.0 * log2d, 512.0 * log2d)
    assert c.n_threshold == pytest.approx(expect_n, rel=1e-12)


def test_rate_constants_source_gamma_two_thirds():
    params = RateParams(delta=0.1, b1_star=1.0, b2_star=1.0, source_norm=1.0, r=0.5,
                        cert_radius=1.0)
    c = rate_constants("source", params)
    assert c.gamma == pytest.approx(2.0 / 3.0)
    assert c.c1 == pytest.approx(8.0 * 256.0 ** (2.0 / 3.0), rel=1e-12)
    assert c.c1 == pytest.approx(322.5, abs=0.1)


def test_rate_constants_square_loss_lambda0():
    params = RateParams(delta=0.1, b1_star=1.0, b2_star=1.0, source_norm=1.0, r=0.5,
                        cert_radius=0.0)
    c = rate_constants("source", params)
    assert c.lambda0 == 1.0


def test_rate_constants_r_zero_with_radius_flagged():
    params = RateParams(delta=0.1, b1_star=1.0, b2_star=1.0, source_norm=1.0, r=0.0,
                        cert_radius=1.0)
    with pytest.raises(ContractViolation):
        rate_constants("source", params)


def test_anchored_lambdas():
    vals = anchored_lambdas((128, 512), 0.5, 0.2, 128)
    assert vals[0] == pytest.approx(0.2)
    assert vals[1] == pytest.approx(0.1)


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
        lambda_override=anchored_lambdas(n_grid, 0.4, 0.2, n_grid[0]),
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
                       delta=0.1, seed=0)
    with pytest.raises(ContractViolation):
        ExperimentPlan(population=pop, regime="none", n_grid=(32,), replicates=1,
                       delta=0.7, seed=0)
    with pytest.raises(ContractViolation):
        ExperimentPlan(population=pop, regime="none", n_grid=(32, 64), replicates=1,
                       delta=0.1, seed=0, lambda_override=(0.1,))


def test_schedule_based_plan_runs():
    pop = make_source_population(d=6, r=0.5, alpha=2.0, seed=2)
    sol = solve_population(pop, [])
    from scerm.population import pointwise_bounds

    b1, b2 = pointwise_bounds(pop, sol.theta_star)
    params = RateParams(delta=0.25, b1_star=b1, b2_star=b2, source_norm=1.0, r=0.5,
                        capacity_q=pop.meta.capacity_q, alpha=2.0, cert_radius=0.0)
    plan = ExperimentPlan(population=pop, regime="source_capacity", n_grid=(64, 128),
                          replicates=2, delta=0.25, seed=0, params=params)
    report = run_rate_experiment(plan)
    assert len(report.cells) == 4
    assert all(l > 0 for l in report.lambdas)


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
                                    lambda_override=(0.1, 0.05))
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
                          seed=13, lambda_override=anchored_lambdas(n_grid, 0.5, 0.1, 32))


@pytest.mark.parametrize("make_plan", [
    lambda: tiny_plan(seed=11, replicates=3, n_grid=(32, 64)),
    logistic_plan,
], ids=["square", "logistic"])
def test_cells_match_restacked_draws(make_plan):
    """Weighting every atom by counts / n solves the same ERM as restacking
    the drawn atoms alone, on the same SeedSequence([seed, n_index, replicate])."""
    plan = make_plan()
    pop = plan.population
    risk_star = exact_risk(pop, solve_population(pop, []).theta_star)
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
    sol = solve_population(pop, [])
    from scerm.population import pointwise_bounds

    _, b2 = pointwise_bounds(pop, sol.theta_star)
    lam = 2.0 * b2  # generalized eigenvalue <= (B2+lam)/lam <= 1.5 always
    rep = hessian_concentration_experiment(pop, sol.theta_star, lam, n=50, replicates=40,
                                           delta=0.1, seed=1)
    assert rep.frequency == 1.0


def test_hessian_concentration_premise_and_skip():
    pop = make_logistic_population(d=4, alpha=1.0, seed=2)
    sol = solve_population(pop, [])
    lam = 0.5
    premise = hessian_premise_n(pop, sol.theta_star, lam, 0.1)
    assert premise > 1
    rep = hessian_concentration_experiment(pop, sol.theta_star, lam, n=5, replicates=10,
                                           delta=0.1, seed=1)
    assert rep.skipped and not rep.premise_ok
    n = int(math.ceil(premise))
    rep2 = hessian_concentration_experiment(pop, sol.theta_star, lam, n=n, replicates=60,
                                            delta=0.1, seed=1)
    assert rep2.premise_ok
    assert rep2.frequency >= rep2.threshold


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
