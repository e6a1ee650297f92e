import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scerm import (
    ContractViolation,
    DomainError,
    FinitePopulation,
    HuberSqrtLoss,
    LogisticLoss,
    Sample,
    SampleSet,
    SoftmaxGLMLoss,
    SquareLoss,
    stack_samples,
    sup_constants,
)
from scerm import solver
from scerm.linalg import ball_point
from scerm.losses import LOSS_KINDS
from scerm.population import (
    make_logistic_population,
    make_source_population,
    sup_norm_certificate,
)
from test_rotation import rotated

SCALAR_KINDS = ["square", "huber_sqrt", "huber_logcosh", "logistic"]
ALL_KINDS = SCALAR_KINDS + ["softmax_glm"]


def make_loss(kind, n_labels=3):
    if kind == "softmax_glm":
        return SoftmaxGLMLoss(np.ones(n_labels) / n_labels)
    return LOSS_KINDS[kind]()


def random_sample(rng, kind, d, n_labels=3):
    if kind == "softmax_glm":
        return Sample(features=rng.normal(size=(n_labels, d)), label=int(rng.integers(n_labels)))
    if kind == "logistic":
        return Sample(features=rng.normal(size=d), label=float(rng.choice([-1.0, 1.0])))
    return Sample(features=rng.normal(size=d), label=float(rng.normal()))


# -- worked examples ------------------------------------------------------------


def test_logistic_value_at_zero_margin():
    z = Sample(features=np.array([1.0, 0.0]), label=1.0)
    assert LogisticLoss().value(z, np.zeros(2)) == pytest.approx(math.log(2.0), abs=1e-12)


def test_square_value():
    z = Sample(features=np.array([1.0]), label=1.0)
    assert SquareLoss().value(z, np.zeros(1)) == pytest.approx(0.5, abs=0)


def test_huber_sqrt_value():
    z = Sample(features=np.array([1.0]), label=math.sqrt(3.0))
    assert HuberSqrtLoss().value(z, np.zeros(1)) == pytest.approx(1.0, abs=1e-12)


def test_logistic_grad():
    z = Sample(features=np.array([1.0, 0.0]), label=1.0)
    np.testing.assert_allclose(LogisticLoss().grad(z, np.zeros(2)), [-0.5, 0.0], atol=1e-15)


def test_square_grad():
    z = Sample(features=np.array([1.0]), label=1.0)
    np.testing.assert_allclose(SquareLoss().grad(z, np.zeros(1)), [-1.0], atol=0)


def test_softmax_grad_at_zero():
    # two labels, uniform base measure, observed label 0
    loss = SoftmaxGLMLoss(np.array([0.5, 0.5]))
    z = Sample(features=np.array([[1.0, 0.0], [0.0, 1.0]]), label=0)
    np.testing.assert_allclose(loss.grad(z, np.zeros(2)), [-0.5, 0.5], atol=1e-15)


def test_logistic_hess():
    z = Sample(features=np.array([1.0]), label=1.0)
    np.testing.assert_allclose(LogisticLoss().hess(z, np.zeros(1)), [[0.25]], atol=1e-15)


def test_square_hess():
    z = Sample(features=np.array([1.0]), label=0.3)
    np.testing.assert_allclose(SquareLoss().hess(z, np.array([2.0])), [[1.0]], atol=0)


def test_huber_sqrt_hess_at_zero_residual():
    z = Sample(features=np.array([1.0]), label=0.0)
    np.testing.assert_allclose(HuberSqrtLoss().hess(z, np.zeros(1)), [[1.0]], atol=1e-14)


def test_sc_factor_square_is_zero():
    z = Sample(features=np.array([3.0, -1.0]), label=0.7)
    assert SquareLoss().sc_factor(z, np.array([5.0, 2.0])) == 0.0


def test_sc_factor_logistic():
    z = Sample(features=np.array([0.3]), label=-1.0)
    assert LogisticLoss().sc_factor(z, np.array([1.0])) == pytest.approx(0.3, abs=1e-15)


def test_sc_factor_softmax_max_over_labels():
    loss = SoftmaxGLMLoss(np.ones(3))
    feats = np.array([[0.1], [-0.4], [0.2]])
    z = Sample(features=feats, label=1)
    assert loss.sc_factor(z, np.array([1.0])) == pytest.approx(0.8, abs=1e-15)


@pytest.mark.parametrize("kind,coef", [("huber_sqrt", 3.0), ("huber_logcosh", 2.0)])
def test_sc_factor_huber_coefficients(kind, coef):
    z = Sample(features=np.array([1.0, 1.0]), label=0.0)
    k = np.array([0.5, 0.25])
    assert make_loss(kind).sc_factor(z, k) == pytest.approx(coef * 0.75, abs=1e-15)


def test_sup_constants_logistic():
    z = Sample(features=np.array([1.0]), label=1.0)
    sset = stack_samples(LogisticLoss(), [z])
    assert sup_norm_certificate(FinitePopulation(sset, [1.0])) == 1.0
    for radius in (0.5, 1.0, 7.0):
        c = sup_constants(sset, radius)
        assert c.b1 == 1.0
        assert c.b2 == 0.25


def test_sup_constants_square():
    z = Sample(features=np.array([2.0]), label=1.0)
    sset = stack_samples(SquareLoss(), [z])
    assert sup_norm_certificate(FinitePopulation(sset, [1.0])) == 0.0
    c = sup_constants(sset, 1.0)
    # sup |theta.Phi - y| ||Phi|| over ||theta|| <= 1 is (1*2 + 1)*2
    assert c.b1 == pytest.approx(6.0)
    assert c.b2 == pytest.approx(4.0)


def test_sup_constants_softmax_bound_sampled_ball(rng):
    loss = make_loss("softmax_glm")
    atoms = [random_sample(rng, "softmax_glm", 3) for _ in range(4)]
    radius = 2.0
    sset = stack_samples(loss, atoms)
    c = sup_constants(sset, radius)
    assert sup_norm_certificate(FinitePopulation(sset, np.full(4, 0.25))) == pytest.approx(
        2.0 * max(np.max(np.linalg.norm(z.features, axis=1)) for z in atoms)
    )
    # points inside the ball, and far out where the softmax saturates
    for scale in (1.0, 50.0):
        for _ in range(100):
            theta = scale * ball_point(rng, 3, radius)
            assert np.max(sset.grad_norms(theta)) <= c.b1 * (1.0 + 1e-12)
            assert np.max(sset.trace_hess(theta)) <= c.b2 * (1.0 + 1e-12)


@pytest.mark.parametrize("kind", ["huber_sqrt", "huber_logcosh"])
@pytest.mark.parametrize("radius", [0.0, 0.3, 2.0])
def test_sup_constants_huber_bound_sampled_ball_and_attained(rng, kind, radius):
    atoms = [random_sample(rng, kind, 3) for _ in range(4)]
    sset = stack_samples(make_loss(kind), atoms)
    c = sup_constants(sset, radius)
    for _ in range(100):
        theta = ball_point(rng, 3, radius)
        assert np.max(sset.grad_norms(theta)) <= c.b1 * (1.0 + 1e-12)
        assert np.max(sset.trace_hess(theta)) <= c.b2 * (1.0 + 1e-12)
    # |psi'| grows and psi'' shrinks with |t|, t = y - theta.Phi: on the sphere
    # through -sign(y) Phi the residual is largest, toward theta.Phi = y smallest
    b1_hit = b2_hit = 0.0
    for i, z in enumerate(atoms):
        unit = z.features / np.linalg.norm(z.features)
        sign = 1.0 if z.label >= 0 else -1.0
        far = -sign * radius * unit
        near = sign * min(radius, abs(z.label) / np.linalg.norm(z.features)) * unit
        b1_hit = max(b1_hit, sset.grad_norms(far)[i])
        b2_hit = max(b2_hit, sset.trace_hess(near)[i])
    assert b1_hit == pytest.approx(c.b1, rel=1e-12)
    assert b2_hit == pytest.approx(c.b2, rel=1e-12)


def test_sup_constants_empty_support():
    with pytest.raises(ContractViolation):
        sup_constants(SampleSet(SquareLoss(), np.zeros((0, 1)), []), 1.0)


# -- derivative correctness against finite differences ----------------------------


def fd_grad(loss, z, theta, h=1e-5):
    d = theta.size
    g = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        g[i] = (loss.value(z, theta + e) - loss.value(z, theta - e)) / (2 * h)
    return g


def fd_hess(loss, z, theta, h=1e-5):
    d = theta.size
    out = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        out[:, i] = (loss.grad(z, theta + e) - loss.grad(z, theta - e)) / (2 * h)
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradient_matches_finite_differences(kind, rng):
    loss = make_loss(kind)
    for _ in range(60):
        d = int(rng.integers(1, 6))
        z = random_sample(rng, kind, d)
        theta = rng.normal(scale=1.5, size=d)
        g = loss.grad(z, theta)
        err = np.linalg.norm(g - fd_grad(loss, z, theta))
        assert err < 1e-6 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_hessian_matches_finite_differences(kind, rng):
    loss = make_loss(kind)
    for _ in range(60):
        d = int(rng.integers(1, 6))
        z = random_sample(rng, kind, d)
        theta = rng.normal(scale=1.5, size=d)
        h = loss.hess(z, theta)
        err = np.linalg.norm(h - fd_hess(loss, z, theta))
        assert err < 1e-5 * max(1.0, np.linalg.norm(h))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_hessian_is_psd(kind, rng):
    loss = make_loss(kind)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        z = random_sample(rng, kind, d)
        theta = rng.normal(scale=2.0, size=d)
        h = loss.hess(z, theta)
        np.testing.assert_allclose(h, h.T, atol=1e-14)
        assert np.linalg.eigvalsh(h)[0] >= -1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_convexity_along_segments(kind, rng):
    loss = make_loss(kind)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        z = random_sample(rng, kind, d)
        t0, t1 = rng.normal(size=d), rng.normal(size=d)
        lam = float(rng.uniform())
        mid = lam * t0 + (1 - lam) * t1
        assert loss.value(z, mid) <= (
            lam * loss.value(z, t0) + (1 - lam) * loss.value(z, t1) + 1e-12
        )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_third_derivative_certificate(kind, rng):
    """|d^3 l [k,h,h]| <= sc_factor(k) * h^T hess h, third derivative by
    central differences of the Hessian quadratic form."""
    loss = make_loss(kind)
    eps = 1e-4
    for _ in range(40):
        d = int(rng.integers(1, 5))
        z = random_sample(rng, kind, d)
        theta = rng.normal(size=d)
        h_dir = rng.normal(size=d)
        k_dir = rng.normal(size=d)
        hp = loss.hess(z, theta + eps * k_dir)
        hm = loss.hess(z, theta - eps * k_dir)
        third = (h_dir @ hp @ h_dir - h_dir @ hm @ h_dir) / (2 * eps)
        bound = loss.sc_factor(z, k_dir) * float(h_dir @ loss.hess(z, theta) @ h_dir)
        scale = max(1.0, abs(bound))
        assert abs(third) <= bound + 1e-3 * scale


@given(j=st.integers(min_value=-30, max_value=30), sign=st.sampled_from([-1.0, 1.0]))
@settings(max_examples=40, deadline=None)
def test_sc_factor_exactly_homogeneous_for_exact_scalings(j, sign):
    # multiplication by a signed power of two is exact in binary floating
    # point, so homogeneity must hold bitwise there
    c = sign * 2.0**j
    rng = np.random.default_rng(7)
    for kind in ALL_KINDS:
        loss = make_loss(kind)
        z = random_sample(rng, kind, 3)
        k = rng.normal(size=3)
        assert loss.sc_factor(z, c * k) == abs(c) * loss.sc_factor(z, k)


@given(c=st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_sc_factor_homogeneous_up_to_rounding(c):
    rng = np.random.default_rng(11)
    for kind in ALL_KINDS:
        loss = make_loss(kind)
        z = random_sample(rng, kind, 3)
        k = rng.normal(size=3)
        lhs = loss.sc_factor(z, c * k)
        rhs = abs(c) * loss.sc_factor(z, k)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-300)


# -- contracts ---------------------------------------------------------------------


def test_dimension_mismatch_raises():
    z = Sample(features=np.array([1.0, 2.0]), label=0.5)
    with pytest.raises(ContractViolation):
        SquareLoss().value(z, np.zeros(3))
    with pytest.raises(ContractViolation):
        SquareLoss().sc_factor(z, np.zeros(1))


def test_nonfinite_inputs_raise():
    with pytest.raises(DomainError):
        Sample(features=np.array([np.inf]), label=0.0)
    with pytest.raises(DomainError):
        Sample(features=np.array([1.0]), label=float("nan"))
    z = Sample(features=np.array([1.0]), label=0.0)
    with pytest.raises(DomainError):
        SquareLoss().value(z, np.array([np.nan]))


def test_logistic_label_validation():
    z = Sample(features=np.array([1.0]), label=0.5)
    with pytest.raises(ContractViolation):
        LogisticLoss().value(z, np.zeros(1))


def test_glm_label_range():
    with pytest.raises(ContractViolation):
        Sample(features=np.ones((2, 3)), label=2)
    with pytest.raises(ContractViolation):
        Sample(features=np.ones((2, 3)), label=-1)


def test_glm_sample_kind_mismatch():
    scalar = Sample(features=np.ones(3), label=1.0)
    with pytest.raises(ContractViolation):
        make_loss("softmax_glm").value(scalar, np.zeros(3))


def test_softmax_base_measure_validation():
    with pytest.raises(ContractViolation):
        SoftmaxGLMLoss(np.array([1.0, -1.0]))
    with pytest.raises(ContractViolation):
        SoftmaxGLMLoss(np.array([1.0]))


def test_softmax_logsumexp_stability():
    loss = SoftmaxGLMLoss(np.array([1.0, 1.0]))
    z = Sample(features=np.array([[1000.0], [-1000.0]]), label=0)
    val = loss.value(z, np.array([1.0]))
    assert np.isfinite(val)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_logistic_large_margin_stability():
    z = Sample(features=np.array([1.0]), label=1.0)
    assert LogisticLoss().value(z, np.array([800.0])) == pytest.approx(0.0, abs=1e-300)
    assert LogisticLoss().value(z, np.array([-800.0])) == pytest.approx(800.0, rel=1e-12)


# -- stacked representation consistency ---------------------------------------------


def assert_sums_match_per_sample_ops(loss, atoms, sset, theta, weight_sets):
    """The stacked sums of sset against the per-sample LossModel methods."""
    vals = np.array([loss.value(z, theta) for z in atoms])
    np.testing.assert_allclose(sset.values(theta), vals, rtol=1e-12, atol=1e-12)
    grads = np.stack([loss.grad(z, theta) for z in atoms])
    np.testing.assert_allclose(sset.grads(theta), grads, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sset.grad_norms(theta), np.linalg.norm(grads, axis=1),
                               rtol=1e-12, atol=1e-12)
    basis = np.random.default_rng(len(atoms)).normal(size=(sset.dim, 3))
    for weights in weight_sets:
        assert sset.weighted_value(weights, theta) == pytest.approx(weights @ vals, rel=1e-12,
                                                                     abs=1e-12)
        np.testing.assert_allclose(sset.weighted_grad(weights, theta), weights @ grads,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sset.grad_moments(weights, theta, basis),
                                   weights @ (grads @ basis) ** 2, rtol=1e-12, atol=1e-12)
        hess = sum(weights[i] * loss.hess(z, theta) for i, z in enumerate(atoms))
        np.testing.assert_allclose(sset.weighted_hess(weights, theta), hess,
                                   rtol=1e-11, atol=1e-12)
    traces = np.array([np.trace(loss.hess(z, theta)) for z in atoms])
    np.testing.assert_allclose(sset.trace_hess(theta), traces, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sample_set_matches_per_sample_ops(kind, rng):
    loss = make_loss(kind)
    d = 4
    atoms = [random_sample(rng, kind, d) for _ in range(7)]
    sset = stack_samples(loss, atoms)
    w = rng.uniform(0.1, 1.0, size=7)
    w /= w.sum()
    # a draw's counts / n weights: atoms 0, 3 and 6 not drawn
    w_drawn = np.where(np.arange(7) % 3 == 0, 0.0, w)
    w_drawn /= w_drawn.sum()
    theta = rng.normal(size=d)
    assert_sums_match_per_sample_ops(loss, atoms, sset, theta, (w, w_drawn))
    k = rng.normal(size=d)
    facs = np.array([loss.sc_factor(z, k) for z in atoms])
    # an atom's certificate vectors are sc_coef times its feature rows, and
    # feature row i is row_sign[i] * rows[row_of[i]], atom-major
    per_row = loss.sc_coef * (sset.rows @ k)[sset.row_of] * sset.row_sign
    np.testing.assert_allclose(np.abs(per_row.reshape(7, -1)).max(axis=1), facs,
                               rtol=1e-12, atol=1e-12)
    assert sset.seminorm(k) == pytest.approx(facs.max(), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", SCALAR_KINDS)
def test_sample_set_merges_shared_rows_exactly(kind, rng):
    d = 4
    shared, half_drawn, undrawn, plain = (rng.normal(size=d) for _ in range(4))
    zero_row = rng.normal(size=d)
    zero_row[1] = 0.0
    negzero_row = zero_row.copy()
    negzero_row[1] = -0.0
    signed = rng.normal(size=d)
    rows = [shared, shared, half_drawn, half_drawn, zero_row, negzero_row, plain,
            undrawn, undrawn, signed, -signed]
    if kind == "logistic":
        labels = [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0]
    else:
        labels = [0.7, -1.3, 0.2, 1.9, -0.4, 0.6, 1.1, -0.8, 0.3, 0.5, -0.9]
    loss = make_loss(kind)
    atoms = [Sample(features=x, label=y) for x, y in zip(rows, labels)]
    sset = stack_samples(loss, atoms)
    # atoms that differ only in their label share a row, and so do x and -x;
    # 0.0 and -0.0 stay apart
    assert sset.rows.shape == (7, d)
    assert sset.row_of[0] == sset.row_of[1] and sset.row_of[2] == sset.row_of[3]
    assert sset.row_of[4] != sset.row_of[5]
    assert sset.row_of[9] == sset.row_of[10]
    assert sset.row_sign.tolist() == [1.0] * 10 + [-1.0]
    rebuilt = sset.rows[sset.row_of] * sset.row_sign[:, None]
    assert rebuilt.tobytes() == sset.features.tobytes()
    w = rng.uniform(0.1, 1.0, size=11)
    # one atom of a shared row drawn, and no atom of another
    w_drawn = np.where(np.isin(np.arange(11), [3, 7, 8]), 0.0, w)
    theta = rng.normal(size=d)
    assert_sums_match_per_sample_ops(loss, atoms, sset, theta,
                                     (w / w.sum(), w_drawn / w_drawn.sum()))


@pytest.mark.parametrize("build,distinct", [
    (lambda: make_source_population(256, 0.5, 1.0, 102), 256),
    (lambda: make_logistic_population(16, 1.0, 103), 16),
], ids=["source-b", "logistic-a"])
def test_generated_populations_sum_each_row_once(build, distinct):
    # four atoms per axis: +-s e_j, each with two labels
    sset = build().sample_set
    assert len(sset) == 4 * distinct
    assert sset.rows.shape == (distinct, sset.dim)
    assert not sset.row_sign.flags.writeable
    # equal entry for entry; a zero entry of a negated row reads -0.0
    rebuilt = sset.rows[sset.row_of] * sset.row_sign[:, None]
    np.testing.assert_array_equal(rebuilt, sset.features)
    nonzero = sset.features != 0.0
    assert rebuilt[nonzero].tobytes() == sset.features[nonzero].tobytes()
    # one certificate vector per row up to sign, with the per-atom sup
    assert sset.certificate_rows.shape == (0 if sset.quadratic else distinct, sset.dim)
    k = np.random.default_rng(5).normal(size=sset.dim)
    facs = [sset.loss.sc_factor(Sample(features=x, label=y), k)
            for x, y in zip(sset.features, sset.labels)]
    assert sset.seminorm(k) == pytest.approx(max(facs), rel=1e-12)


def test_glm_sample_set_merges_repeated_label_rows(rng):
    d, loss = 4, make_loss("softmax_glm")
    shared, signed = rng.normal(size=d), rng.normal(size=d)
    # label 0 is a zero reference row in every atom
    feats = np.zeros((4, 3, d))
    feats[0, 1:] = shared, signed
    feats[1, 1:] = rng.normal(size=d), shared
    feats[2, 1:] = -signed, rng.normal(size=d)
    feats[3, 1:] = rng.normal(size=(2, d))
    labels = [1, 2, 0, 1]
    sset = SampleSet(loss, feats, labels)
    # one zero row, shared and signed once each, and four rows of their own
    assert sset.rows.shape == (7, d)
    assert (sset.row_of.reshape(4, 3)[:, 0] == sset.row_of[0]).all()
    assert sset.row_of[1] == sset.row_of[5] and sset.row_of[2] == sset.row_of[7]
    assert sset.row_sign.tolist() == [1.0] * 7 + [-1.0] + [1.0] * 4
    rebuilt = sset.rows[sset.row_of] * sset.row_sign[:, None]
    np.testing.assert_array_equal(rebuilt.reshape(feats.shape), feats)
    assert sset.certificate_rows.shape == (7, d)
    atoms = [Sample(features=x, label=y) for x, y in zip(feats, labels)]
    k = rng.normal(size=d)
    assert sset.seminorm(k) == pytest.approx(max(loss.sc_factor(z, k) for z in atoms),
                                             rel=1e-12, abs=1e-12)
    w = rng.uniform(0.1, 1.0, size=4)
    w_drawn = np.where(np.arange(4) == 1, 0.0, w)
    assert_sums_match_per_sample_ops(loss, atoms, sset, rng.normal(size=d),
                                     (w / w.sum(), w_drawn / w_drawn.sum()))


def test_near_one_hot_softmax_hessian_matches_closed_form():
    # binary softmax with uniform base measure: an atom's Hessian is
    # sigma(s) sigma(-s) delta delta^T, delta = Phi_1 - Phi_0 and s = theta . delta;
    # at |theta| = 60 every p is near one-hot, sigma(s) sigma(-s) <= 5e-7
    rng = np.random.default_rng(7)
    m, d = 12, 4
    theta = rng.normal(size=d)
    theta *= 60.0 / np.linalg.norm(theta)
    feats = rng.normal(size=(m, 2, d))
    sset = SampleSet(SoftmaxGLMLoss(np.array([0.5, 0.5])), feats, rng.integers(2, size=m))
    w = rng.uniform(0.1, 1.0, size=m)
    w /= w.sum()
    delta = feats[:, 1] - feats[:, 0]
    e = np.exp(-np.abs(delta @ theta))
    expected = ((w * e / (1.0 + e) ** 2)[:, None] * delta).T @ delta
    np.testing.assert_allclose(sset.weighted_hess(w, theta), expected, rtol=1e-13, atol=0)


def test_zero_rows_merge_only_after_a_negative_zero_row():
    # 0.0 - (-0.0) is +0.0, so an all-+0.0 row is the negation of an earlier
    # -0.0 row and joins it; the reverse order keeps the two apart
    loss = SquareLoss()
    negzero, zero = np.full(3, -0.0), np.zeros(3)
    sset = SampleSet(loss, np.stack([negzero, zero]), [0.5, -0.5])
    assert sset.rows.shape == (1, 3) and sset.row_sign.tolist() == [1.0, -1.0]
    sset = SampleSet(loss, np.stack([zero, negzero]), [0.5, -0.5])
    assert sset.rows.shape == (2, 3) and sset.row_sign.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("kind", SCALAR_KINDS)
@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_sample_set_accepts_any_memory_layout(kind, layout, rng):
    d = 4
    atoms = [random_sample(rng, kind, d) for _ in range(5)]
    atoms += [Sample(features=-z.features, label=z.label) for z in atoms[:2]]
    x = np.stack([z.features for z in atoms])
    x = np.asfortranarray(x) if layout == "fortran" else np.repeat(x, 2, axis=1)[:, ::2]
    assert not x.flags.c_contiguous
    loss = make_loss(kind)
    sset = SampleSet(loss, x, [z.label for z in atoms])
    assert sset.rows.shape == (5, d)
    w = rng.uniform(0.1, 1.0, size=len(atoms))
    assert_sums_match_per_sample_ops(loss, atoms, sset, rng.normal(size=d), (w / w.sum(),))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_scalar_weighted_hess_is_exactly_symmetric(kind, rng):
    d = 5
    atoms = [random_sample(rng, kind, d) for _ in range(6)]
    atoms += [Sample(features=-z.features, label=z.label) for z in atoms[:3]]
    sset = stack_samples(make_loss(kind), atoms)
    assert sset.rows.shape == (6 * (3 if kind == "softmax_glm" else 1), d)
    w = rng.uniform(0.1, 1.0, size=len(atoms))
    h = sset.weighted_hess(w / w.sum(), rng.normal(size=d))
    assert h.tobytes() == h.T.copy().tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weighted_hess_rejects_negative_weights(kind, rng):
    # and weights that are not finite: a NaN passes a "< 0" check
    atoms = [random_sample(rng, kind, 3) for _ in range(4)]
    sset = stack_samples(make_loss(kind), atoms)
    for bad in (-0.25, math.nan, math.inf):
        weights = np.array([0.5, 0.75, bad, 0.0])
        for w, theta in ((weights, np.zeros(3)), (np.stack([weights] * 2), np.zeros((2, 3)))):
            with np.errstate(invalid="raise"), pytest.raises(ContractViolation,
                                                             match="nonnegative"):
                sset.weighted_hess(w, theta)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_certificate_rows_are_one_read_only_stack(kind, rng):
    atoms = [random_sample(rng, kind, 3) for _ in range(5)]
    sset = stack_samples(make_loss(kind), atoms)
    rows = sset.certificate_rows
    assert sset.certificate_rows is rows
    assert not rows.flags.writeable
    expected = {"square": 0, "softmax_glm": 5 * 3}  # 3 label rows per GLM atom
    assert rows.shape == (expected.get(kind, 5), 3)


GLM3 = SoftmaxGLMLoss(np.ones(3) / 3)


@pytest.mark.parametrize("loss,features,labels,error", [
    (SquareLoss(), np.ones(3), np.zeros(3), ContractViolation),
    (SquareLoss(), np.ones((2, 3, 2)), np.zeros(2), ContractViolation),
    (GLM3, np.ones((2, 2)), np.zeros(2), ContractViolation),
    (SquareLoss(), np.ones((0, 2)), np.zeros(0), ContractViolation),
    (SquareLoss(), [[1.0, np.inf], [0.0, 1.0]], np.zeros(2), DomainError),
    (SquareLoss(), np.ones((2, 2)), [0.0, np.nan], DomainError),
    (SquareLoss(), np.ones((2, 2)), np.zeros((2, 1)), ContractViolation),
    (SquareLoss(), np.ones((2, 2)), np.zeros(3), ContractViolation),
    (LogisticLoss(), np.ones((2, 2)), [1.0, 0.5], ContractViolation),
    (GLM3, np.ones((2, 3, 2)), [0, 3], ContractViolation),
    (GLM3, np.ones((2, 3, 2)), [0, -1], ContractViolation),
    (GLM3, np.ones((2, 3, 2)), [0, 1.5], ContractViolation),
    (GLM3, np.ones((2, 2, 2)), [0, 1], ContractViolation),
], ids=["scalar-1d", "scalar-3d", "glm-2d", "empty", "nonfinite-feature",
        "nonfinite-label", "label-column", "label-count", "logistic-half",
        "glm-label-too-large", "glm-label-negative", "glm-label-fraction",
        "glm-label-rows-vs-base-measure"])
def test_sample_set_rejects_malformed_stack(loss, features, labels, error):
    """Each malformed stack raises the exception type a Sample with the same
    defect raises on the per-sample path."""
    with pytest.raises(error):
        SampleSet(loss, features, labels)


def test_sample_set_rejects_mixed_dims():
    with pytest.raises(ContractViolation):
        stack_samples(SquareLoss(), [Sample(features=np.ones(2), label=0.0),
                                     Sample(features=np.ones(3), label=0.0)])


# -- axis rows: products as gathers and scatters --------------------------------


def dense_twin(sset):
    """The same support with ``axis_rows`` set to None, so that every product
    with its rows runs through BLAS."""
    twin = SampleSet(sset.loss, sset.features, sset.labels)
    vars(twin)["axis_rows"] = None
    return twin


def axis_support(rng, kind):
    """A scalar support on k <= d axis rows of random signs and scales from
    1e-150 to 1e150, with merged +-x rows and labels drawn from a small set,
    and a parameter that keeps every margin of order 1."""
    d = int(rng.integers(1, 9))
    k = int(rng.integers(1, d + 1))
    cols = rng.choice(d, size=k, replace=False)
    x = np.zeros((k, d))
    x[np.arange(k), cols] = rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(-150, 150, k)
    # extra atoms on the same rows, half of them at 0.0 - x (the point -x)
    pick = rng.integers(k, size=int(rng.integers(0, 2 * k + 1)))
    extra = np.where(rng.random(pick.size)[:, None] < 0.5, 0.0 - x[pick], x[pick])
    feats = np.concatenate([x, extra])
    m = len(feats)
    if kind == "logistic":
        labels = rng.choice([-1.0, 1.0], size=m)
    else:
        labels = rng.choice([-1.0, 0.0, 1.3], size=m)
    theta = rng.normal(size=d)
    theta[cols] /= np.abs(x[np.arange(k), cols])
    if rng.random() < 0.5:
        theta[cols[0]] = rng.choice([0.0, -0.0])
    return SampleSet(make_loss(kind), feats, labels), theta


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SCALAR_KINDS),
       count=st.sampled_from([1, 3]))
def test_axis_rows_match_the_dense_products(seed, kind, count):
    rng = np.random.default_rng(seed)
    sset, theta = axis_support(rng, kind)
    cols, vals = sset.axis_rows
    assert not cols.flags.writeable and not vals.flags.writeable
    np.testing.assert_array_equal(sset.rows[np.arange(len(cols)), cols], vals)
    dense = dense_twin(sset)
    k, m, d = len(sset.rows), len(sset), sset.dim
    w = rng.uniform(0.1, 1.0, size=(count, m))
    # a row of coefficient 0: every atom of it undrawn in every replicate
    if k > 1:
        w[:, sset.row_of == rng.integers(k)] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    thetas = theta + np.zeros((count, d))
    thetas[1:] *= rng.uniform(0.5, 2.0, size=(count - 1, d))
    basis = rng.normal(size=(d, 3))
    # margins and gradients up to the sign of an exact zero: assert_array_equal
    # counts -0.0 equal to 0.0
    for t in (theta, thetas):
        np.testing.assert_array_equal(sset._margins(t), dense._margins(t))
        np.testing.assert_array_equal(sset.values(t), dense.values(t))
    beta = rng.normal(size=(count, k))
    np.testing.assert_array_equal(sset.combine_rows(beta), beta @ sset.rows)
    np.testing.assert_array_equal(sset.combine_rows(beta[0]), beta[0] @ sset.rows)
    for weights, t in ((w[0], theta), (w, thetas)):
        np.testing.assert_array_equal(sset.grad_coefs(weights, t), dense.grad_coefs(weights, t))
        np.testing.assert_array_equal(sset.weighted_grad(weights, t),
                                      dense.weighted_grad(weights, t))
        np.testing.assert_array_equal(sset.hess_coefs(weights, t), dense.hess_coefs(weights, t))
        np.testing.assert_array_equal(sset.weighted_hess(weights, t),
                                      dense.weighted_hess(weights, t))
    # the single Hessian and the moments bit for bit
    assert_same_bytes(sset.weighted_hess(w[0], theta), dense.weighted_hess(w[0], theta))
    assert_same_bytes(sset.grad_moments(w[0], theta, basis),
                      dense.grad_moments(w[0], theta, basis))
    for lam in (0.1, 0.0):
        for out, ref in zip(solver.newton_minimize_batch(sset, w, lam),
                            solver.newton_minimize_batch(dense, w, lam)):
            assert type(out) is type(ref)
            if isinstance(ref, solver.SolveResult):
                np.testing.assert_array_equal(out.theta_hat, ref.theta_hat)
                assert out.decrement_trace == ref.decrement_trace
            else:
                assert str(out) == str(ref)


def test_axis_rows_are_none_off_the_axes():
    case_b = make_source_population(256, 0.5, 1.0, 102)
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    hadamard = np.kron(np.kron(h, h), h)
    square = SquareLoss()
    assert SampleSet(square, hadamard, np.zeros(8)).axis_rows is None
    assert rotated(case_b, seed=0).sample_set.axis_rows is None
    # two nonzeros on coordinates no other row uses: orthogonal, not axis rows
    disjoint = SampleSet(square, [[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]], [0.0, 1.0])
    assert disjoint.rows_orthogonal and disjoint.axis_rows is None
    assert SampleSet(square, [[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0]).axis_rows is None
    # two rows on one coordinate, and more rows than coordinates
    assert SampleSet(square, [[1.0, 0.0], [2.0, 0.0]], [0.0, 1.0]).axis_rows is None
    assert SampleSet(square, np.eye(2)[[0, 1, 1]] * [[1.0], [1.0], [3.0]],
                     [0.0] * 3).axis_rows is None
    # GLM label rows one per coordinate are still GLM rows
    glm = SampleSet(SoftmaxGLMLoss(np.array([0.5, 0.5])), [[[1.0, 0.0], [0.0, 2.0]]], [0])
    assert len(glm.rows) == 2 and glm.axis_rows is None
    # the generators' rows are axis rows
    for pop in (case_b, make_logistic_population(16, 1.0, 103)):
        cols, vals = pop.sample_set.axis_rows
        assert len(cols) == pop.dim and (vals != 0.0).all()
