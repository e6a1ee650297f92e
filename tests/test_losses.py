import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scerm import (
    ContractViolation,
    DomainError,
    HuberSqrtLoss,
    LogisticLoss,
    Sample,
    SampleSet,
    SoftmaxGLMLoss,
    SquareLoss,
    stack_samples,
    sup_constants,
)
from scerm.linalg import ball_point
from scerm.losses import LOSS_KINDS

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
    for radius in (0.5, 1.0, 7.0):
        c = sup_constants(stack_samples(LogisticLoss(), [z]), radius)
        assert c.r == 1.0
        assert c.b1 == 1.0
        assert c.b2 == 0.25


def test_sup_constants_square():
    z = Sample(features=np.array([2.0]), label=1.0)
    c = sup_constants(stack_samples(SquareLoss(), [z]), 1.0)
    assert c.r == 0.0
    # sup |theta.Phi - y| ||Phi|| over ||theta|| <= 1 is (1*2 + 1)*2
    assert c.b1 == pytest.approx(6.0)
    assert c.b2 == pytest.approx(4.0)


def test_sup_constants_softmax_bound_sampled_ball(rng):
    loss = make_loss("softmax_glm")
    atoms = [random_sample(rng, "softmax_glm", 3) for _ in range(4)]
    radius = 2.0
    sset = stack_samples(loss, atoms)
    c = sup_constants(sset, radius)
    assert c.r == pytest.approx(
        2.0 * max(np.max(np.linalg.norm(z.features, axis=1)) for z in atoms)
    )
    # points inside the ball, and far out where the softmax saturates
    for scale in (1.0, 50.0):
        for _ in range(100):
            theta = scale * ball_point(rng, 3, radius)
            assert np.max(sset.grad_norms(theta)) <= c.b1 * (1.0 + 1e-12)
            assert np.max(sset.trace_hess(theta)) <= c.b2 * (1.0 + 1e-12)


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
    vals = np.array([loss.value(z, theta) for z in atoms])
    np.testing.assert_allclose(sset.values(theta), vals, rtol=1e-12, atol=1e-12)
    grads = np.stack([loss.grad(z, theta) for z in atoms])
    np.testing.assert_allclose(sset.grads(theta), grads, rtol=1e-12, atol=1e-12)
    for weights in (w, w_drawn):
        np.testing.assert_allclose(sset.weighted_grad(weights, theta), weights @ grads,
                                   rtol=1e-12, atol=1e-12)
        hess = sum(weights[i] * loss.hess(z, theta) for i, z in enumerate(atoms))
        np.testing.assert_allclose(sset.weighted_hess(weights, theta), hess,
                                   rtol=1e-11, atol=1e-12)
    traces = np.array([np.trace(loss.hess(z, theta)) for z in atoms])
    np.testing.assert_allclose(sset.trace_hess(theta), traces, rtol=1e-11, atol=1e-12)
    k = rng.normal(size=d)
    facs = np.array([loss.sc_factor(z, k) for z in atoms])
    np.testing.assert_allclose(sset.sc_factors(k), facs, rtol=1e-12, atol=1e-12)


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
