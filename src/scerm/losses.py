"""Catalog of generalized self-concordant losses.

Each loss supplies per-sample value / gradient / Hessian together with the
certificate factor

    sc_factor(z, k) = sup over the certificate vectors g of z of |k . g|,

which bounds the directional third derivative by sc_factor * (Hessian
quadratic form). The certificate vectors are {0} for the square loss,
{3 Phi(x)} and {2 Phi(x)} for the two Huber variants, {y Phi(x)} for the
logistic loss and {2 Phi(x, y')} over the label set for the softmax GLM.

A ``SampleSet`` holds a support as stacked feature and label arrays, so that
population sums and empirical risks are single BLAS calls. ``Sample`` is one
observation, the input of the per-sample operations, which stay an
independent oracle for the stacked sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DomainError

__all__ = [
    "Sample",
    "LossModel",
    "SquareLoss",
    "HuberSqrtLoss",
    "HuberLogCoshLoss",
    "LogisticLoss",
    "SoftmaxGLMLoss",
    "SampleSet",
    "SupConstants",
    "sup_constants",
    "LOSS_KINDS",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def _stacked(features, labels) -> tuple[np.ndarray, np.ndarray]:
    """Read-only features and labels of a stack of samples, checked against
    the rules that hold whatever the loss: m >= 1 rows of (d,) scalar or
    (n_labels, d) GLM features, all finite, one finite label per row, and GLM
    labels that are integer indices of a row of their sample."""
    feats = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if feats.ndim not in (2, 3) or feats.shape[-1] < 1:
        raise ContractViolation(
            f"features must stack (d,) or (n_labels, d) rows, got shape {feats.shape}")
    if feats.shape[0] == 0:
        raise ContractViolation("empty sample list")
    if labels.shape != feats.shape[:1]:
        raise ContractViolation(f"labels have shape {labels.shape}, expected ({feats.shape[0]},)")
    if not np.all(np.isfinite(feats)):
        raise DomainError("features contain non-finite entries")
    if not np.all(np.isfinite(labels)):
        raise DomainError("label is non-finite")
    if feats.ndim == 3:
        bad = (labels != np.floor(labels)) | (labels < 0) | (labels >= feats.shape[1])
        if bad.any():
            raise ContractViolation(
                f"GLM label index {labels[bad][0]} outside [0, {feats.shape[1]})")
        labels = labels.astype(int)
    return _readonly(feats), _readonly(labels)


@dataclass(frozen=True)
class Sample:
    """One observation z = (features, label).

    For the scalar losses ``features`` is the representation Phi(x) of shape
    (d,) and ``label`` is a real number (for the logistic loss it must be
    +1 or -1). For the softmax GLM ``features`` holds one d-vector per label,
    shape (n_labels, d), and ``label`` is the observed label index.
    """

    features: np.ndarray
    label: float

    def __post_init__(self):
        feats, _ = _stacked(np.asarray(self.features, dtype=float)[None], [self.label])
        object.__setattr__(self, "features", feats[0])

    @property
    def dim(self) -> int:
        return self.features.shape[-1]


def _check_theta(theta: np.ndarray, d: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d,):
        raise ContractViolation(f"parameter has shape {theta.shape}, expected ({d},)")
    if not np.all(np.isfinite(theta)):
        raise DomainError("parameter contains non-finite entries")
    return theta


class LossModel:
    """Base class; concrete losses define the scalar link or the GLM sums."""

    kind: str = ""
    is_glm: bool = False

    # -- per-sample interface -------------------------------------------------
    def value(self, z: Sample, theta: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, z: Sample, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, z: Sample, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sc_factor(self, z: Sample, k: np.ndarray) -> float:
        raise NotImplementedError

    def check_support(self, features, labels) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (features, labels) arrays of a support of this loss:
        (m, d) and (m,) for a scalar loss, (m, n_labels, d) and (m,) label
        indices for a GLM. Raises on the first rule a row breaks."""
        feats, labels = _stacked(features, labels)
        if (feats.ndim == 3) != self.is_glm:
            raise ContractViolation(
                f"{self.kind} expects {'GLM' if self.is_glm else 'scalar'} samples"
            )
        self._check_labels(feats, labels)
        return feats, labels

    def _check_labels(self, feats, labels) -> None:
        """The loss's own label domain; every label of a scalar loss is valid."""

    def validate_sample(self, z: Sample) -> None:
        self.check_support(z.features[None], [z.label])

    def __repr__(self):
        return f"{type(self).__name__}()"


class _ScalarLoss(LossModel):
    """Losses of the form l_z(theta) = f(theta . Phi(x); y).

    Subclasses provide vectorized ``_f``, ``_fp``, ``_fpp`` (value and the
    first two derivatives in the margin u = theta . Phi) plus the constant
    ``sc_coef`` with certificate set {sc_coef * Phi(x)} (sign irrelevant).
    """

    sc_coef: float = 0.0

    def _f(self, u, y):
        raise NotImplementedError

    def _fp(self, u, y):
        raise NotImplementedError

    def _fpp(self, u, y):
        raise NotImplementedError

    def value(self, z, theta):
        self.validate_sample(z)
        theta = _check_theta(theta, z.dim)
        return float(self._f(z.features @ theta, z.label))

    def grad(self, z, theta):
        self.validate_sample(z)
        theta = _check_theta(theta, z.dim)
        return float(self._fp(z.features @ theta, z.label)) * z.features

    def hess(self, z, theta):
        self.validate_sample(z)
        theta = _check_theta(theta, z.dim)
        c = float(self._fpp(z.features @ theta, z.label))
        return c * np.outer(z.features, z.features)

    def sc_factor(self, z, k):
        self.validate_sample(z)
        k = _check_theta(k, z.dim)
        return self.sc_coef * abs(float(k @ z.features))


class SquareLoss(_ScalarLoss):
    """l = (y - u)^2 / 2; quadratic, certificate set {0}."""

    kind = "square"
    sc_coef = 0.0

    def _f(self, u, y):
        return 0.5 * (y - u) ** 2

    def _fp(self, u, y):
        return u - y

    def _fpp(self, u, y):
        return np.ones_like(np.asarray(u, dtype=float))


class HuberSqrtLoss(_ScalarLoss):
    """l = sqrt(1 + (y-u)^2) - 1."""

    kind = "huber_sqrt"
    sc_coef = 3.0

    def _f(self, u, y):
        t = y - u
        return np.sqrt(1.0 + t * t) - 1.0

    def _fp(self, u, y):
        t = y - u
        return -t / np.sqrt(1.0 + t * t)

    def _fpp(self, u, y):
        t = y - u
        return (1.0 + t * t) ** -1.5


class HuberLogCoshLoss(_ScalarLoss):
    """l = log cosh(y - u), written as |t| + log1p(e^{-2|t|}) - log 2."""

    kind = "huber_logcosh"
    sc_coef = 2.0

    def _f(self, u, y):
        t = np.abs(y - u)
        return t + np.log1p(np.exp(-2.0 * t)) - np.log(2.0)

    def _fp(self, u, y):
        return -np.tanh(y - u)

    def _fpp(self, u, y):
        return np.cosh(y - u) ** -2.0


def _log1pexp(x):
    """log(1 + e^x), overflow-safe for large |x|."""
    x = np.asarray(x, dtype=float)
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class LogisticLoss(_ScalarLoss):
    """l = log(1 + e^{-y u}) with labels y in {-1, +1}."""

    kind = "logistic"
    sc_coef = 1.0

    def _check_labels(self, feats, labels):
        bad = np.abs(labels) != 1.0
        if bad.any():
            raise ContractViolation(f"logistic label must be +1 or -1, got {labels[bad][0]}")

    def _f(self, u, y):
        return _log1pexp(-y * np.asarray(u, dtype=float))

    def _fp(self, u, y):
        return -y * _sigmoid(-y * np.asarray(u, dtype=float))

    def _fpp(self, u, y):
        m = y * np.asarray(u, dtype=float)
        return _sigmoid(m) * _sigmoid(-m)


class SoftmaxGLMLoss(LossModel):
    """Negative conditional log-likelihood of a softmax model over a finite
    label set with a priori measure mu:

        l = -theta . Phi(x, y) + log sum_{y'} mu(y') exp(theta . Phi(x, y'))

    evaluated through a max-shifted log-sum-exp. Certificate set
    {2 Phi(x, y') : y' in labels}.
    """

    kind = "softmax_glm"
    is_glm = True

    def __init__(self, base_measure):
        mu = np.asarray(base_measure, dtype=float)
        if mu.ndim != 1 or mu.size < 2:
            raise ContractViolation("base_measure must be a vector of >= 2 weights")
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
            raise ContractViolation("base_measure weights must be positive and finite")
        self.base_measure = _readonly(mu)
        self.n_labels = mu.size

    def __repr__(self):
        return f"SoftmaxGLMLoss(base_measure={self.base_measure.tolist()})"

    def _check_labels(self, feats, labels):
        if feats.shape[1] != self.n_labels:
            raise ContractViolation(
                f"sample has {feats.shape[1]} label rows, base measure has {self.n_labels}"
            )

    def _scores(self, feats, theta):
        # log mu(y') + theta . Phi(x, y'), shape (n_labels,)
        return feats @ theta + np.log(self.base_measure)

    def _probs_logz(self, feats, theta):
        s = self._scores(feats, theta)
        smax = s.max()
        es = np.exp(s - smax)
        zsum = es.sum()
        return es / zsum, smax + np.log(zsum)

    def value(self, z, theta):
        self.validate_sample(z)
        theta = _check_theta(theta, z.dim)
        _, logz = self._probs_logz(z.features, theta)
        return float(logz - z.features[int(z.label)] @ theta)

    def grad(self, z, theta):
        self.validate_sample(z)
        theta = _check_theta(theta, z.dim)
        p, _ = self._probs_logz(z.features, theta)
        return p @ z.features - z.features[int(z.label)]

    def hess(self, z, theta):
        self.validate_sample(z)
        theta = _check_theta(theta, z.dim)
        p, _ = self._probs_logz(z.features, theta)
        mean = p @ z.features
        h = (z.features.T * p) @ z.features - np.outer(mean, mean)
        return 0.5 * (h + h.T)

    def sc_factor(self, z, k):
        self.validate_sample(z)
        k = _check_theta(k, z.dim)
        return 2.0 * float(np.max(np.abs(z.features @ k)))


LOSS_KINDS = {
    "square": SquareLoss,
    "huber_sqrt": HuberSqrtLoss,
    "huber_logcosh": HuberLogCoshLoss,
    "logistic": LogisticLoss,
    "softmax_glm": SoftmaxGLMLoss,
}


# -- stacked representation ----------------------------------------------------

class SampleSet:
    """Immutable support of one loss as stacked arrays, with vectorized sums.

    Scalar losses take features X (m, d) and labels y (m,); the softmax GLM
    takes features (m, n_labels, d) and label indices (m,). Both are checked
    once, through ``loss.check_support``. Weighted risks, gradients and
    Hessians over the stack are exact finite sums.
    """

    def __init__(self, loss: LossModel, features, labels):
        self.loss = loss
        self.features, self.labels = loss.check_support(features, labels)
        self.dim = self.features.shape[-1]

    def __len__(self):
        return self.features.shape[0]

    # -- scalar-loss internals
    def _margins(self, theta):
        return self.features @ theta

    def values(self, theta) -> np.ndarray:
        """Per-sample loss values, shape (m,)."""
        theta = _check_theta(theta, self.dim)
        loss = self.loss
        if not loss.is_glm:
            return np.asarray(loss._f(self._margins(theta), self.labels), dtype=float)
        _, logz = self._glm_softmax(self.features, theta)
        picked = np.take_along_axis(
            self.features @ theta, self.labels[:, None], axis=1
        ).ravel()
        return logz - picked

    def grads(self, theta) -> np.ndarray:
        """Per-sample gradients, shape (m, d)."""
        theta = _check_theta(theta, self.dim)
        loss = self.loss
        if not loss.is_glm:
            fp = np.asarray(loss._fp(self._margins(theta), self.labels), dtype=float)
            return fp[:, None] * self.features
        p, _ = self._glm_softmax(self.features, theta)
        mean = np.einsum("ml,mld->md", p, self.features)
        picked = self.features[np.arange(len(self)), self.labels]
        return mean - picked

    def _glm_softmax(self, feats, theta):
        """Label probabilities (m, n_labels) and log-partition (m,) of the
        stacked GLM features feats through a max-shifted log-sum-exp."""
        s = feats @ theta + np.log(self.loss.base_measure)[None, :]
        smax = s.max(axis=1, keepdims=True)
        es = np.exp(s - smax)
        zsum = es.sum(axis=1, keepdims=True)
        return es / zsum, (smax + np.log(zsum))[:, 0]

    def weighted_value(self, weights, theta) -> float:
        return float(weights @ self.values(theta))

    def weighted_grad(self, weights, theta) -> np.ndarray:
        loss = self.loss
        theta = _check_theta(theta, self.dim)
        if not loss.is_glm:
            fp = np.asarray(loss._fp(self._margins(theta), self.labels), dtype=float)
            return (weights * fp) @ self.features
        return weights @ self.grads(theta)

    def weighted_hess(self, weights, theta) -> np.ndarray:
        """Weighted sum of the per-sample Hessians, shape (d, d).

        Rows of zero weight add exactly 0 and are left out of the sums, so a
        draw's counts / n weights cost only the atoms it drew.
        """
        loss = self.loss
        theta = _check_theta(theta, self.dim)
        weights = np.asarray(weights, dtype=float)
        feats, labels = self.features, self.labels
        drawn = weights.nonzero()[0]
        if drawn.size < len(self):
            feats, labels, weights = feats.take(drawn, axis=0), labels.take(drawn), weights.take(drawn)
        if not loss.is_glm:
            fpp = np.asarray(loss._fpp(feats @ theta, labels), dtype=float)
            h = (feats.T * (weights * fpp)) @ feats
        else:
            p, _ = self._glm_softmax(feats, theta)
            wp = weights[:, None] * p
            h = np.einsum("ml,mld,mle->de", wp, feats, feats)
            means = np.einsum("ml,mld->md", p, feats)
            h -= np.einsum("m,md,me->de", weights, means, means)
        return 0.5 * (h + h.T)

    def trace_hess(self, theta) -> np.ndarray:
        """Per-sample Tr(hessian), shape (m,)."""
        loss = self.loss
        theta = _check_theta(theta, self.dim)
        if not loss.is_glm:
            fpp = np.asarray(loss._fpp(self._margins(theta), self.labels), dtype=float)
            return fpp * np.einsum("md,md->m", self.features, self.features)
        p, _ = self._glm_softmax(self.features, theta)
        sq = np.einsum("mld,mld->ml", self.features, self.features)
        means = np.einsum("ml,mld->md", p, self.features)
        return np.einsum("ml,ml->m", p, sq) - np.einsum("md,md->m", means, means)

    def grad_norms(self, theta) -> np.ndarray:
        return np.linalg.norm(self.grads(theta), axis=1)

    def sc_factors(self, k) -> np.ndarray:
        """Per-sample sup over certificate vectors of |k . g|, shape (m,)."""
        loss = self.loss
        k = _check_theta(k, self.dim)
        if not loss.is_glm:
            return loss.sc_coef * np.abs(self.features @ k)
        return 2.0 * np.max(np.abs(self.features @ k), axis=1)

    def sc_sup_norms(self) -> np.ndarray:
        loss = self.loss
        if not loss.is_glm:
            return loss.sc_coef * np.linalg.norm(self.features, axis=1)
        return 2.0 * np.max(np.linalg.norm(self.features, axis=2), axis=1)

    def certificate_rows(self) -> np.ndarray:
        """All certificate vectors stacked row-wise (empty for the square loss)."""
        loss = self.loss
        if not loss.is_glm:
            if loss.sc_coef == 0.0:
                return np.zeros((0, self.dim))
            return loss.sc_coef * self.features
        return 2.0 * self.features.reshape(-1, self.dim)


# -- sup constants over a parameter ball ---------------------------------------

@dataclass(frozen=True)
class SupConstants:
    """Bounds B1 >= sup ||grad||, B2 >= sup Tr(hess) over the ball, R exact."""

    b1: float
    b2: float
    r: float


def sup_constants(sset: SampleSet, radius: float) -> SupConstants:
    """Derivative bounds over {||theta|| <= radius} and the certificate radius R
    for the atoms of ``sset``.

    All bounds are closed forms. The square and Huber losses restrict the
    residual/margin to its exact range over the ball; the logistic loss uses
    its global Lipschitz and curvature bounds sup||Phi|| and sup||Phi||^2/4.
    The softmax GLM gradient is a probability mixture of Phi(x,y') - Phi(x,y)
    and its Hessian trace is at most the mixture's E||Phi(x,y')||^2, so
    B1 = max ||Phi(x,y') - Phi(x,y)|| and B2 = max ||Phi(x,y')||^2 over atoms
    and labels y'. The logistic and softmax bounds hold for every radius.
    """
    if radius < 0:
        raise ContractViolation("radius must be nonnegative")
    loss = sset.loss
    r_cert = float(np.max(sset.sc_sup_norms()))

    if loss.is_glm:
        feats = sset.features
        observed = feats[np.arange(len(sset)), sset.labels]
        b1 = float(np.max(np.linalg.norm(feats - observed[:, None, :], axis=2)))
        b2 = float(np.max(np.einsum("mld,mld->ml", feats, feats)))
        return SupConstants(b1=b1, b2=b2, r=r_cert)

    phi_norms = np.linalg.norm(sset.features, axis=1)
    y = sset.labels
    if isinstance(loss, SquareLoss):
        t_hi = np.abs(y) + radius * phi_norms
        b1 = float(np.max(t_hi * phi_norms))
        b2 = float(np.max(phi_norms**2))
    elif isinstance(loss, LogisticLoss):
        b1 = float(np.max(phi_norms))
        b2 = float(np.max(phi_norms**2)) / 4.0
    else:
        # Huber losses: residual t = y - u ranges over an interval whose
        # extreme |t| values give the exact sups of |psi'| and psi''.
        t_hi = np.abs(y) + radius * phi_norms
        t_lo = np.maximum(np.abs(y) - radius * phi_norms, 0.0)
        if isinstance(loss, HuberSqrtLoss):
            b1 = float(np.max(t_hi / np.sqrt(1.0 + t_hi**2) * phi_norms))
            b2 = float(np.max((1.0 + t_lo**2) ** -1.5 * phi_norms**2))
        else:
            b1 = float(np.max(np.tanh(t_hi) * phi_norms))
            b2 = float(np.max(np.cosh(t_lo) ** -2.0 * phi_norms**2))
    return SupConstants(b1=b1, b2=b2, r=r_cert)
