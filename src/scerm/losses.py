"""Catalog of generalized self-concordant losses.

Each loss supplies per-sample value / gradient / Hessian together with the
certificate factor

    sc_factor(z, k) = sup over the certificate vectors g of z of |k . g|,

which bounds the directional third derivative by sc_factor * (Hessian
quadratic form). The certificate vectors are {0} for the square loss,
{3 Phi(x)} and {2 Phi(x)} for the two Huber variants, {y Phi(x)} for the
logistic loss and {2 Phi(x, y')} over the label set for the softmax GLM.

A ``SampleSet`` holds a support as stacked feature and label arrays, so that
population sums and empirical risks are single BLAS calls. It keeps every
loss's feature rows (the GLM's (atom, label) rows) once up to sign: scalar
sums and ``certificate_rows``, the one stack ``seminorm`` reads, run over
them, and every weighted Hessian is one SYRK product. Scalar rows with one
nonzero coordinate each, no two on the same one (``SampleSet.axis_rows``, as
both generators build), take gathers and scatters in place of the margin,
gradient and moment products and of a single Hessian's SYRK, with the same
bits. ``Sample`` is one observation, the input of the per-sample
operations, which stay an independent oracle for the stacked sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    # C order, so that each row's bytes are one contiguous run (_row_keys)
    feats = np.asarray(features, dtype=float, order="C")
    labels = np.asarray(labels, dtype=float)
    if feats.ndim not in (2, 3) or feats.shape[-1] < 1:
        raise ContractViolation(
            f"features must stack (d,) or (n_labels, d) rows, got shape {feats.shape}")
    if feats.shape[0] == 0:
        raise ContractViolation("empty sample list")
    if labels.shape != feats.shape[:1]:
        raise ContractViolation(f"labels have shape {labels.shape}, expected ({feats.shape[0]},)")
    if not np.isfinite(feats).all():
        raise DomainError("features contain non-finite entries")
    if not np.isfinite(labels).all():
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


def _check_theta(theta: np.ndarray, d: int, stack: int | None = None) -> np.ndarray:
    """theta as a finite float array of shape (d,), or (stack, d) for a stack
    of parameters, one per row."""
    theta = np.asarray(theta, dtype=float)
    shape = (d,) if stack is None else (stack, d)
    if theta.shape != shape:
        raise ContractViolation(f"parameter has shape {theta.shape}, expected {shape}")
    if not np.isfinite(theta).all():
        raise DomainError("parameter contains non-finite entries")
    return theta


class LossModel:
    """Base class; concrete losses define the scalar link or the GLM sums."""

    kind: str = ""
    is_glm: bool = False
    # certificate set {sc_coef * feature row}; 0 is a quadratic loss
    sc_coef: float = 0.0

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


def _sigmoid(x):
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|), which cannot overflow
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


class LogisticLoss(_ScalarLoss):
    """l = log(1 + e^{-y u}) with labels y in {-1, +1}."""

    kind = "logistic"
    sc_coef = 1.0

    def _check_labels(self, feats, labels):
        bad = np.abs(labels) != 1.0
        if bad.any():
            raise ContractViolation(f"logistic label must be +1 or -1, got {labels[bad][0]}")

    def _f(self, u, y):
        return np.logaddexp(0.0, -y * np.asarray(u, dtype=float))

    def _fp(self, u, y):
        return -y * _sigmoid(-y * np.asarray(u, dtype=float))

    def _fpp(self, u, y):
        # sigma(m) sigma(-m) = e / (1 + e)^2 with e = exp(-|m|), which cannot overflow
        e = np.exp(-np.abs(y * np.asarray(u, dtype=float)))
        return e / (1.0 + e) ** 2


class SoftmaxGLMLoss(LossModel):
    """Negative conditional log-likelihood of a softmax model over a finite
    label set with a priori measure mu:

        l = -theta . Phi(x, y) + log sum_{y'} mu(y') exp(theta . Phi(x, y'))

    evaluated through a max-shifted log-sum-exp. Certificate set
    {2 Phi(x, y') : y' in labels}.
    """

    kind = "softmax_glm"
    is_glm = True
    sc_coef = 2.0

    def __init__(self, base_measure):
        mu = np.asarray(base_measure, dtype=float)
        if mu.ndim != 1 or mu.size < 2:
            raise ContractViolation("base_measure must be a vector of >= 2 weights")
        if not np.isfinite(mu).all() or (mu <= 0).any():
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

    def _probs_logz(self, feats, theta):
        # scores log mu(y') + theta . Phi(x, y'), shape (n_labels,)
        s = feats @ theta + np.log(self.base_measure)
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

# rows keyed together: a wide support's keys and negated rows are made one
# block at a time, which keeps the build's transient memory small
_KEY_BLOCK = 64


def _row_keys(a) -> list:
    """The bytes of each row of the C-contiguous 2-D array a."""
    return a.view(f"V{a.shape[1] * a.itemsize}").ravel().tolist()


def _distinct_rows(feats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of feats up to sign, in first-occurrence order and read-only
    (feats itself when no row repeats), each feats row's index into them and
    its sign (m,) of +-1.

    A row joins an earlier kept row x when it is bit-equal to x (sign +1) or
    to 0.0 - x (sign -1): the negation that writes every zero as +0.0, as a
    generator writes the point -x. Rows that differ only in the sign of a
    zero entry stay apart unless one of them is 0.0 - the other, which
    happens only for zero rows: an all-+0.0 row joins an earlier zero row
    holding a -0.0 with sign -1, while the reverse order keeps them apart.
    Either way such rows add nothing to a sum. rows[row_of] * row_sign
    equals feats entry for entry (up to the sign of a zero).
    """
    index: dict[bytes, int] = {}
    first, codes = [], []
    for lo in range(0, len(feats), _KEY_BLOCK):
        block = feats[lo:lo + _KEY_BLOCK]
        for i, (key, negated) in enumerate(zip(_row_keys(block), _row_keys(0.0 - block)), lo):
            code = index.get(key)
            if code is None:
                # a kept row's code is its index j; rows equal to its negation get ~j
                code = index[key] = len(first)
                index.setdefault(negated, ~code)
                first.append(i)
            codes.append(code)
    m = len(feats)
    if len(first) == m:
        rows, row_of, row_sign = feats, np.arange(m), np.ones(m)
    else:
        codes = np.array(codes, dtype=np.intp)
        flipped = codes < 0
        rows = feats[first]
        row_of, row_sign = np.where(flipped, ~codes, codes), np.where(flipped, -1.0, 1.0)
    for a in (rows, row_of, row_sign):
        a.setflags(write=False)
    return rows, row_of, row_sign


class SampleSet:
    """Immutable support of one loss as stacked arrays, with vectorized sums.

    Scalar losses take features X (m, d) and labels y (m,); the softmax GLM
    takes features (m, n_labels, d) and label indices (m,). Both are checked
    once, through ``loss.check_support``. Weighted risks, gradients and
    Hessians over the stack are exact finite sums.

    Every loss keeps its feature rows up to sign once, ``rows`` (k, d), with
    each feature row's index ``row_of`` and sign ``row_sign`` of +-1, so that
    feature row i is row_sign[i] * rows[row_of[i]]. The feature rows are the
    m scalar atoms, or the GLM's m * n_labels (atom, label) rows, atom-major.
    A row merges only with a bit-equal row or with its negation 0.0 - x, so
    merging regroups the exact sums and changes nothing but rounding.
    ``certificate_rows`` and ``row_sqnorms`` (computed on first use) are read
    off the rows.

    A scalar loss's atoms that differ only in their label share a row, and so
    do the points x and -x. Margins and gradient and Hessian sums are computed
    once per row, with the atoms' signed (gradient) or plain (Hessian)
    coefficients summed first; ``row_sqnorms`` gives each atom's gradient norm
    |f'| ||x|| and Hessian trace f'' ||x||^2, and ``grad_moments`` sums
    w f'^2 per row. So no scalar sum builds the (m, d) gradient matrix
    ``grads``, which the GLM's gradient sums read. Every weighted Hessian is
    one SYRK product (``weighted_hess``). On ``axis_rows`` (one scan of the
    rows, on first use), each row one nonzero coordinate and no two rows on
    the same one, a scalar loss's margins are a gather of theta's entries,
    ``combine_rows`` (the weighted gradient's coefs @ rows) is a scatter, a
    single weighted Hessian is its diagonal and ``grad_moments`` projects by
    a gather: O(k) work in place of O(kd) or O(kd^2), to the same bits up to
    the sign of an exact zero. A scalar loss also gives its
    weighted gradient and Hessian as per-row coefficients (``grad_coefs``,
    ``hess_coefs``), which are what a square-loss solve over at most d rows
    reads in place of a (d, d) Hessian (``solver.newton_minimize``), with
    ``row_sqnorms`` when ``rows_orthogonal`` (one scan of the rows) says that
    its system is diagonal, and otherwise with the rows' (k, k) Gram matrix
    ``row_gram`` (computed on first use, as big as one Hessian when k = d).

    The weighted sums also take a batch: (R, m) weights with an (R, d) stack
    of parameters, one replicate per row, give ``grad_coefs`` and
    ``hess_coefs`` of shape (R, k), ``weighted_grad`` of shape (R, d) and
    ``weighted_hess`` as an (R, d, d) stack; ``values`` and ``seminorm`` take
    an (R, d) stack alone. A scalar loss computes a batch's margins as one
    product Theta rows^T (one gather on axis rows) and its per-row
    coefficients as one ``bincount``, which adds each replicate's atoms in
    the same order as a single replicate's sums, and forms a batch's
    Hessians in one stacked product, on axis rows too.
    The GLM runs its sums replicate by replicate.
    """

    def __init__(self, loss: LossModel, features, labels):
        self.loss = loss
        self.features, self.labels = loss.check_support(features, labels)
        self.dim = self.features.shape[-1]
        self.rows, self.row_of, self.row_sign = _distinct_rows(
            self.features.reshape(-1, self.dim))

    def __len__(self):
        return self.features.shape[0]

    # -- scalar-loss internals
    def _margins(self, theta):
        """Per-sample margins, (m,) for a parameter (d,) or (R, m) for a stack
        (R, d): one product Theta rows^T, whatever R, or a gather of theta's
        entries on ``axis_rows``."""
        axis = self.axis_rows
        if axis is not None:
            per_row = theta[..., axis[0]] * axis[1]
        else:
            per_row = self.rows @ theta if theta.ndim == 1 else theta @ self.rows.T
        return per_row[..., self.row_of] * self.row_sign

    def _row_sums(self, values) -> np.ndarray:
        """Sums of per-sample values (m,) or (R, m) over each row's atoms,
        shape (k,) or (R, k). A stack takes one ``bincount`` over per-replicate
        bins, so each replicate's atoms are added in the same order as alone."""
        if values.ndim == 1:
            return np.bincount(self.row_of, values)
        if len(values) == 1:  # one replicate's bins are the rows themselves
            return np.bincount(self.row_of, values[0])[None]
        count, k = values.shape[0], len(self.rows)
        bins = self.row_of + k * np.arange(count)[:, None]
        return np.bincount(bins.ravel(), values.ravel(), minlength=count * k).reshape(count, k)

    def _point(self, weights, theta) -> np.ndarray:
        """theta checked against the weights: (d,) for weights (m,), and
        (R, d) for a stack of R weight rows."""
        return _check_theta(theta, self.dim, len(weights) if np.ndim(weights) == 2 else None)

    def _each(self, method, weights, theta) -> np.ndarray:
        """The GLM's batched sums: ``method`` of each replicate's weights and
        parameter, stacked."""
        return np.array([method(w, t) for w, t in zip(weights, self._point(weights, theta))])

    def values(self, theta) -> np.ndarray:
        """Per-sample loss values, shape (m,), or (R, m) for a stack of
        parameters (R, d)."""
        theta = _check_theta(theta, self.dim, len(theta) if np.ndim(theta) == 2 else None)
        loss = self.loss
        if loss.is_glm and theta.ndim == 2:
            return np.array([self.values(t) for t in theta])
        if not loss.is_glm:
            return np.asarray(loss._f(self._margins(theta), self.labels), dtype=float)
        _, logz = self._glm_softmax(theta)
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
        _, centered = self._glm_centered(theta)
        return -centered[np.arange(len(self)), self.labels]

    def _glm_softmax(self, theta):
        """Label probabilities (m, n_labels) and log-partition (m,) of the GLM
        through a max-shifted log-sum-exp."""
        s = self.features @ theta + np.log(self.loss.base_measure)[None, :]
        smax = s.max(axis=1, keepdims=True)
        es = np.exp(s - smax)
        zsum = es.sum(axis=1, keepdims=True)
        return es / zsum, (smax + np.log(zsum))[:, 0]

    def _glm_centered(self, theta):
        """Label probabilities p (m, n_labels) and the centered label rows
        Phi(x, y') - E_p Phi(x, .), shape (m, n_labels, d)."""
        p, _ = self._glm_softmax(theta)
        means = np.einsum("ml,mld->md", p, self.features)
        return p, self.features - means[:, None, :]

    def weighted_value(self, weights, theta) -> float:
        return float(weights @ self.values(theta))

    def weighted_grad(self, weights, theta) -> np.ndarray:
        """Weighted gradient sum, shape (d,), or (R, d) for a batch."""
        if not self.loss.is_glm:
            return self.combine_rows(self.grad_coefs(weights, theta))
        if np.ndim(weights) == 2:
            return self._each(self.weighted_grad, weights, theta)
        return weights @ self.grads(theta)

    def combine_rows(self, coefs) -> np.ndarray:
        """coefs @ rows, shape (d,) for coefficients (k,) or (R, d) for
        (R, k): one product, or on ``axis_rows`` a scatter of coefs * vals
        into zeros."""
        axis = self.axis_rows
        if axis is None:
            return coefs @ self.rows
        out = np.zeros(coefs.shape[:-1] + (self.dim,))
        out[..., axis[0]] = coefs * axis[1]
        return out

    def grad_coefs(self, weights, theta) -> np.ndarray:
        """A scalar loss's weighted gradient as per-row coefficients, shape
        (k,) or (R, k) for a batch: the sums of w f' times the atoms' signs
        over each row, so that the weighted gradient is grad_coefs @ rows."""
        theta = self._point(weights, theta)
        fp = np.asarray(self.loss._fp(self._margins(theta), self.labels), dtype=float)
        return self._row_sums(weights * fp * self.row_sign)

    def hess_coefs(self, weights, theta) -> np.ndarray:
        """A scalar loss's weighted Hessian as per-row coefficients, shape
        (k,) or (R, k) for a batch: the sums of w f'' over each row, so that
        the weighted Hessian is rows^T diag(hess_coefs) rows."""
        theta = self._point(weights, theta)
        fpp = np.asarray(self.loss._fpp(self._margins(theta), self.labels), dtype=float)
        return self._row_sums(weights * fpp)

    def weighted_hess(self, weights, theta) -> np.ndarray:
        """Weighted sum of the per-sample Hessians, shape (d, d), or an
        (R, d, d) stack for a batch.

        One SYRK product a^T a, exactly symmetric: a holds rows scaled by the
        square roots of their coefficients, a scalar loss's ``rows`` with
        their summed w f'', or the GLM's centered rows Phi(x, y') - E_p Phi(x, .)
        with w p(y'), whose sum is each atom's covariance of Phi under p.
        Weights must be finite and nonnegative: every loss is convex, so the
        coefficients are too. A row of coefficient 0 adds exactly 0 and is
        left out, so a draw's counts / n weights cost only the rows it drew.
        A scalar loss's single Hessian on ``axis_rows`` is the SYRK's
        diagonal, each entry the square of its one row's scaled value.
        """
        weights = np.asarray(weights, dtype=float)
        if not np.isfinite(weights).all() or (weights < 0).any():
            raise ContractViolation("Hessian weights must be finite and nonnegative")
        if not self.loss.is_glm:
            coef, rows = self.hess_coefs(weights, theta), self.rows
            if coef.ndim == 2:
                # one stacked product over every row: numpy runs it as a SYRK
                # per replicate, without the gather of the rows each one kept
                a = rows * np.sqrt(coef)[:, :, None]
                return np.matmul(a.transpose(0, 2, 1), a)
            if self.axis_rows is not None:
                # the SYRK's one nonzero term per entry: it squares rows * sqrt(coef)
                cols, vals = self.axis_rows
                h = np.zeros((self.dim, self.dim))
                h[cols, cols] = (vals * np.sqrt(coef)) ** 2
                return h
        elif weights.ndim == 2:
            return self._each(self.weighted_hess, weights, theta)
        else:
            p, centered = self._glm_centered(_check_theta(theta, self.dim))
            coef, rows = (weights[:, None] * p).ravel(), centered.reshape(-1, self.dim)
        kept = coef.nonzero()[0]
        if kept.size < len(rows):
            # take already copies the kept rows, so scale that copy in place
            a = rows.take(kept, axis=0)
            a *= np.sqrt(coef.take(kept))[:, None]
        else:
            a = rows * np.sqrt(coef)[:, None]
        return a.T @ a

    def trace_hess(self, theta) -> np.ndarray:
        """Per-sample Tr(hessian), shape (m,)."""
        loss = self.loss
        theta = _check_theta(theta, self.dim)
        if not loss.is_glm:
            fpp = np.asarray(loss._fpp(self._margins(theta), self.labels), dtype=float)
            return fpp * self.row_sqnorms[self.row_of]
        p, centered = self._glm_centered(theta)
        return np.einsum("ml,ml->m", p, np.einsum("mld,mld->ml", centered, centered))

    def grad_norms(self, theta) -> np.ndarray:
        """Per-sample gradient norms, shape (m,)."""
        loss = self.loss
        theta = _check_theta(theta, self.dim)
        if not loss.is_glm:
            fp = np.asarray(loss._fp(self._margins(theta), self.labels), dtype=float)
            return np.abs(fp) * np.sqrt(self.row_sqnorms)[self.row_of]
        return np.linalg.norm(self.grads(theta), axis=1)

    def grad_moments(self, weights, theta, basis) -> np.ndarray:
        """Weighted second moments sum_i w_i (b . grad l_i(theta))^2 along each
        column b of basis (d, k), shape (k,)."""
        loss = self.loss
        theta = _check_theta(theta, self.dim)
        if not loss.is_glm:
            fp = np.asarray(loss._fp(self._margins(theta), self.labels), dtype=float)
            axis = self.axis_rows
            # on axis rows, row i projects to vals_i basis[cols_i]; squared, bit
            # for bit the product's
            projected = self.rows @ basis if axis is None else axis[1][:, None] * basis[axis[0]]
            return np.bincount(self.row_of, weights * fp * fp) @ projected ** 2
        return weights @ (self.grads(theta) @ basis) ** 2

    @cached_property
    def row_sqnorms(self) -> np.ndarray:
        """Squared norms of ``rows``, shape (k,), read-only."""
        return _readonly(np.einsum("kd,kd->k", self.rows, self.rows))

    @cached_property
    def row_gram(self) -> np.ndarray:
        """The Gram matrix rows rows^T of the rows, shape (k, k), read-only,
        built on first use: a square-loss solve over at most d rows that are
        not ``rows_orthogonal`` reads it in place of a (d, d) Hessian
        (``solver.newton_minimize``)."""
        gram = self.rows @ self.rows.T
        gram.setflags(write=False)
        return gram

    @cached_property
    def axis_rows(self) -> tuple | None:
        """A scalar loss's rows as (cols, vals), each row's one nonzero
        coordinate and its value, read-only, when every row has exactly one
        nonzero entry and no two rows share a column (so k <= d); None
        otherwise, and always for the GLM. Read from one scan of ``rows`` on
        first use; k > d answers None without one.

        When set, every product with the rows has at most one nonzero term
        per output entry, so the margins and the weighted gradient are a
        gather and a scatter, a single weighted Hessian is diagonal, and
        ``grad_moments`` projects by a gather: bit for bit the products'
        results, up to the sign of an exact zero, for finite parameters and
        weights. Both generators' rows have it."""
        rows = self.rows
        if self.loss.is_glm or len(rows) > self.dim:
            return None
        nonzero = rows != 0.0
        if (np.count_nonzero(nonzero, axis=1) != 1).any():
            return None
        cols = nonzero.argmax(axis=1)
        if np.bincount(cols).max() > 1:
            return None
        return _readonly(cols), _readonly(rows[np.arange(len(rows)), cols])

    @cached_property
    def rows_orthogonal(self) -> bool:
        """True when no two rows share a nonzero coordinate, read from one
        O(kd) scan of ``rows`` on first use. Such rows are orthogonal with
        a Gram matrix that is exactly diagonal, ``row_sqnorms``, so every
        square-loss row-span system is (``solver.newton_minimize``).
        Axis-aligned rows have it; dense rows, even mutually orthogonal ones
        such as a Hadamard design's, do not."""
        return bool(np.count_nonzero(self.rows, axis=0).max(initial=0) <= 1)

    @property
    def quadratic(self) -> bool:
        """True when the certificate set is {0} (square loss): the third
        derivative vanishes, so the Hessian is the same at every theta."""
        return self.loss.sc_coef == 0.0

    @cached_property
    def certificate_rows(self) -> np.ndarray:
        """The certificate vectors sc_coef * rows, one per feature row up to
        sign, stacked row-wise and read-only, built once (shape (0, d) for the
        square loss); every stacked sup over the certificate set reads this
        one stack."""
        if self.quadratic:
            return _readonly(np.zeros((0, self.dim)))
        return _readonly(self.loss.sc_coef * self.rows)

    def seminorm(self, k):
        """sup over every certificate vector g of |g . k|; 0 when there is
        none. A stack of directions (R, d) gives their R seminorms."""
        k = _check_theta(k, self.dim, len(k) if np.ndim(k) == 2 else None)
        if k.ndim == 1:
            return float(np.max(np.abs(self.certificate_rows @ k), initial=0.0))
        return np.max(np.abs(k @ self.certificate_rows.T), axis=1, initial=0.0)


# -- sup constants over a parameter ball ---------------------------------------

@dataclass(frozen=True)
class SupConstants:
    """Bounds B1 >= sup ||grad||, B2 >= sup Tr(hess) over the ball."""

    b1: float
    b2: float


def sup_constants(sset: SampleSet, radius: float) -> SupConstants:
    """Derivative bounds over {||theta|| <= radius} for the atoms of ``sset``.

    All bounds are closed forms. The square and Huber losses read their own
    derivatives at the ends of the residual's exact range over the ball; the
    logistic loss uses its global Lipschitz and curvature bounds sup||Phi||
    and sup||Phi||^2/4.
    The softmax GLM gradient is a probability mixture of Phi(x,y') - Phi(x,y)
    and its Hessian trace is at most the mixture's E||Phi(x,y')||^2, so
    B1 = max ||Phi(x,y') - Phi(x,y)|| and B2 = max ||Phi(x,y')||^2 over atoms
    and labels y'. The logistic and softmax bounds hold for every radius.
    """
    if not radius >= 0:
        raise ContractViolation("radius must be nonnegative")
    loss = sset.loss
    if loss.is_glm:
        feats = sset.features
        observed = feats[np.arange(len(sset)), sset.labels]
        b1 = float(np.max(np.linalg.norm(feats - observed[:, None, :], axis=2)))
        return SupConstants(b1=b1, b2=float(np.max(sset.row_sqnorms)))

    phi_norms = np.sqrt(sset.row_sqnorms)[sset.row_of]
    if isinstance(loss, LogisticLoss):
        return SupConstants(b1=float(np.max(phi_norms)), b2=float(np.max(phi_norms**2)) / 4.0)
    # square and Huber losses: over the ball the residual t = y - u keeps |t|
    # in [t_lo, t_hi], and _fp(0, t), _fpp(0, t) are -psi'(t), psi''(t). The
    # sups sit at these ends because |psi'| is nondecreasing and psi''
    # nonincreasing in |t|, which any loss that reaches this branch must keep.
    t_hi = np.abs(sset.labels) + radius * phi_norms
    t_lo = np.maximum(np.abs(sset.labels) - radius * phi_norms, 0.0)
    b1 = float(np.max(np.abs(loss._fp(0.0, t_hi)) * phi_norms))
    b2 = float(np.max(loss._fpp(0.0, t_lo) * phi_norms**2))
    return SupConstants(b1=b1, b2=b2)
