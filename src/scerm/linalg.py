"""Dense symmetric linear algebra helpers.

All quantities of the form ||v||_{A^{-1}} are computed through a Cholesky
solve rather than an explicit inverse square root; generalized eigenvalues go
through scipy's Cholesky-whitening reduction. Matrices here are small and
dense (d up to a few hundred), so BLAS runs on one thread per process
(``single_thread_blas``) and experiments parallelise over worker processes.
"""

import ctypes
import math
import os

import numpy as np
import scipy.linalg

from .errors import ContractViolation

# (file-name marker, set-threads symbol) of the OpenBLAS copies bundled with
# numpy and with scipy
_OPENBLAS = (
    ("libscipy_openblas64_", "scipy_openblas_set_num_threads64_"),
    ("libscipy_openblas-", "scipy_openblas_set_num_threads"),
)


def single_thread_blas() -> None:
    """Run every loaded OpenBLAS copy on one thread in this process.

    At the matrix sizes used here, two threads per copy oversubscribe a
    small machine and make a 256x256 Cholesky slower. Does nothing for a
    library or symbol that is not loaded.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            loaded = {line.split()[-1] for line in fh if ".so" in line}
    except OSError:
        return
    for marker, symbol in _OPENBLAS:
        for path in sorted(p for p in loaded if marker in os.path.basename(p)):
            try:
                set_threads = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


def chol_factor(a: np.ndarray):
    """Cholesky factorization of a symmetric positive definite matrix.

    Raises ContractViolation if the matrix is not numerically PD.
    """
    try:
        return scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ContractViolation(f"matrix is not positive definite: {exc}") from exc


def chol_solve(factor, b: np.ndarray) -> np.ndarray:
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def inv_norm(factor, v: np.ndarray) -> float:
    """||v||_{A^{-1}} = sqrt(v^T A^{-1} v) given a Cholesky factor of A, with
    the quadratic form clipped at 0."""
    return float(np.sqrt(max(np.dot(v, chol_solve(factor, v)), 0.0)))


def norm_a(a: np.ndarray, v: np.ndarray) -> float:
    """||v||_A = sqrt(v^T A v), with the quadratic form clipped at 0."""
    return float(np.sqrt(max(np.dot(v, a @ v), 0.0)))


def inv_quad_rows(factor, rows: np.ndarray) -> np.ndarray:
    """Row-wise quadratic forms g_i^T A^{-1} g_i for a stack of vectors."""
    if rows.size == 0:
        return np.zeros(0)
    sol = chol_solve(factor, rows.T)
    return np.maximum(np.einsum("ij,ji->i", rows, sol), 0.0)


def radius_from_factor(factor, rows: np.ndarray) -> float:
    """1 / max_i ||g_i||_{A^{-1}} over a stack of vectors g_i, given a Cholesky
    factor of A: the largest r such that ||v||_A <= r implies |g_i . v| <= 1
    for every i. inf when there are no rows or all are zero."""
    sup_sq = float(np.max(inv_quad_rows(factor, rows), initial=0.0))
    return math.inf if sup_sq == 0.0 else 1.0 / math.sqrt(sup_sq)


def gen_eigmax(a: np.ndarray, b: np.ndarray) -> float:
    """Largest generalized eigenvalue of (a, b), i.e. of B^{-1/2} A B^{-1/2}.

    b must be symmetric positive definite.
    """
    try:
        vals = scipy.linalg.eigh(a, b, eigvals_only=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ContractViolation(f"generalized eigenproblem failed: {exc}") from exc
    return float(vals[-1])


def eigmin(a: np.ndarray) -> float:
    return float(scipy.linalg.eigvalsh(a, check_finite=False)[0])


def add_ridge(a: np.ndarray, lam: float) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out[np.diag_indices_from(out)] += lam
    return out


def ball_point(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    """Uniform draw from the euclidean ball of the given radius."""
    x = rng.standard_normal(d)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        return np.zeros(d)
    return x / nrm * radius * rng.uniform() ** (1.0 / d)
