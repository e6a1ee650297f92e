"""Dense symmetric linear algebra helpers.

All quantities of the form ||v||_{A^{-1}} are computed through a Cholesky
solve rather than an explicit inverse square root. Matrices here are small and
dense (d up to a few hundred), so BLAS runs on one thread per process
(``single_thread_blas``) and experiments parallelise over worker processes.

The helpers call four LAPACK routines of scipy's compiled ``_flapack``
module, with the arguments scipy's own wrappers pass, so their results are
bit for bit those of ``scipy.linalg``:

    chol_factor       dpotrf                 (cho_factor, lower)
    diag_chol_factor  none: sqrt of a diagonal, dpotrf's diagonal bit for bit
    chol_solve        dpotrs                 (cho_solve)
    gen_eigmax        dsygvd                 (eigh(a, b, eigvals_only=True))
    eigmin            dsyevr, dsyevr_lwork   (eigvalsh)
    eigh              dsyevr with vectors    (eigh(a, driver="evr")); none
                      for an exactly diagonal matrix

``chol_solve_stack`` alone uses numpy's stacked ``cholesky`` and ``solve``
instead: it factors and solves a whole batch of small systems in two calls,
where one scipy call per matrix would cost more in call overhead than the
LAPACK work of a 16 x 16 system.

Each diagonal case is chosen by an exact property of the input: ``eigh``
checks that every off-diagonal entry is 0 (one scan, under 1% of a dense
dsyevr at d = 256), and the caller of ``diag_chol_factor`` knows its system
is diagonal (``SampleSet.rows_orthogonal``, rows on disjoint coordinates).
``chol_factor`` checks nothing extra: a scan of a dense 256 x 256 matrix
costs 15% of its dpotrf.

The module is loaded once, from its file, so that neither the ``scipy``
package nor ``scipy.linalg`` is imported. Importing ``scipy.linalg`` costs
more than half of a CLI run's set-up: its numpy compatibility layer touches
every lazy numpy submodule (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``),
while ``_flapack`` itself loads in a few milliseconds.
"""

import ctypes
import importlib.machinery
import importlib.util
import math
import os

import numpy as np

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


def _load_flapack():
    """scipy's compiled LAPACK module, loaded from its file without running
    any of scipy's Python code. It keeps its own name, so a later import of
    ``scipy.linalg`` reuses it."""
    spec = importlib.util.find_spec("scipy")
    dirs = [os.path.join(loc, "linalg") for loc in spec.submodule_search_locations] if spec else []
    for path in (os.path.join(d, "_flapack" + suffix)
                 for d in dirs for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module
    where = " or ".join(dirs) or "an installed scipy"
    raise ImportError(f"scipy's LAPACK module _flapack is not in {where}")


_LAPACK = _load_flapack()


def _check_legal(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info} of {routine}")


def chol_factor(a: np.ndarray) -> np.ndarray:
    """Cholesky factorization of a symmetric positive definite matrix: L in
    the lower triangle, a's own entries above it.

    Raises ContractViolation if the matrix is not numerically PD, which
    includes a factor with a non-finite diagonal: dpotrf factors a matrix
    with an infinite diagonal entry without complaint.
    """
    c, info = _LAPACK.dpotrf(a, lower=1, clean=0)
    _check_legal(info, "dpotrf")
    _check_factor(info, np.diagonal(c))
    return c


def diag_chol_factor(diag: np.ndarray) -> np.ndarray:
    """The diagonal of chol_factor of the diagonal matrix with this diagonal,
    without LAPACK or a (k, k) array: the square roots of its entries, shape
    (k,), which are dpotrf's bit for bit.

    Raises ContractViolation as chol_factor does: for the first entry that
    is not > 0 (NaN included), the leading minor dpotrf reports, and for an
    infinite square root.
    """
    positive = diag > 0.0
    info = 0 if positive.all() else int(np.argmin(positive)) + 1
    root = np.sqrt(diag, where=positive, out=np.zeros(len(diag)))
    _check_factor(info, root)
    return root


def _check_factor(info: int, diagonal: np.ndarray) -> None:
    """Raise unless dpotrf's info reports every leading minor positive
    definite and the factor's diagonal is finite."""
    if info > 0:
        raise ContractViolation("matrix is not positive definite: "
                                f"{info}-th leading minor of the array is not positive definite")
    if not np.isfinite(diagonal).all():
        raise ContractViolation("matrix is not positive definite: its factor has a "
                                "non-finite diagonal")


def chol_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^{-1} b for a vector or a stack of columns b, given chol_factor(A)."""
    x, info = _LAPACK.dpotrs(factor, b, lower=1)
    _check_legal(info, "dpotrs")
    return x


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
    vals, _, info = _LAPACK.dsygvd(a, b, itype=1, jobz="N", uplo="L")
    _check_legal(info, "dsygvd")
    n = len(vals)
    if info > n:
        raise ContractViolation(
            f"generalized eigenproblem failed: The leading minor of order {info - n} of B is not "
            "positive definite. The factorization of B could not be completed and no eigenvalues "
            "or eigenvectors were computed.")
    if info > 0:
        raise ContractViolation(
            f"generalized eigenproblem failed: The algorithm failed to converge; {info} "
            "off-diagonal elements of an intermediate tridiagonal form did not converge to zero.")
    return float(vals[-1])


def _syevr(a: np.ndarray, compute_v: int):
    """dsyevr's eigenvalues (and eigenvectors with compute_v) of a finite
    symmetric matrix. A NaN entry would keep dsyevr from returning, so a
    matrix with a non-finite entry raises ContractViolation before the call."""
    if not np.isfinite(a).all():
        raise ContractViolation("eigenvalue solve needs a finite matrix")
    work, iwork, info = _LAPACK.dsyevr_lwork(len(a), lower=1)
    _check_legal(info, "dsyevr_lwork")
    vals, vecs, _, _, info = _LAPACK.dsyevr(a, compute_v=compute_v, lower=1, lwork=int(work),
                                            liwork=iwork)
    _check_legal(info, "dsyevr")
    if info > 0:
        raise ContractViolation(f"eigenvalue solve failed: dsyevr reported internal error {info}")
    return vals, vecs


def eigmin(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(_syevr(a, 0)[0][0])


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric matrix in ascending order, and its
    orthonormal eigenvectors as the columns of a matrix.

    A diagonal matrix (every off-diagonal entry exactly 0, every diagonal
    entry finite) is answered in closed form without LAPACK: its diagonal
    sorted stably, so tied eigenvalues keep their columns in ascending index
    order, and the matching columns of the identity. Away from ties and from
    d = 2 this is dsyevr's result bit for bit (dsyevr orders tied vectors its
    own way, and at d = 2 solves a 2x2 in closed form with signed vectors and
    eigenvalues up to 2 ulp off). Any other matrix goes to dsyevr, which
    rejects a non-finite one (see ``_syevr``).
    """
    diag = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(diag) and np.isfinite(diag).all():
        order = np.argsort(diag, kind="stable")
        vecs = np.zeros((len(diag), len(diag)))
        vecs[order, np.arange(len(diag))] = 1.0
        return diag[order], vecs
    return _syevr(a, 1)


def chol_solve_stack(a: np.ndarray, b: np.ndarray) -> tuple:
    """Solve a[i] x[i] = b[i] for a stack of symmetric matrices a (R, d, d)
    and right sides b (R, d), each matrix certified positive definite by its
    Cholesky factor, through numpy's stacked LAPACK routines: one call
    factors the stack and one solves it, with no Python per matrix. numpy
    bundles its own LAPACK, so these results are not scipy.linalg's bit for
    bit, but each matrix's are the same whatever else the stack holds.

    Returns (factors, x, errors): the lower Cholesky factors (R, d, d), the
    solutions (R, d), and per matrix None or the ContractViolation that
    chol_factor raises on it, for a matrix numpy's factorization rejects or
    whose factor has a non-finite diagonal. A rejected matrix's factor and
    solution are zeros. A solution that is not finite is NaN.
    """
    errors = [None] * len(a)
    try:
        factors = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        factors = np.zeros(a.shape)
        for i, m in enumerate(a):
            try:
                factors[i] = np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                errors[i] = _chol_error(m)
    finite = np.isfinite(np.diagonal(factors, axis1=1, axis2=2)).all(axis=1)
    for i in np.flatnonzero(~finite):
        errors[i] = errors[i] or _chol_error(a[i])
        factors[i] = 0.0
    good = [i for i, err in enumerate(errors) if err is None]
    rows = slice(None) if len(good) == len(a) else good
    x = np.zeros(b.shape)
    try:
        x[rows] = np.linalg.solve(a[rows], b[rows][..., None])[..., 0]
    except np.linalg.LinAlgError:
        # an overflowing right side: numpy flags the stack, so solve one by one
        for i in good:
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                x[i] = math.nan
    return factors, x, errors


def _chol_error(a: np.ndarray) -> ContractViolation:
    """The ContractViolation chol_factor raises on a, or a plain one when
    only numpy's factorization rejected it."""
    try:
        chol_factor(a)
    except ContractViolation as exc:
        return exc
    return ContractViolation("matrix is not positive definite: numpy's Cholesky "
                             "factorization rejects it")


def add_ridge(a: np.ndarray, lam: float) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flat[::len(out) + 1] += lam
    return out


def ball_point(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    """Uniform draw from the euclidean ball of the given radius."""
    x = rng.standard_normal(d)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        return np.zeros(d)
    return x / nrm * radius * rng.uniform() ** (1.0 / d)
