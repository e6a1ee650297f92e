import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from scerm import ContractViolation, NonConvergenceError, SampleSet, SquareLoss
from scerm import linalg
from scerm.linalg import (chol_factor, chol_solve, diag_chol_factor, eigh, eigmin, gen_eigmax,
                         inv_quad_rows)
from scerm.solver import newton_minimize


def spd(rng, d, shift):
    x = rng.standard_normal((d + 3, d))
    return x.T @ x / d + shift * np.eye(d)


@pytest.mark.parametrize("d", [1, 2, 16, 256])
def test_lapack_calls_equal_scipy_linalg_bit_for_bit(d):
    rng = np.random.default_rng(d)
    a, b = spd(rng, d, 1e-3), spd(rng, d, 1e-2)
    vec, rows = rng.standard_normal(d), rng.standard_normal((5, d))
    ref = scipy.linalg.cho_factor(a, lower=True)
    factor = chol_factor(a)
    assert np.array_equal(factor, ref[0])
    assert np.array_equal(chol_solve(factor, vec), scipy.linalg.cho_solve(ref, vec))
    assert np.array_equal(chol_solve(factor, rows.T), scipy.linalg.cho_solve(ref, rows.T))
    quad = np.einsum("ij,ji->i", rows, scipy.linalg.cho_solve(ref, rows.T))
    assert np.array_equal(inv_quad_rows(factor, rows), np.maximum(quad, 0.0))
    assert gen_eigmax(a, b) == scipy.linalg.eigh(a, b, eigvals_only=True)[-1]
    assert eigmin(a) == scipy.linalg.eigvalsh(a)[0]


@pytest.mark.parametrize("d", [1, 2, 16, 256])
def test_eigh_matches_numpy(d):
    rng = np.random.default_rng(100 + d)
    a = spd(rng, d, 1e-3)
    vals, vecs = eigh(a)
    ref_vals, _ = np.linalg.eigh(a)
    scale = np.abs(ref_vals).max()
    np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(d), rtol=0, atol=1e-12)
    np.testing.assert_allclose((vecs * vals) @ vecs.T, a, rtol=0, atol=1e-12 * scale)


def tie_free_diagonal(rng, d):
    """d distinct entries over ten decades of either sign, one of them 0."""
    diag = rng.standard_normal(d) * 10.0 ** rng.integers(-5, 5, d)
    diag[rng.integers(d)] = 0.0
    assert len(np.unique(diag)) == d
    return diag


def lapack_barred(monkeypatch):
    """Make any call of dsyevr through linalg._syevr fail the test."""
    def barred(*args):
        raise AssertionError("dsyevr was called")
    monkeypatch.setattr(linalg, "_syevr", barred)


@pytest.mark.parametrize("d", [1, 3, 16, 256])
def test_diagonal_eigh_equals_dsyevr_bit_for_bit(d, monkeypatch):
    a = np.diag(tie_free_diagonal(np.random.default_rng(200 + d), d))
    ref_vals, ref_vecs = linalg._syevr(a, 1)
    lapack_barred(monkeypatch)
    vals, vecs = eigh(a)
    assert vals.tobytes() == ref_vals.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()


def test_two_by_two_diagonal_eigh_is_exact(monkeypatch):
    # dsyevr solves a 2 x 2 in closed form: its eigenvalues can be up to 2
    # ulp off and its vectors carry signs, while the diagonal path returns
    # the diagonal itself
    a = np.diag([0.01320603, -0.08199186])
    ref_vals, ref_vecs = linalg._syevr(a, 1)
    lapack_barred(monkeypatch)
    vals, vecs = eigh(a)
    assert vals.tolist() == [-0.08199186, 0.01320603]
    np.testing.assert_array_max_ulp(vals, ref_vals, maxulp=2)
    assert np.array_equal(np.abs(ref_vecs), vecs)


def test_tied_diagonal_eigh_keeps_ascending_index_order(monkeypatch):
    lapack_barred(monkeypatch)
    diag = np.array([2.0, 1.0, 2.0, 0.0, 1.0, 2.0, -0.0])
    a = np.diag(diag)
    vals, vecs = eigh(a)
    assert vals.tolist() == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    # each column is the identity column of its entry, ties in index order
    assert np.argmax(vecs, axis=0).tolist() == [3, 6, 1, 4, 0, 2, 5]
    assert np.array_equal(np.abs(vecs), vecs)
    assert np.array_equal(a @ vecs, vecs * vals)
    assert np.array_equal(vecs.T @ vecs, np.eye(len(diag)))


def test_eigh_of_a_nondiagonal_or_nonfinite_matrix_calls_dsyevr(monkeypatch):
    calls, syevr = [], linalg._syevr

    def recorded(a, compute_v):
        calls.append(a)
        return syevr(a, compute_v)

    monkeypatch.setattr(linalg, "_syevr", recorded)
    # one off-diagonal pair of 1e-300 is not diagonal
    a = np.diag([3.0, 1.0, 2.0])
    a[0, 2] = a[2, 0] = 1e-300
    assert eigh(a)[0].tobytes() == syevr(a, 1)[0].tobytes()
    # an infinite diagonal is handed on too, and rejected before dsyevr
    a = np.diag([3.0, np.inf, 2.0])
    with pytest.raises(ContractViolation, match="finite matrix"):
        eigh(a)
    assert len(calls) == 2
    # a NaN diagonal is handed on too (to a stub here; the next test shows
    # that it is rejected before dsyevr, which does not return on it)
    monkeypatch.setattr(linalg, "_syevr", lambda a, compute_v: calls.append(a) or "dsyevr")
    assert eigh(np.diag([3.0, np.nan, 2.0])) == "dsyevr"
    assert len(calls) == 3


@pytest.mark.parametrize("a", [
    np.diag([1.0, np.nan, 2.0]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[np.inf, 0.5], [0.5, 1.0]]),
], ids=["nan-diagonal", "nan-off-diagonal", "inf-entry"])
def test_eigensolves_reject_a_non_finite_matrix_before_dsyevr(a, monkeypatch):
    # dsyevr does not return on a NaN entry, so the stub fails the test
    # instead of hanging it if the routine is ever reached
    def unreachable(*args, **kwargs):
        raise AssertionError("dsyevr was called on a non-finite matrix")

    monkeypatch.setattr(linalg._LAPACK, "dsyevr", unreachable)
    for solve in (eigmin, eigh):
        with pytest.raises(ContractViolation, match="finite matrix"):
            solve(a)


@pytest.mark.parametrize("d", [1, 2, 16, 256])
def test_diag_chol_factor_equals_dpotrf_bit_for_bit(d):
    diag = np.random.default_rng(300 + d).uniform(1e-6, 1e6, d)
    root, ref = diag_chol_factor(diag), np.diagonal(chol_factor(np.diag(diag)))
    # the factor's diagonal alone, as a (d,) vector
    assert root.shape == (d,)
    assert root.tobytes() == ref.tobytes()


@pytest.mark.parametrize("diag", [[1.0, 0.0, 2.0], [1.0, -1.0, -2.0], [-0.0], [2.0, -np.inf],
                                  [1.0, np.inf], [np.inf, -1.0]])
def test_diag_chol_factor_raises_what_chol_factor_raises(diag):
    with pytest.raises(ContractViolation) as ref:
        chol_factor(np.diag(diag))
    with pytest.raises(ContractViolation) as err:
        diag_chol_factor(np.array(diag))
    assert str(err.value) == str(ref.value)


def test_diag_chol_factor_reports_a_nan_entry_as_a_leading_minor():
    # reference LAPACK's dpotrf stops at a NaN pivot; the bundled OpenBLAS
    # passes it on, and chol_factor reports the NaN factor diagonal instead
    with pytest.raises(ContractViolation, match="2-th leading minor"):
        diag_chol_factor(np.array([1.0, np.nan, -1.0]))


INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])


def test_not_positive_definite_raises_contract_violation():
    with pytest.raises(ContractViolation, match="2-th leading minor"):
        chol_factor(INDEFINITE)
    # dpotrf factors an infinite diagonal entry with info 0
    with pytest.raises(ContractViolation, match="non-finite diagonal"):
        chol_factor(np.array([[np.inf]]))
    with pytest.raises(ContractViolation, match="leading minor of order 2 of B"):
        gen_eigmax(np.eye(2), INDEFINITE)


def test_solver_turns_a_singular_hessian_into_non_convergence():
    # both atoms lie on the first axis, so H(theta) is singular at lambda = 0
    sset = SampleSet(SquareLoss(), [[1.0, 0.0], [2.0, 0.0]], [0.0, 1.0])
    with pytest.raises(NonConvergenceError, match="not positive definite"):
        newton_minimize(sset, [0.5, 0.5], 0.0)


def test_missing_lapack_module_is_an_import_error_naming_the_path(tmp_path):
    # a scipy package without its compiled LAPACK module, first on the path
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    path = os.pathsep.join([str(tmp_path), *sys.path])
    proc = subprocess.run([sys.executable, "-c", "import scerm.linalg"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        f"ImportError: scipy's LAPACK module _flapack is not in {tmp_path / 'scipy' / 'linalg'}")
