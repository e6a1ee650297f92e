import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from scerm import ContractViolation, NonConvergenceError, SampleSet, SquareLoss
from scerm.linalg import chol_factor, chol_solve, eigh, eigmin, gen_eigmax, inv_quad_rows
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
