import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from lpd import linalg
from lpd.errors import DimensionMismatch, NotPositiveDefinite
from lpd.linalg import (
    cholesky_solve,
    pseudo_inverse,
    spd_factor,
    spd_inverse,
    spd_solve,
    sym_eigen,
)

from oracles import determinant, gauss_solve


class TestCholeskySolve:
    def test_identity(self):
        assert_allclose(cholesky_solve(np.eye(2), [3.0, -1.0]), [3.0, -1.0])

    def test_diagonal(self):
        assert_allclose(cholesky_solve([[4.0, 0.0], [0.0, 9.0]], [8.0, 27.0]), [2.0, 3.0])

    def test_random_spd_against_elimination_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            a = m.T @ m + np.eye(6)
            b = rng.standard_normal(6)
            x = cholesky_solve(a, b)
            assert np.abs(a @ x - b).max() <= 1e-8 * (1 + np.abs(b).max())
            assert_allclose(x, gauss_solve(a, b), rtol=1e-9, atol=1e-11)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_solve([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cholesky_solve(np.eye(3), [1.0, 2.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky_solve([[1.0, 0.5], [0.0, 1.0]], [1.0, 1.0])


class TestSpdFactorSolve:
    """spd_factor/spd_solve call LAPACK directly; they must agree with scipy's
    cho_factor/cho_solve, which reach the same routines, bit for bit."""

    @pytest.mark.parametrize("p", [1, 7, 100])
    def test_bit_identical_to_scipy(self, p):
        rng = np.random.default_rng(p)
        m = rng.standard_normal((p, p))
        a = m @ m.T / p + np.eye(p)
        original = a.copy()
        factor = spd_factor(a)
        reference = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
        assert_array_equal(a, original)
        assert factor[1] is True and reference[1] is True
        assert_array_equal(factor[0], reference[0])
        for b in (rng.standard_normal(p), rng.standard_normal((p, 3))):
            x = spd_solve(factor, b)
            assert x.shape == b.shape
            assert_array_equal(x, scipy.linalg.cho_solve(reference, b, check_finite=False))

    @pytest.mark.parametrize("a, minor", [
        (np.diag([4.0, 1.0, -1.0, 2.0]), 3),
        (np.diag([-2.0, 1.0]), 1),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), 2),
    ])
    def test_not_positive_definite_names_leading_minor(self, a, minor):
        with pytest.raises(NotPositiveDefinite, match=f"^{minor}-th leading minor"):
            spd_factor(a)


class TestSymEigen:
    def test_diagonal_sorted_descending(self):
        w, _ = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(w, [3.0, 2.0, 1.0])

    def test_symmetry_forced_pair(self):
        w, _ = sym_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(w, [1.0, -1.0], atol=1e-12)

    def test_compound_symmetry_closed_form(self):
        """Equicorrelation: one eigenvalue 1 + (p-1) rho, the rest 1 - rho."""
        p, rho = 4, 0.5
        a = np.full((p, p), rho)
        np.fill_diagonal(a, 1.0)
        w, _ = sym_eigen(a)
        assert_allclose(w, [2.5, 0.5, 0.5, 0.5], atol=1e-12)
        # characteristic polynomial oracle: det(A - w I) = 0 at each eigenvalue
        for wi in (2.5, 0.5):
            assert abs(determinant(a - wi * np.eye(p))) < 1e-10

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(2, 9))
            a = rng.standard_normal((p, p))
            a = 0.5 * (a + a.T)
            w, v = sym_eigen(a)
            scale = max(np.abs(a).max(), 1.0)
            assert np.abs((v * w) @ v.T - a).max() <= 1e-8 * scale
            assert np.abs(v.T @ v - np.eye(p)).max() <= 1e-8
            assert np.all(np.diff(w) <= 1e-12)


class TestPseudoInverse:
    def test_invertible_matches_inverse(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((3, 3))
        a = m.T @ m + np.eye(3)
        pinv = pseudo_inverse(a)
        assert np.abs(a @ pinv - np.eye(3)).max() < 1e-8
        assert_allclose(pinv, spd_inverse(a), rtol=1e-6)

    def test_rank_one_projector_is_own_pseudo_inverse(self):
        v = np.array([1.0, 0.0])
        a = np.outer(v, v)
        assert_allclose(pseudo_inverse(a), a, atol=1e-12)

    def test_penrose_conditions_on_random_rank_deficient(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            basis = rng.standard_normal((4, 2))
            a = basis @ basis.T  # symmetric, rank 2
            ap = pseudo_inverse(a)
            tol = 1e-6 * max(np.abs(a).max(), 1.0)
            assert np.abs(a @ ap @ a - a).max() < tol
            assert np.abs(ap @ a @ ap - ap).max() < 1e-6 * max(np.abs(ap).max(), 1.0)
            assert np.abs((a @ ap).T - a @ ap).max() < tol
            assert np.abs((ap @ a).T - ap @ a).max() < tol

    def test_zero_matrix(self):
        assert_allclose(pseudo_inverse(np.zeros((3, 3))), np.zeros((3, 3)))


# Factor and solve with SciPy's LAPACK extension loaded directly, then again through
# the `scipy.linalg` fallback, in one fresh process.
_LOADERS = """
import sys
import numpy as np
from lpd import linalg

def results():
    rng = np.random.default_rng(0)
    out = []
    for p in (1, 3, 40, 130):
        m = rng.standard_normal((p, p))
        b = rng.standard_normal((p, 2))
        factor = linalg.spd_factor(m @ m.T + p * np.eye(p))
        out += [factor[0].tobytes(), linalg.spd_solve(factor, b).tobytes(),
                linalg.spd_solve(factor, b[:, 0]).tobytes(),
                linalg.lu_solve(linalg.lu_factor(m), b).tobytes()]
    return out

direct = results()
assert linalg._lapack().__name__ == "scipy.linalg._flapack"
assert "scipy.linalg" not in sys.modules

def unavailable():
    raise ImportError("forced")

linalg._lapack.cache_clear()
del sys.modules["scipy.linalg._flapack"]
linalg._load_flapack = unavailable
fallback = results()
assert linalg._lapack().__name__ == "scipy.linalg.lapack", linalg._lapack().__name__
assert fallback == direct
"""


class TestLapackLoader:
    def test_fallback_loader_gives_the_same_bits(self):
        env = dict(os.environ)
        src = str(Path(linalg.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _LOADERS], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr

    def test_a_loaded_copy_is_reused(self, monkeypatch):
        """Here `scipy.linalg` is loaded already; its extension module is the one used."""
        monkeypatch.setattr(linalg, "_load_flapack", None)  # would fail if called
        linalg._lapack.cache_clear()
        try:
            assert linalg._lapack() is sys.modules["scipy.linalg._flapack"]
            assert linalg._lapack().dpotrf is scipy.linalg.lapack.dpotrf
        finally:
            linalg._lapack.cache_clear()
