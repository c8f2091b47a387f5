import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from lpd import linalg
from lpd.errors import NotPositiveDefinite
from lpd.linalg import (
    pseudo_inverse,
    spd_factor,
    spd_inverse,
    spd_solve,
    sym_eigen,
)

from oracles import determinant


class TestCheckSymmetric:
    def test_an_exactly_symmetric_matrix_is_kept_not_copied(self):
        m = np.random.default_rng(5).standard_normal((300, 40))
        a = m @ m.T
        assert linalg.check_symmetric(a) is a

    def test_asymmetry_within_tolerance_is_symmetrized(self):
        a = np.array([[2.0, 1.0, 0.0], [1.0 + 1e-13, 3.0, 0.5], [0.0, 0.5, 1.0]])
        sym = linalg.check_symmetric(a)
        assert sym is not a
        assert sym.tobytes() == (0.5 * (a + a.T)).tobytes()
        assert a[1, 0] == 1.0 + 1e-13  # the input is not written to

    def test_a_signed_zero_mismatch_is_symmetrized(self):
        a = np.array([[1.0, 0.0], [-0.0, 1.0]])
        sym = linalg.check_symmetric(a)
        assert sym is not a and not np.signbit(sym).any()

    @pytest.mark.parametrize("block_bytes", [32, 1 << 20])
    def test_asymmetry_beyond_tolerance_raises(self, monkeypatch, block_bytes):
        """Also when the offending pair lies in two different row blocks."""
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", block_bytes)
        a = np.eye(9)
        a[8, 0] = 1e-9
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.check_symmetric(a)

    def test_non_finite_entries_raise(self, monkeypatch):
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 32)
        a = np.eye(9)
        a[7, 7] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            linalg.check_symmetric(a)

    def test_the_problem_keeps_sigma_and_allocates_less_than_its_size(self):
        from lpd.l1solver import LpProblem

        p = 300
        m = np.random.default_rng(6).standard_normal((p, 60))
        sigma_hat = m @ m.T
        b = np.ones(p)
        tracemalloc.start()
        try:
            problem = LpProblem(A=sigma_hat, b=b, lam=0.1, ridge_rho=0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert problem.A is sigma_hat
        assert peak < 8 * p * p


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
