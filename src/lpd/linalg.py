"""Dense symmetric linear algebra used throughout the package.

Matrices and vectors are plain float64 numpy arrays. Factorizations are
delegated to LAPACK (via numpy/scipy); this module owns the validation,
the error mapping, and the spectral pseudo-inverse built on top.
Every LAPACK call in the package is made here, directly (scipy.linalg's
wrappers cost more than the small factorizations the solver repeats), but
one: simulation.sample factors Sigma with np.linalg.cholesky, as numpy and
SciPy ship separate OpenBLAS builds and moving it could change seeded draws.
SciPy's LAPACK extension module is loaded on the first call, by itself and
without the `scipy.linalg` package (see :func:`_lapack`), so predict and
screen load no SciPy and the solving commands only that one module.

All tolerances are relative to the matrix max-norm so the checks are
scale-free.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NotPositiveDefinite

SYMMETRY_RTOL = 1e-10
# pseudo_inverse treats eigenvalues with |w_i| <= RANK_TOL * max|w| as zero.
RANK_TOL = 1e-10
_FLAPACK = "scipy.linalg._flapack"
_LOAD_LOCK = threading.Lock()


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"{name} must be 2-D and non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name="vector"):
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(a, dtype=float).reshape(-1)
    if v.size < 1:
        raise DimensionMismatch(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def check_symmetric(a, name="matrix"):
    """Validate symmetry within SYMMETRY_RTOL * max|A| and return the symmetrized array."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    scale = np.abs(m).max()
    if np.abs(m - m.T).max() > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(f"{name} is not symmetric within tolerance")
    return 0.5 * (m + m.T)


@functools.cache
def _lapack():
    """SciPy's LAPACK extension module, the one ``scipy.linalg.lapack`` re-exports.

    It is loaded by itself from SciPy's package directory, which takes
    milliseconds where importing ``scipy.linalg`` takes a third of a second.
    A copy already in sys.modules is reused; where the direct load fails (on
    Windows, SciPy's ``__init__`` sets up the DLL paths) it comes through
    ``scipy.linalg`` after all.
    """
    with _LOAD_LOCK:  # simulate's replication threads may ask at the same time
        loaded = sys.modules.get(_FLAPACK)
        if loaded is not None:
            return loaded
        try:
            return _load_flapack()
        except (ImportError, OSError):
            from scipy.linalg import lapack

            return lapack


def _load_flapack():
    scipy_spec = importlib.util.find_spec("scipy")  # finds the package without importing it
    if scipy_spec is None:
        raise ImportError("SciPy is not installed")
    directories = [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, directories)
    if spec is None:
        raise ImportError(f"no {_FLAPACK} extension in {directories}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module  # so a later `import scipy.linalg` shares it
    return module


def spd_factor(a):
    """Cholesky-factor a symmetric positive-definite matrix.

    Only the lower triangle of ``a`` is read, and ``a`` is not modified.
    Returns an opaque factor for :func:`spd_solve`, bit-identical to
    ``scipy.linalg.cho_factor(a, lower=True)``. Raises NotPositiveDefinite
    if any pivot is non-positive.
    """
    c, info = _lapack().dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefinite(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c, True


def spd_solve(factor, b):
    """Solve using a factor from :func:`spd_factor`; b may be a vector or matrix."""
    c, lower = factor
    x, info = _lapack().dpotrs(c, b, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def lu_factor(a):
    """Pivoted LU factor of a square matrix for :func:`lu_solve`; None if a pivot is zero."""
    lu, piv, info = _lapack().dgetrf(a)
    return (lu, piv) if info == 0 else None


def lu_solve(factor, b):
    """Solve A x = b with a factor from :func:`lu_factor`."""
    return _lapack().dgetrs(*factor, b)[0]


def cholesky_solve(a, b):
    """Solve A x = b for symmetric positive-definite A.

    The residual satisfies ||Ax - b||_inf <= 1e-8 * (1 + ||b||_inf) for
    well-scaled SPD inputs; non-PD matrices raise NotPositiveDefinite.
    """
    m = check_symmetric(a, "A")
    v = as_vector(b, "b")
    if m.shape[0] != v.size:
        raise DimensionMismatch(f"A is {m.shape} but b has length {v.size}")
    return spd_solve(spd_factor(m), v)


def sym_eigen(a):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    descending order and eigenvectors as matching columns, so that
    A = V diag(w) V'.
    """
    m = check_symmetric(a, "A")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def pseudo_inverse(a):
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with |w_i| <= RANK_TOL * max|w| are treated as zero.
    """
    w, v = sym_eigen(a)
    cutoff = RANK_TOL * np.abs(w).max() if w.size else 0.0
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=np.abs(w) > cutoff)
    return (v * inv) @ v.T


def spd_inverse(a):
    """Inverse of a symmetric positive-definite matrix via Cholesky."""
    m = check_symmetric(a, "A")
    factor = spd_factor(m)
    inv = spd_solve(factor, np.eye(m.shape[0]))
    return 0.5 * (inv + inv.T)
