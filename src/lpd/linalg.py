"""Dense symmetric linear algebra used throughout the package.

Matrices and vectors are plain float64 numpy arrays. Factorizations are
delegated to LAPACK (via numpy/scipy); this module owns the validation,
the error mapping, and the spectral pseudo-inverse built on top.
spd_factor and spd_solve call LAPACK's dpotrf and dpotrs directly:
scipy.linalg.cho_factor and cho_solve reach the same routines through
Python layers that cost more than the factorization itself on the small
matrices the interior-point solver factors at every iteration.

All tolerances are relative to the matrix max-norm so the checks are
scale-free.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionMismatch, NonConvergence, NotPositiveDefinite

SYMMETRY_RTOL = 1e-10


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


def check_symmetric(a, name="matrix", rtol=SYMMETRY_RTOL):
    """Validate symmetry within rtol * max|A| and return the symmetrized array."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    scale = np.abs(m).max()
    if np.abs(m - m.T).max() > rtol * max(scale, 1e-300):
        raise ValueError(f"{name} is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def spd_factor(a):
    """Cholesky-factor a symmetric positive-definite matrix.

    Only the lower triangle of ``a`` is read, and ``a`` is not modified.
    Returns an opaque factor for :func:`spd_solve`, bit-identical to
    ``scipy.linalg.cho_factor(a, lower=True)``. Raises NotPositiveDefinite
    if any pivot is non-positive.
    """
    c, info = lapack.dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefinite(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c, True


def spd_solve(factor, b):
    """Solve using a factor from :func:`spd_factor`; b may be a vector or matrix."""
    c, lower = factor
    x, info = lapack.dpotrs(c, b, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


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


def pseudo_inverse(a, rank_tol=1e-10):
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with |w_i| <= rank_tol * max|w| are treated as zero.
    rank_tol matters for near-singular pooled covariances, so it is a
    parameter rather than a constant.
    """
    w, v = sym_eigen(a)
    cutoff = rank_tol * np.abs(w).max() if w.size else 0.0
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=np.abs(w) > cutoff)
    return (v * inv) @ v.T


def spd_inverse(a):
    """Inverse of a symmetric positive-definite matrix via Cholesky."""
    m = check_symmetric(a, "A")
    factor = spd_factor(m)
    inv = spd_solve(factor, np.eye(m.shape[0]))
    return 0.5 * (inv + inv.T)
