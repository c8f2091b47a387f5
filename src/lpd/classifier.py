"""Fitting and applying the LPD rule and its baselines.

All models share one decision contract: classify a point z to class 1 iff
(z - mu_hat)' beta >= threshold, with the tie going to class 1. The
baselines (naive Bayes, generalized-inverse LDA, support-restricted naive
Bayes, and the oracle rule) differ only in how beta is produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, EmptySupport, SolverError, SolverFailure, ZeroVariance
from .l1solver import OPTIMAL, LpProblem, solve, solve_path
from .stats import LabeledDataset, TwoSampleMoments, compute_moments


@dataclass
class LpdModel:
    """A fitted linear discriminant: score(z) = (z - mu_hat)' beta.

    ``kept_indices`` maps the model's coordinates back to original feature
    ids when the model was fit on a screened dataset; predictions then
    accept full-width inputs and select the kept columns. There must be one
    id per coordinate, and the ids must be integers >= 0, strictly
    increasing, so a row scores the same at either width.
    """

    beta: np.ndarray
    mu_hat: np.ndarray
    threshold: float = 0.0
    lam: float = 0.0
    ridge_rho: float = 0.0
    kept_indices: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.beta = linalg.as_vector(self.beta, "beta")
        self.mu_hat = linalg.as_vector(self.mu_hat, "mu_hat")
        if self.beta.size != self.mu_hat.size:
            raise DimensionMismatch("beta and mu_hat must have equal length")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if self.kept_indices is not None:
            ids = list(self.kept_indices)
            for i, v in enumerate(ids):
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise ValueError(f"kept_indices[{i}] is not an integer: {v!r}")
            if len(ids) != self.beta.size:
                raise ValueError(f"kept_indices has {len(ids)} ids for {self.beta.size} features")
            self.kept_indices = np.asarray(ids, dtype=int)
            bad = np.flatnonzero(np.diff(self.kept_indices, prepend=-1) <= 0)
            if bad.size:
                raise ValueError(f"kept_indices[{bad[0]}] is negative or not above the one before")

    @property
    def p(self) -> int:
        return self.beta.size


def auto_ridge(p, n) -> float:
    """Default ridge perturbation sqrt(log p / n)."""
    return math.sqrt(math.log(p) / n)


def decision_scores(model: LpdModel, x) -> np.ndarray:
    """(z - mu_hat)' beta for one sample (1-D, a float) or a batch (2-D, an array).

    A full-width input keeps the model's ``kept_indices`` columns. A batch is
    scored in :func:`~lpd.linalg.row_blocks`, each selected and centred on its
    own, so the temporaries are a block's, not the batch's. For a C-contiguous
    batch at one BLAS thread the scores are those of the one product
    ``(x[:, kept] - mu_hat) @ beta``, byte for byte.
    """
    arr = np.asarray(x, dtype=float)
    batch = np.atleast_2d(arr)
    cols = None
    if model.kept_indices is not None and batch.shape[1] != model.p:
        if batch.shape[1] <= int(model.kept_indices.max()):
            raise DimensionMismatch(
                f"input has {batch.shape[1]} features; kept indices reach "
                f"{int(model.kept_indices.max())}"
            )
        cols = model.kept_indices
    elif batch.shape[1] != model.p:
        raise DimensionMismatch(f"expected {model.p} features, got {batch.shape[1]}")
    scores = np.empty(len(batch))
    for start, stop in linalg.row_blocks(len(batch), model.p):
        block = batch[start:stop] if cols is None else batch[start:stop, cols]
        scores[start:stop] = (block - model.mu_hat) @ model.beta
    return scores if arr.ndim > 1 else float(scores[0])


def predict(model: LpdModel, x):
    """Class id(s): 1 where the score is >= threshold, else 2."""
    scores = decision_scores(model, x)
    if np.ndim(scores) == 0:
        return 1 if scores >= model.threshold else 2
    return np.where(scores >= model.threshold, 1, 2)


def fit_lpd_from_moments(
    moments: TwoSampleMoments, lam: float, ridge_rho: float | None = None
) -> LpdModel:
    """Solve the l1 program at the given moments and package the model.

    Raises SolverFailure when the solver terminates without an optimal
    certificate.
    """
    problem, ridge_rho = _problem(moments, lam, ridge_rho)
    fit = _certified_model(moments, lam, solve(problem), ridge_rho)
    if isinstance(fit, SolverError):
        raise fit
    return fit


def fit_lpd_path(moments: TwoSampleMoments, lambdas, ridge_rho: float | None = None) -> list:
    """The LPD model at every lambda of ``lambdas``, by one
    :func:`~lpd.l1solver.solve_path` call.

    Entry j is the model at lambdas[j], or the SolverError that
    :func:`fit_lpd_from_moments` would raise there; other errors propagate.
    A model the path certified is a vertex of the program, so its beta may
    differ from :func:`fit_lpd_from_moments`'s interior-point iterate within
    the solvers' tolerances; its ``iterations`` are path pivots.
    """
    lambdas = [float(lam) for lam in lambdas]
    if not lambdas:
        return []
    problem, ridge_rho = _problem(moments, lambdas[0], ridge_rho)
    return [sol if isinstance(sol, SolverError)
            else _certified_model(moments, lam, sol, ridge_rho)
            for lam, sol in zip(lambdas, solve_path(problem, lambdas))]


def _problem(moments, lam, ridge_rho):
    """The l1 program at the moments, with the ridge resolved (auto when None)."""
    if ridge_rho is None:
        ridge_rho = auto_ridge(moments.p, moments.n1 + moments.n2)
    problem = LpProblem(A=moments.sigma_hat, b=moments.delta_hat, lam=lam,
                        ridge_rho=ridge_rho, factor=moments.factor)
    return problem, ridge_rho


def _certified_model(moments, lam, sol, ridge_rho):
    """The model of an optimal solution, or the SolverFailure naming why it is not one."""
    if sol.status != OPTIMAL:
        return SolverFailure(
            f"l1 solver returned status {sol.status!r} at lambda={lam:g} "
            f"(gap {sol.duality_gap:.2e} after {sol.iterations} iterations)"
        )
    return LpdModel(
        beta=sol.beta,
        mu_hat=moments.mu_hat,
        lam=lam,
        ridge_rho=ridge_rho,
        metadata={
            "method": "lpd",
            "n1": moments.n1,
            "n2": moments.n2,
            "iterations": sol.iterations,
            "duality_gap": sol.duality_gap,
            "max_residual": sol.max_residual,
        },
    )


def fit_lpd(data: LabeledDataset, lam: float, ridge_rho: float | None = None) -> LpdModel:
    """Fit the LPD rule on a binary dataset at radius ``lam``.

    The ridge is ``ridge_rho``, or sqrt(log p / n) when None. The threshold
    is 0, as in the paper: a point goes to class 1 iff (z - mu_hat)' beta >= 0.
    """
    return fit_lpd_from_moments(compute_moments(data), lam, ridge_rho=ridge_rho)


def fit_naive_bayes(data: LabeledDataset) -> LpdModel:
    """Independence rule: beta = diag(Sigma)^{-1} delta."""
    moments = compute_moments(data)
    diag = np.diag(moments.sigma_hat)
    if np.any(diag <= 0):
        bad = int(np.flatnonzero(diag <= 0)[0])
        raise ZeroVariance(f"feature {bad} has zero pooled variance")
    return LpdModel(
        beta=moments.delta_hat / diag,
        mu_hat=moments.mu_hat,
        metadata={"method": "naive_bayes", "n1": moments.n1, "n2": moments.n2},
    )


def fit_glda(data: LabeledDataset) -> LpdModel:
    """LDA with the Moore-Penrose pseudo-inverse of the pooled covariance."""
    moments = compute_moments(data)
    beta = linalg.pseudo_inverse(moments.sigma_hat) @ moments.delta_hat
    return LpdModel(
        beta=beta,
        mu_hat=moments.mu_hat,
        metadata={"method": "glda", "rank_tol": linalg.RANK_TOL, "n1": moments.n1, "n2": moments.n2},
    )


def fit_ofair(data: LabeledDataset, support) -> LpdModel:
    """Naive Bayes restricted to a known support; beta is zero elsewhere."""
    support = np.asarray(support, dtype=int).reshape(-1)
    if support.size == 0:
        raise EmptySupport("support must contain at least one coordinate")
    if support.min() < 0 or support.max() >= data.p:
        raise IndexError(f"support indices must lie in [0, {data.p - 1}]")
    # a mask, not np.unique, drops repeated indices: np.unique's first call imports numpy.ma
    kept = np.zeros(data.p, dtype=bool)
    kept[support] = True
    nb = fit_naive_bayes(data)
    beta = np.zeros(data.p)
    beta[kept] = nb.beta[kept]
    return LpdModel(
        beta=beta,
        mu_hat=nb.mu_hat,
        metadata={"method": "ofair", "support_size": int(kept.sum())},
    )


def oracle_fisher(mu1, mu2, omega) -> LpdModel:
    """The oracle rule at known parameters: beta = Omega (mu1 - mu2)."""
    mu1 = linalg.as_vector(mu1, "mu1")
    mu2 = linalg.as_vector(mu2, "mu2")
    omega = linalg.check_symmetric(omega, "omega")
    if mu1.size != mu2.size or omega.shape[0] != mu1.size:
        raise DimensionMismatch("mu1, mu2, and omega dimensions must agree")
    return LpdModel(
        beta=omega @ (mu1 - mu2),
        mu_hat=0.5 * (mu1 + mu2),
        metadata={"method": "oracle"},
    )

