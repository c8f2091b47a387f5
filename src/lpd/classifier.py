"""Fitting and applying the LPD rule and its baselines.

All models share one decision contract: classify a point z to class 1 iff
(z - mu_hat)' beta >= threshold, with the tie going to class 1. The
baselines (naive Bayes, generalized-inverse LDA, support-restricted naive
Bayes, and the oracle rule) differ only in how beta is produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import linalg
from .errors import (
    ClassMissing,
    DimensionMismatch,
    EmptySupport,
    SolverFailure,
    ZeroVariance,
)
from .l1solver import OPTIMAL, LpProblem, SolverConfig, solve
from .stats import LabeledDataset, TwoSampleMoments, compute_moments, pooled_moments


@dataclass
class LpdModel:
    """A fitted linear discriminant: score(z) = (z - mu_hat)' beta.

    ``kept_indices`` maps the model's coordinates back to original feature
    ids when the model was fit on a screened dataset; predictions then
    accept full-width inputs and select the kept columns.
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
            self.kept_indices = np.asarray(self.kept_indices, dtype=int)

    @property
    def p(self) -> int:
        return self.beta.size


@dataclass
class MultiClassLpdModel:
    """Pairwise discriminants for K classes.

    ``pairwise`` maps (k, l) with k < l to (beta_kl, mu_kl); the reverse
    direction uses beta_lk = -beta_kl.
    """

    class_ids: list
    pairwise: dict
    lam: float = 0.0
    ridge_rho: float = 0.0
    metadata: dict = field(default_factory=dict)

    def pair(self, k, l):
        if k < l:
            beta, mu = self.pairwise[(k, l)]
            return beta, mu
        beta, mu = self.pairwise[(l, k)]
        return -beta, mu


def _threshold_from_priors(priors):
    pi1, pi2 = float(priors[0]), float(priors[1])
    if pi1 <= 0 or pi2 <= 0:
        raise ValueError("priors must be positive")
    return math.log(pi2 / pi1)


def auto_ridge(p, n) -> float:
    """Default ridge perturbation sqrt(log p / n)."""
    return math.sqrt(math.log(p) / n)


def decision_scores(model: LpdModel, x) -> np.ndarray:
    """(z - mu_hat)' beta for one sample (1-D) or a batch (2-D)."""
    arr = np.asarray(x, dtype=float)
    batch = np.atleast_2d(arr)
    if model.kept_indices is not None and batch.shape[1] != model.p:
        if batch.shape[1] <= int(model.kept_indices.max()):
            raise DimensionMismatch(
                f"input has {batch.shape[1]} features; kept indices reach "
                f"{int(model.kept_indices.max())}"
            )
        batch = batch[:, model.kept_indices]
    if batch.shape[1] != model.p:
        raise DimensionMismatch(f"expected {model.p} features, got {batch.shape[1]}")
    scores = (batch - model.mu_hat) @ model.beta
    return scores if arr.ndim > 1 else float(scores[0])


def predict(model: LpdModel, x):
    """Class id(s): 1 where the score is >= threshold, else 2."""
    scores = decision_scores(model, x)
    if np.ndim(scores) == 0:
        return 1 if scores >= model.threshold else 2
    return np.where(scores >= model.threshold, 1, 2)


def fit_lpd_from_moments(
    moments: TwoSampleMoments,
    lam: float,
    config: SolverConfig | None = None,
    ridge_rho: float | None = None,
    threshold: float = 0.0,
) -> LpdModel:
    """Solve the l1 program at the given moments and package the model.

    Raises SolverFailure when the solver terminates without an optimal
    certificate.
    """
    if ridge_rho is None:
        ridge_rho = auto_ridge(moments.p, moments.n1 + moments.n2)
    problem = LpProblem(
        A=moments.sigma_hat, b=moments.delta_hat, lam=lam, ridge_rho=ridge_rho, factor=moments.factor
    )
    sol = solve(problem, config)
    if sol.status != OPTIMAL:
        raise SolverFailure(
            f"l1 solver returned status {sol.status!r} at lambda={lam:g} "
            f"(gap {sol.duality_gap:.2e} after {sol.iterations} iterations)"
        )
    return LpdModel(
        beta=sol.beta,
        mu_hat=moments.mu_hat,
        threshold=threshold,
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


def fit_lpd(
    data: LabeledDataset,
    lam: float,
    config: SolverConfig | None = None,
    priors=None,
    estimate_priors: bool = False,
    ridge_rho: float | None = None,
) -> LpdModel:
    """Fit the LPD rule on a binary dataset.

    The threshold is 0 under equal priors. Pass ``priors=(pi1, pi2)`` for
    known unequal priors, or ``estimate_priors=True`` to use the class
    frequencies n_k / n; the threshold is then log(pi2 / pi1).
    """
    if priors is not None and estimate_priors:
        raise ValueError("pass explicit priors or estimate_priors=True, not both")
    moments = compute_moments(data)
    if estimate_priors:
        n = moments.n1 + moments.n2
        priors = (moments.n1 / n, moments.n2 / n)
    threshold = _threshold_from_priors(priors) if priors is not None else 0.0
    return fit_lpd_from_moments(moments, lam, config, ridge_rho, threshold)


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


def fit_glda(data: LabeledDataset, rank_tol: float = 1e-10) -> LpdModel:
    """LDA with the Moore-Penrose pseudo-inverse of the pooled covariance."""
    moments = compute_moments(data)
    beta = linalg.pseudo_inverse(moments.sigma_hat, rank_tol) @ moments.delta_hat
    return LpdModel(
        beta=beta,
        mu_hat=moments.mu_hat,
        metadata={"method": "glda", "rank_tol": rank_tol, "n1": moments.n1, "n2": moments.n2},
    )


def fit_ofair(data: LabeledDataset, support) -> LpdModel:
    """Naive Bayes restricted to a known support; beta is zero elsewhere."""
    support = np.unique(np.asarray(support, dtype=int))
    if support.size == 0:
        raise EmptySupport("support must contain at least one coordinate")
    if support.min() < 0 or support.max() >= data.p:
        raise IndexError(f"support indices must lie in [0, {data.p - 1}]")
    nb = fit_naive_bayes(data)
    beta = np.zeros(data.p)
    beta[support] = nb.beta[support]
    return LpdModel(
        beta=beta,
        mu_hat=nb.mu_hat,
        metadata={"method": "ofair", "support_size": int(support.size)},
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


def fit_multiclass(
    data: LabeledDataset,
    lam: float,
    config: SolverConfig | None = None,
    ridge_rho: float | None = None,
) -> MultiClassLpdModel:
    """Pairwise LPD fits for K >= 2 classes.

    Every pair (k, l) shares the covariance pooled over all K classes;
    only the mean differences vary.
    """
    class_ids = [int(k) for k in data.classes]
    if len(class_ids) < 2:
        raise ClassMissing("multi-class fit needs at least two classes")
    means, sigma, factor = pooled_moments(data)
    if ridge_rho is None:
        ridge_rho = auto_ridge(data.p, data.n)
    pairwise = {}
    for k, l in combinations(class_ids, 2):
        problem = LpProblem(
            A=sigma, b=means[k] - means[l], lam=lam, ridge_rho=ridge_rho, factor=factor
        )
        sol = solve(problem, config)
        if sol.status != OPTIMAL:
            raise SolverFailure(
                f"pair ({k}, {l}) solver status {sol.status!r} at lambda={lam:g}"
            )
        pairwise[(k, l)] = (sol.beta, 0.5 * (means[k] + means[l]))
    return MultiClassLpdModel(
        class_ids=class_ids,
        pairwise=pairwise,
        lam=lam,
        ridge_rho=ridge_rho,
        metadata={"method": "lpd_multiclass", "n_classes": len(class_ids)},
    )


def predict_multiclass(model: MultiClassLpdModel, x, with_diagnostics: bool = False):
    """Class ids for one sample or a batch.

    A class wins outright when it satisfies every pairwise inequality
    (z - mu_kl)' beta_kl >= 0; the smallest such id is returned. When no
    class wins all pairs, the deterministic fallback picks the class
    maximizing the minimum pairwise score. With diagnostics, also returns
    a boolean array marking fallback decisions.
    """
    arr = np.asarray(x, dtype=float)
    batch = np.atleast_2d(arr)
    ids = model.class_ids
    n = batch.shape[0]
    min_scores = np.full((n, len(ids)), np.inf)
    for i, k in enumerate(ids):
        for l in ids:
            if l == k:
                continue
            beta, mu = model.pair(k, l)
            scores = (batch - mu) @ beta
            min_scores[:, i] = np.minimum(min_scores[:, i], scores)
    wins_all = min_scores >= 0.0
    fallback = ~wins_all.any(axis=1)
    choice = np.where(fallback, np.argmax(min_scores, axis=1), np.argmax(wins_all, axis=1))
    labels = np.asarray(ids)[choice]
    if arr.ndim == 1:
        labels = int(labels[0])
        fallback = bool(fallback[0])
    return (labels, fallback) if with_diagnostics else labels


def oracle_independence_gap(sigma, delta):
    """Separation of the independence rule versus the full-covariance rule.

    Returns (upsilon_p, delta_p) where
    upsilon_p = delta' D^{-1} delta / sqrt(delta' D^{-1} Sigma D^{-1} delta)
    with D = diag(Sigma), and delta_p = delta' Sigma^{-1} delta. Always
    delta_p >= upsilon_p ** 2.
    """
    sigma = linalg.check_symmetric(sigma, "sigma")
    delta = linalg.as_vector(delta, "delta")
    if sigma.shape[0] != delta.size:
        raise DimensionMismatch("sigma and delta dimensions must agree")
    diag = np.diag(sigma)
    if np.any(diag <= 0):
        raise ZeroVariance("sigma has a non-positive diagonal entry")
    if not np.any(delta):
        return 0.0, 0.0
    scaled = delta / diag
    upsilon = float(delta @ scaled) / math.sqrt(float(scaled @ sigma @ scaled))
    delta_p = float(delta @ linalg.cholesky_solve(sigma, delta))
    return upsilon, delta_p
