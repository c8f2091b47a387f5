"""Cross-validation choice of the tuning parameter lambda.

Each class is shuffled and split into N subgroups; fold k validates on one
subgroup per class, so every validation set contains both classes. The
chosen lambda maximizes the total correct count over folds, with ties
broken toward the smallest lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# `fit_lpd_from_moments` is no longer called here; it stays importable as
# lpd.model_selection.fit_lpd_from_moments, the name perfbench/spans.py traces.
from .classifier import fit_lpd_from_moments, fit_lpd_path, predict  # noqa: F401
from .errors import DegenerateDelta, SolverError, SolverFailure, TooFewSamplesPerClass
from .parallel import map_tasks
from .stats import LabeledDataset, TwoSampleMoments, compute_moments


@dataclass
class CvPlan:
    """Fold count, candidate lambdas (stored descending), and the shuffle seed."""

    folds: int
    lambda_grid: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.folds = int(self.folds)
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        grid = np.asarray(self.lambda_grid, dtype=float).reshape(-1)
        if grid.size < 1 or np.any(grid <= 0):
            raise ValueError("lambda_grid must be non-empty and strictly positive")
        diffs = np.diff(grid)
        if grid.size > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("lambda_grid must be strictly monotone")
        self.lambda_grid = np.sort(grid)[::-1].copy()
        self.seed = int(self.seed)


@dataclass
class CvResult:
    """Per-lambda correct counts with the argmax-min-tie-break choice."""

    lambda_grid: np.ndarray
    correct_counts: np.ndarray
    chosen_lambda: float
    fold_assignments: np.ndarray
    failures: dict = field(default_factory=dict)

    def per_lambda_correct(self) -> dict:
        return {float(l): int(c) for l, c in zip(self.lambda_grid, self.correct_counts)}


def make_folds(data: LabeledDataset, n_folds: int, seed: int) -> np.ndarray:
    """Per-sample fold ids in 0..n_folds-1, stratified by class.

    Each class's indices are shuffled by the seed and split into n_folds
    near-equal subgroups (sizes differ by at most one).
    """
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    rng = np.random.default_rng(seed)
    fold_ids = np.empty(data.n, dtype=int)
    for k in data.classes:
        rows = data.class_rows(k)
        if rows.size < n_folds:
            raise TooFewSamplesPerClass(
                f"class {k} has {rows.size} samples; cannot form {n_folds} folds"
            )
        shuffled = rng.permutation(rows)
        for fold, chunk in enumerate(np.array_split(shuffled, n_folds)):
            fold_ids[chunk] = fold
    return fold_ids


def cross_validate(
    data: LabeledDataset, plan: CvPlan, ridge_rho: float | None = None, max_workers: int = 1
) -> CvResult:
    """Count correct validation classifications for every lambda in the grid.

    Every fold fits at the ridge ``ridge_rho``, or at its own
    sqrt(log p / n) when None, as :func:`~lpd.classifier.fit_lpd_path` does.
    The folds run on up to ``max_workers`` worker processes
    (:func:`~lpd.parallel.map_tasks`); the result does not depend on it.

    A solver failure at any (fold, lambda) marks that lambda ineligible for
    selection; the failure is recorded in the result rather than dropped.
    """
    grid = plan.lambda_grid
    fold_ids = make_folds(data, plan.folds, plan.seed)
    counts = np.zeros(grid.size, dtype=int)
    failures: dict[int, list] = {}

    outcomes = map_tasks(_fold_outcomes, (data, fold_ids, grid, ridge_rho), plan.folds, max_workers)
    for fold, fold_outcomes in enumerate(outcomes):
        for j, outcome in enumerate(fold_outcomes):
            if isinstance(outcome, str):
                failures.setdefault(j, []).append((fold, outcome))
            else:
                counts[j] += outcome

    eligible = {float(grid[j]): counts[j] for j in range(grid.size) if j not in failures}
    if not eligible:
        raise SolverFailure("every candidate lambda failed in at least one fold")
    return CvResult(
        lambda_grid=grid.copy(),
        correct_counts=counts,
        chosen_lambda=smallest_best_lambda(eligible, max),
        fold_assignments=fold_ids,
        failures=failures,
    )


def _fold_outcomes(data, fold_ids, grid, ridge_rho, fold) -> list:
    """Per lambda, the fold's count of correct validation labels, or its solver failure message."""
    train = data.subset(np.flatnonzero(fold_ids != fold))
    val = data.subset(np.flatnonzero(fold_ids == fold))
    return [str(fit) if isinstance(fit, SolverError)
            else int(np.sum(predict(fit, val.features) == val.labels))
            for fit in fit_lpd_path(compute_moments(train), grid, ridge_rho)]


def smallest_best_lambda(scores: dict, best) -> float:
    """The smallest lambda whose score is ``best(scores.values())``: ``max``
    for CV correct counts, ``min`` for test errors."""
    top = best(scores.values())
    return min(lam for lam, score in scores.items() if score == top)


def default_lambda_grid(moments: TwoSampleMoments, size: int = 20) -> np.ndarray:
    """Geometric grid of `size` points from |delta|_inf down to |delta|_inf / 50.

    The top end is the smallest lambda at which beta = 0 is optimal, so
    larger values are useless; the reported optima sit well inside the
    decade and a half below it.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    lam_max = float(np.abs(moments.delta_hat).max())
    if lam_max == 0.0:
        raise DegenerateDelta("delta_hat is identically zero; no usable grid anchor")
    return lam_max * (1.0 / 50.0) ** np.linspace(0.0, 1.0, size)
