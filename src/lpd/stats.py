"""Sample moments and feature screening.

The two-class moments use the divisor-n convention per class:
Sigma_X = (1/n1) sum (X_i - Xbar)(X_i - Xbar)', pooled as
Sigma = (n1 Sigma_X + n2 Sigma_Y) / (n1 + n2).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllFeaturesDropped,
    ClassMissing,
    DimensionMismatch,
    NonFiniteValue,
    TooFewSamples,
    TopKExceedsP,
)
from .linalg import row_blocks


@dataclass
class LabeledDataset:
    """Feature matrix with integer class labels (1..K).

    ``label_names`` optionally maps class id k to the original label text
    (index k-1). Instances are treated as immutable after construction.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: tuple | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int).reshape(-1)
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise DimensionMismatch("features must be a 2-D array with at least one column")
        if self.features.shape[0] != self.labels.size:
            raise DimensionMismatch(
                f"{self.features.shape[0]} rows but {self.labels.size} labels"
            )
        if not all(np.isfinite(self.features[start:stop]).all()
                   for start, stop in row_blocks(*self.features.shape)):
            raise NonFiniteValue("features contain NaN or infinite values")
        if self.labels.size and self.labels.min() < 1:
            raise ValueError("class labels must be integers >= 1")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def classes(self) -> np.ndarray:
        """The distinct labels, ascending. Not by np.unique: its first call imports
        numpy.ma, a module the CLI jobs otherwise never load."""
        ordered = np.sort(self.labels)
        return ordered[np.diff(ordered, prepend=0) != 0]  # labels are >= 1

    def class_rows(self, class_id) -> np.ndarray:
        return np.flatnonzero(self.labels == class_id)

    def subset(self, rows) -> "LabeledDataset":
        rows = np.asarray(rows)
        return LabeledDataset(self.features[rows], self.labels[rows], self.label_names)

    def select_features(self, cols) -> "LabeledDataset":
        cols = np.asarray(cols, dtype=int)
        return LabeledDataset(self.features[:, cols], self.labels, self.label_names)


@dataclass
class TwoSampleMoments:
    """First and second sample moments of a binary dataset.

    ``centred`` holds the within-class centred rows (n x p), class 1's first.
    The p x n centred-data factor U = centred' / sqrt(n), with sigma_hat =
    U U' up to rounding, and sigma_hat itself are built from them on first
    use and then kept: an LPD fit on wide data (2n < p) at a ridge rho > 0
    goes through U alone and never forms sigma_hat, and one with 2n >= p
    needs no U (:func:`lpd.classifier.lpd_problem`).
    """

    mean1: np.ndarray
    mean2: np.ndarray
    delta_hat: np.ndarray
    mu_hat: np.ndarray
    n1: int
    n2: int
    centred: np.ndarray

    @property
    def p(self) -> int:
        return self.delta_hat.size

    @functools.cached_property
    def factor(self) -> np.ndarray:
        """U = centred' / sqrt(n), p x n."""
        return (self.centred / math.sqrt(self.n1 + self.n2)).T

    @functools.cached_property
    def sigma_hat(self) -> np.ndarray:
        """The pooled covariance, summed and scaled in one p x p buffer.

        Each class's product ``centered.T @ centered`` goes through BLAS's
        syrk, which fills one triangle and mirrors it, so Sigma is exactly
        symmetric as it stands.
        """
        sigma = np.zeros((self.p, self.p))
        for centered in (self.centred[: self.n1], self.centred[self.n1 :]):
            sigma += centered.T @ centered
        sigma /= self.n1 + self.n2
        return sigma


def _require_binary(data):
    classes = data.classes
    for k in (1, 2):
        if k not in classes:
            raise ClassMissing(f"class {k} has no samples")
    if classes.size != 2:
        raise ClassMissing(f"expected exactly classes 1 and 2, found {classes.tolist()}")


def class_means(data):
    """Per-class sample means, keyed by class id. Each class needs >= 2 samples.

    A class's rows are copied a column block at a time, the blocks of
    :func:`~lpd.linalg.row_blocks` over the columns. A block is at least 2
    columns wide unless p is 1, so numpy reduces it as it reduces all the
    columns, each column's sum running down the rows in order: the means are
    those of the whole class's rows, byte for byte.
    """
    means = {}
    for k in data.classes:
        rows = data.class_rows(k)
        if rows.size < 2:
            raise TooFewSamples(f"class {k} has {rows.size} samples; need at least 2")
        means[int(k)] = np.concatenate([data.features[rows, start:stop].mean(axis=0)
                                        for start, stop in row_blocks(data.p, data.n)])
    return means


def pooled_variances(data):
    """Diagonal of the pooled divisor-n covariance, computed without the full matrix."""
    means = class_means(data)
    acc = np.zeros(data.p)
    for k, mean in means.items():
        centered = data.features[data.class_rows(k)] - mean
        acc += np.einsum("ij,ij->j", centered, centered)
    return acc / data.n


def compute_moments(data) -> TwoSampleMoments:
    """Means, mean difference, midpoint and centred rows for classes {1, 2}.

    Sigma = (1/n) * sum_k sum_{i in class k} (x_i - mean_k)(x_i - mean_k)'.
    The factor U = Xc' / sqrt(n) stacks the within-class centred rows as
    columns (p x n), so Sigma = U U' up to rounding. Neither is formed
    here: ``factor`` and ``sigma_hat`` are built on first use.
    """
    _require_binary(data)
    means = class_means(data)
    centred = np.vstack([data.features[data.class_rows(k)] - mean for k, mean in means.items()])
    mean1, mean2 = means[1], means[2]
    return TwoSampleMoments(
        mean1=mean1,
        mean2=mean2,
        delta_hat=mean1 - mean2,
        mu_hat=0.5 * (mean1 + mean2),
        n1=int(data.class_rows(1).size),
        n2=int(data.class_rows(2).size),
        centred=centred,
    )


def variance_filter(data, var_min, var_max, scale=1.0):
    """Keep feature j iff var_min <= scale * s2_j <= var_max.

    s2_j is the pooled divisor-n variance. Returns the reduced dataset and
    the kept original indices so downstream models can address original
    feature ids.
    """
    if not var_min < var_max:
        raise ValueError(f"var_min ({var_min}) must be < var_max ({var_max})")
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    scaled = scale * pooled_variances(data)
    kept = np.flatnonzero((scaled >= var_min) & (scaled <= var_max))
    if kept.size == 0:
        raise AllFeaturesDropped(
            f"variance filter [{var_min}, {var_max}] at scale {scale} dropped all {data.p} features"
        )
    return data.select_features(kept), kept


def t_statistics(data):
    """Two-sample Welch t statistics, with unbiased per-class variances.

    t_j = (mean1_j - mean2_j) / sqrt(s1_j^2 / n1 + s2_j^2 / n2).
    A zero denominator yields +/-inf when the means differ and 0 when they
    coincide.
    """
    _require_binary(data)
    means = class_means(data)
    se2 = np.zeros(data.p)
    for k in (1, 2):  # a column block of a class's rows at a time, as in class_means
        rows = data.class_rows(k)
        for start, stop in row_blocks(data.p, data.n):
            se2[start:stop] += data.features[rows, start:stop].var(axis=0, ddof=1) / rows.size
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (means[1] - means[2]) / np.sqrt(se2)
    t[np.isnan(t)] = 0.0  # 0/0: no mean shift, no evidence
    return t


def t_statistic_screen(data, top_k):
    """Keep the top_k features by |t|; ties resolved toward the lower index.

    top_k > p is clamped to p with a TopKExceedsP warning.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if top_k > data.p:
        warnings.warn(
            f"top_k={top_k} exceeds p={data.p}; keeping all features", TopKExceedsP
        )
        top_k = data.p
    t = t_statistics(data)
    order = np.argsort(-np.abs(t), kind="stable")  # stable: ties keep lower index first
    kept = np.sort(order[:top_k])
    return data.select_features(kept), kept
