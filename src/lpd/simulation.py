"""Synthetic benchmark harness: model builders, samplers, rates, and
replicated method comparisons.

Three covariance designs are supported, all with mu1 = 0 and mu2 carrying
s0 leading ones:

  1. compound symmetry: unit diagonal, constant off-diagonal rho;
  2. a random precision matrix (B + d I) / (1 + d) whose first s0 rows mix
     0.5 * Bernoulli(0.2) entries and whose remaining block is constant 0.5,
     shifted by d = max(-lambda_min(B), 0) + 0.05 and rescaled to unit
     diagonal;
  3. AR(1) covariance rho^|i-j|, whose inverse is tridiagonal.

Replications draw independent train/test sets from deterministic per-rep
RNG streams, tune lambda by cross-validation on the train set, and report
mean/SD test errors plus support-recovery metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
# `fit_lpd_from_moments` is no longer called here; it stays importable as
# lpd.simulation.fit_lpd_from_moments, the name perfbench/spans.py traces.
from .classifier import (  # noqa: F401
    LpdModel,
    fit_glda,
    fit_lpd_from_moments,
    fit_lpd_path,
    fit_naive_bayes,
    fit_ofair,
    oracle_fisher,
    predict,
)
from .errors import DimensionMismatch, LpdError, SolverError, SolverFailure, ZeroBeta
from .l1solver import support_mask
from .model_selection import CvPlan, cross_validate, default_lambda_grid, smallest_best_lambda
from .parallel import map_tasks
from .stats import LabeledDataset, compute_moments

METHOD_ORDER = ("lpd", "naive_bayes", "glda", "ofair", "oracle")
_MODEL_DEFAULT_RHO = {1: 0.5, 3: 0.8}


@dataclass
class SimulationSpec:
    """Generator parameters for one benchmark configuration."""

    model_id: int
    p: int
    n1: int = 200
    n2: int = 200
    s0: int = 10
    rho: float | None = None
    distribution: str = "normal"
    reps: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.model_id not in (1, 2, 3):
            raise ValueError("model_id must be 1, 2, or 3")
        if self.p < 1 or self.s0 < 1 or self.s0 > self.p:
            raise ValueError("need 1 <= s0 <= p")
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("each class needs at least 2 samples")
        if self.rho is not None and self.model_id == 2:
            raise ValueError("model 2 does not use rho")
        low = -1.0 / (self.p - 1) if self.model_id == 1 and self.p > 1 else -1.0
        if self.rho is not None and not low < self.rho < 1:
            raise ValueError(f"rho must lie in ({low:.6g}, 1) for model {self.model_id}, p={self.p}")
        if self.distribution not in ("normal", "t5"):
            raise ValueError("distribution must be 'normal' or 't5'")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def resolved_rho(self) -> float:
        if self.rho is not None:
            return float(self.rho)
        return _MODEL_DEFAULT_RHO.get(self.model_id, 0.0)


@dataclass
class GroundTruth:
    """Population parameters of one generated model."""

    mu1: np.ndarray
    mu2: np.ndarray
    sigma: np.ndarray
    omega: np.ndarray
    beta_star: np.ndarray
    delta_p: float

    def __post_init__(self):
        if self.delta_p <= 0:
            raise ValueError("delta_p must be positive")


@dataclass
class SupportMetrics:
    """Declared/true nonzero bookkeeping; rates are NaN when undefined."""

    pos: int
    tpos: int
    tpr: float
    fpr: float


def _mean_vectors(p, s0):
    mu1 = np.zeros(p)
    mu2 = np.zeros(p)
    mu2[:s0] = 1.0
    return mu1, mu2


def _compound_symmetry(p, rho):
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    omega = np.full((p, p), -rho / (1.0 + (p - 1) * rho))
    np.fill_diagonal(omega, 1.0 - rho / (1.0 + (p - 1) * rho))
    return sigma, omega / (1.0 - rho)


def _ar1(p, rho):
    idx = np.arange(p)
    sigma = rho ** np.abs(np.subtract.outer(idx, idx))
    if p == 1:
        return sigma, np.ones((1, 1))
    denom = 1.0 - rho * rho
    omega = np.zeros((p, p))
    np.fill_diagonal(omega, (1.0 + rho * rho) / denom)
    omega[0, 0] = omega[p - 1, p - 1] = 1.0 / denom
    off = -rho / denom
    omega[idx[:-1], idx[1:]] = off
    omega[idx[1:], idx[:-1]] = off
    return sigma, omega


def _random_precision(p, s0, rng):
    """Symmetric B with Bernoulli-sparse leading rows, shifted to be PD."""
    b = np.eye(p)
    for i in range(min(s0, p)):
        draws = 0.5 * (rng.random(p - i - 1) < 0.2)
        b[i, i + 1 :] = draws
        b[i + 1 :, i] = draws
    for i in range(s0, p):
        b[i, i + 1 :] = 0.5
        b[i + 1 :, i] = 0.5
    eigenvalues, _ = linalg.sym_eigen(b)
    shift = max(-float(eigenvalues[-1]), 0.0) + 0.05
    omega = (b + shift * np.eye(p)) / (1.0 + shift)
    # rescale to exact unit diagonal; a numerical no-op when diag(B) = 1
    scale = 1.0 / np.sqrt(np.diag(omega))
    omega = scale[:, None] * omega * scale[None, :]
    sigma = linalg.spd_inverse(omega)
    return sigma, omega


def build_model(spec: SimulationSpec, rng=None) -> GroundTruth:
    """Construct the population parameters for the spec's model.

    Model 2 draws its Bernoulli pattern from ``rng`` (seeded from
    ``spec.seed`` when omitted), so it is redrawn per replication stream;
    models 1 and 3 are deterministic closed forms.
    """
    p, s0 = spec.p, spec.s0
    if spec.model_id == 1:
        sigma, omega = _compound_symmetry(p, spec.resolved_rho())
    elif spec.model_id == 3:
        sigma, omega = _ar1(p, spec.resolved_rho())
    else:
        if rng is None:
            rng = np.random.default_rng(spec.seed)
        sigma, omega = _random_precision(p, s0, rng)
    mu1, mu2 = _mean_vectors(p, s0)
    delta = mu1 - mu2
    beta_star = omega @ delta
    return GroundTruth(
        mu1=mu1,
        mu2=mu2,
        sigma=sigma,
        omega=omega,
        beta_star=beta_star,
        delta_p=float(delta @ beta_star),
    )


def sample(truth: GroundTruth, spec: SimulationSpec, rng) -> LabeledDataset:
    """Draw n1 class-1 and n2 class-2 rows from the model.

    Normal draws use X = mu + L z with L L' = Sigma. The heavy-tailed
    variant multiplies each Gaussian row by sqrt(5 / W), W ~ chi2(5), so
    Sigma is the scale matrix and the marginal covariance is (5/3) Sigma.
    """
    chol = np.linalg.cholesky(truth.sigma)
    blocks = []
    for mu, count in ((truth.mu1, spec.n1), (truth.mu2, spec.n2)):
        core = rng.standard_normal((count, truth.mu1.size)) @ chol.T
        if spec.distribution == "t5":
            w = rng.chisquare(5, count)
            core *= np.sqrt(5.0 / w)[:, None]
        blocks.append(mu + core)
    labels = np.concatenate([np.ones(spec.n1, dtype=int), np.full(spec.n2, 2)])
    return LabeledDataset(np.vstack(blocks), labels)


def normal_cdf(x: float) -> float:
    """Phi(x), the standard normal CDF, through math.erfc: scipy.special would
    cost simulate a third of a second to import."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def oracle_rate(truth: GroundTruth) -> float:
    """Misclassification rate of the rule at the true parameters:
    Phi(-sqrt(delta_p) / 2)."""
    return normal_cdf(-0.5 * math.sqrt(truth.delta_p))


def conditional_rate(truth: GroundTruth, model: LpdModel) -> float:
    """Error rate of a fitted direction under the true Gaussian populations.

    R = 1 - (1/2) Phi(-(mu_hat - mu1)' beta / s) - (1/2) Phi((mu_hat - mu2)' beta / s)
    with s = sqrt(beta' Sigma beta). Equals the oracle rate when beta is
    proportional to Omega delta and mu_hat = mu.
    """
    beta, mu_hat = model.beta, model.mu_hat
    if beta.size != truth.mu1.size:
        raise DimensionMismatch("model dimension does not match the ground truth")
    quad = float(beta @ truth.sigma @ beta)
    if quad <= 0.0 or not np.any(beta):
        raise ZeroBeta("conditional rate undefined for beta = 0")
    scale = math.sqrt(quad)
    term1 = normal_cdf(-float((mu_hat - truth.mu1) @ beta) / scale)
    term2 = normal_cdf(float((mu_hat - truth.mu2) @ beta) / scale)
    return 1.0 - 0.5 * term1 - 0.5 * term2


def support_metrics(beta_hat, beta_star) -> SupportMetrics:
    """POS / TPOS / TPR / FPR of the declared support.

    The estimate's support is thresholded at l1solver.SUPPORT_EPS * max|beta_hat|
    (interior-point output is never exactly zero); the reference support is
    exact nonzeros (|.| > 1e-10). Rates with an empty denominator are NaN.
    """
    beta_hat = linalg.as_vector(beta_hat, "beta_hat")
    beta_star = linalg.as_vector(beta_star, "beta_star")
    if beta_hat.size != beta_star.size:
        raise DimensionMismatch("beta_hat and beta_star must have equal length")
    declared = support_mask(beta_hat)
    true = np.abs(beta_star) > 1e-10
    pos = int(declared.sum())
    tpos = int((declared & true).sum())
    n_true = int(true.sum())
    n_false = int((~true).sum())
    tpr = tpos / n_true if n_true else float("nan")
    fpr = int((declared & ~true).sum()) / n_false if n_false else float("nan")
    return SupportMetrics(pos=pos, tpos=tpos, tpr=tpr, fpr=fpr)


@dataclass
class RepRecord:
    """Everything measured in one completed replication.

    ``refit_failures`` maps each grid lambda whose full-train refit failed
    to the solver's message; such a lambda is left out of ``lambda_opt``.
    """

    rep: int
    errors: dict
    oracle_rate: float
    lambda_hat: float = float("nan")
    lambda_opt: float = float("nan")
    support: SupportMetrics | None = None
    conditional_rate: float = float("nan")
    refit_failures: dict = field(default_factory=dict)


@dataclass
class EvalReport:
    """Replication results: ``table`` maps (section, name) to (mean, sd) in report order."""

    spec: SimulationSpec
    methods: tuple
    failures: list
    table: dict
    records: list = field(default_factory=list)

    def to_rows(self):
        """Fixed-order (section, name, mean, sd) rows for CSV reports."""
        return [(*key, *stats) for key, stats in self.table.items()]

    @property
    def reps_completed(self) -> int:
        return len(self.records)

    @property
    def reps_failed(self) -> int:
        return self.spec.reps - len(self.records)

    @property
    def error_mean(self) -> dict:
        return {m: self.table["error", m][0] for m in self.methods}


def _mean_sd(values) -> tuple:
    """Mean and SD (ddof 1) of the non-NaN values; NaN where undefined."""
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    nan = float("nan")
    return (float(values.mean()) if values.size else nan,
            float(values.std(ddof=1)) if values.size > 1 else nan)


def _summarize(spec, methods, records) -> dict:
    """The report table in row order; error figures are percentages, meta rows have sd NaN."""
    table = {("error", m): _mean_sd([r.errors.get(m, float("nan")) for r in records])
             for m in METHOD_ORDER if m in methods}
    if "lpd" in methods:
        for name in ("pos", "tpos", "tpr", "fpr"):
            table["support", name] = _mean_sd([getattr(r.support, name) for r in records])
        table["lambda", "hat"] = _mean_sd([r.lambda_hat for r in records])
        table["lambda", "opt"] = _mean_sd([r.lambda_opt for r in records])
        table["rate", "conditional"] = _mean_sd([r.conditional_rate for r in records])
    table["rate", "oracle"] = _mean_sd([r.oracle_rate for r in records])
    table["meta", "reps_completed"] = (float(len(records)), float("nan"))
    table["meta", "reps_failed"] = (float(spec.reps - len(records)), float("nan"))
    return table


def _error_percent(model, dataset) -> float:
    return 100.0 * float(np.mean(predict(model, dataset.features) != dataset.labels))


def _true_support(truth) -> np.ndarray:
    return np.flatnonzero(truth.mu1 - truth.mu2 != 0.0)


def _run_replication(spec, methods, seed_seq, rep, cv_folds, grid_size):
    rng = np.random.default_rng(seed_seq)
    truth = build_model(spec, rng)
    train = sample(truth, spec, rng)
    test = sample(truth, spec, rng)
    fold_seed = int(rng.integers(0, 2**31 - 1))

    record = RepRecord(rep=rep, errors={}, oracle_rate=oracle_rate(truth))
    moments = compute_moments(train)  # every method but the oracle fits from these

    if "lpd" in methods:
        grid = default_lambda_grid(moments, grid_size)
        plan = CvPlan(folds=cv_folds, lambda_grid=grid, seed=fold_seed)
        cv = cross_validate(train, plan)
        fits = dict(zip(map(float, plan.lambda_grid), fit_lpd_path(moments, plan.lambda_grid)))
        if isinstance(fits[cv.chosen_lambda], SolverError):
            raise fits[cv.chosen_lambda]
        # as in cross_validate, a failed lambda is skipped; only the chosen one is needed
        models = {lam: fit for lam, fit in fits.items() if not isinstance(fit, SolverError)}
        record.refit_failures = {lam: str(fit) for lam, fit in fits.items() if lam not in models}
        test_errors = {lam: _error_percent(model, test) for lam, model in models.items()}
        chosen_model = models[cv.chosen_lambda]
        record.lambda_opt = smallest_best_lambda(test_errors, min)
        record.lambda_hat = cv.chosen_lambda
        record.errors["lpd"] = test_errors[cv.chosen_lambda]
        record.support = support_metrics(chosen_model.beta, truth.beta_star)
        record.conditional_rate = conditional_rate(truth, chosen_model)

    if "naive_bayes" in methods:
        record.errors["naive_bayes"] = _error_percent(fit_naive_bayes(moments), test)
    if "glda" in methods:
        record.errors["glda"] = _error_percent(fit_glda(moments), test)
    if "ofair" in methods:
        record.errors["ofair"] = _error_percent(fit_ofair(moments, _true_support(truth)), test)
    if "oracle" in methods:
        record.errors["oracle"] = _error_percent(
            oracle_fisher(truth.mu1, truth.mu2, truth.omega), test
        )
    return record


def _replication_outcome(spec, methods, cv_folds, grid_size, rep):
    """Replication ``rep``'s record, or its failure line when it raises an LpdError."""
    # SeedSequence(spec.seed).spawn(spec.reps)[rep], built in the process that runs it
    stream = np.random.SeedSequence(spec.seed, spawn_key=(rep,))
    try:
        return _run_replication(spec, methods, stream, rep, cv_folds, grid_size)
    except LpdError as exc:
        return f"rep {rep}: {exc}"


def check_run_options(spec: SimulationSpec, methods, cv_folds, grid_size) -> tuple:
    """The method names, lower-cased, after checking the options of
    :func:`run_benchmark` that only the replications would otherwise reach.

    Raises ValueError for no method or an unknown one, fewer than 2 folds, a
    grid of fewer than 2 lambdas, or, with ``lpd`` among the methods, folds
    that some class of ``spec`` cannot fill or whose CV training sets would
    keep fewer than 2 of its rows.
    """
    methods = tuple(m.lower() for m in methods)
    if not methods:
        raise ValueError(f"no methods given; choose from {METHOD_ORDER}")
    unknown = sorted(set(methods) - set(METHOD_ORDER))
    if unknown:
        raise ValueError(f"unknown methods: {unknown}; choose from {METHOD_ORDER}")
    if cv_folds < 2:
        raise ValueError("folds must be >= 2")
    if grid_size < 2:
        raise ValueError("size must be >= 2")
    if "lpd" in methods:
        for name, n in (("n1", spec.n1), ("n2", spec.n2)):
            kept = n - math.ceil(n / cv_folds)  # the class's rows in its smallest training set
            if cv_folds > n:
                raise ValueError(f"lpd's CV cannot form {cv_folds} folds from {name}={n} samples")
            if kept < 2:
                raise ValueError(f"lpd's CV with {cv_folds} folds keeps {kept} of {name}={n} "
                                 "samples in a training set; it needs at least 2")
    return methods


def run_benchmark(
    spec: SimulationSpec,
    methods=METHOD_ORDER,
    cv_folds: int = 5,
    grid_size: int = 20,
    max_workers: int = 1,
) -> EvalReport:
    """Replicated train/test comparison of the requested methods.

    Per replication: draw independent train and test sets of identical
    sizes, tune lambda by ``cv_folds``-fold CV on the train set, fit every
    requested method, and score on the test set. The lambda grid of
    ``grid_size`` values is anchored at each replication's train moments.
    ``lambda_opt`` records the grid value minimizing the test error among
    the lambdas whose refit succeeded; a replication fails only when the
    refit at the CV-chosen lambda fails.

    Bad options raise ValueError before any replication starts (see
    :func:`check_run_options`). Replication ``rep`` draws from
    ``default_rng(SeedSequence(spec.seed, spawn_key=(rep,)))``, which equals
    ``SeedSequence(spec.seed).spawn(spec.reps)[rep]``, built in the process
    that runs it. The replications run on up to ``max_workers`` worker
    processes (:func:`~lpd.parallel.map_tasks`; each replication's CV runs
    in its worker), so results do not depend on ``max_workers``, and a
    caller that forks them never loads ``numpy.random``. A replication
    that raises an :class:`LpdError` fails; any other exception propagates.
    Failed replications are excluded from the averages and counted, never
    silently dropped; ``failures`` lists them in replication order. When
    every replication fails, :class:`SolverFailure` is raised.
    """
    methods = check_run_options(spec, methods, cv_folds, grid_size)

    outcomes = map_tasks(_replication_outcome, (spec, methods, cv_folds, grid_size),
                         spec.reps, max_workers)
    records = [outcome for outcome in outcomes if isinstance(outcome, RepRecord)]
    failures = [outcome for outcome in outcomes if isinstance(outcome, str)]
    if not records:
        raise SolverFailure(f"all {spec.reps} replications failed: {failures[:3]}")

    return EvalReport(
        spec=spec,
        methods=methods,
        failures=failures,
        table=_summarize(spec, methods, records),
        records=records,
    )
