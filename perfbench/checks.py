"""Output checks computed apart from the program, and their self-tests.

Each check returns the names of the properties that failed (empty when the
output is right). Nothing is compared with a stored copy of an earlier
output: every expected value is recomputed here from the generator's
populations or from the input file, with numpy and scipy alone.

Each self-test corrupts one parsed output in one way and confirms that the
check it targets then fails; a self-test that passes a corrupted output is
reported as a benchmark failure.
"""

from __future__ import annotations

import copy
import csv
import json
import math

import numpy as np
from scipy.optimize import linprog

from inputs import SIM_REPS, LabeledFile, Populations, normal_cdf

SIM_METHODS = ("lpd", "naive_bayes", "glda", "ofair", "oracle")
SIM_ROWS = (
    [("error", m) for m in SIM_METHODS]
    + [("support", k) for k in ("pos", "tpos", "tpr", "fpr")]
    + [("lambda", "hat"), ("lambda", "opt")]
    + [("rate", "conditional"), ("rate", "oracle")]
    + [("meta", "reps_completed"), ("meta", "reps_failed")]
)
GRID_SIZE = 20
GRID_RATIO = 50.0
BAND_SDS = 5.0


# ---- reading outputs -------------------------------------------------------


def read_report(path) -> list:
    """`lpd simulate` report rows as [(section, name, mean, sd), ...]."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if next(reader) != ["section", "name", "mean", "sd"]:
            raise ValueError(f"{path}: unexpected report header")
        return [(s, n, float(m), float(sd)) for s, n, m, sd in reader]


def read_model(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_predictions(path) -> np.ndarray:
    """(N, 3) array of sample_index, predicted_class, score."""
    with open(path, encoding="utf-8") as handle:
        if handle.readline().strip() != "sample_index,predicted_class,score":
            raise ValueError(f"{path}: unexpected predictions header")
        return np.loadtxt(handle, delimiter=",", ndmin=2)


# ---- statistics recomputed from an input file ------------------------------


def first_seen_ids(labels) -> tuple[np.ndarray, list]:
    """Class ids 1, 2, ... in first-seen label order (the program's documented
    convention), and the label text of each id."""
    names: list = []
    for label in labels:
        if label not in names:
            names.append(label)
    lookup = {name: i + 1 for i, name in enumerate(names)}
    return np.asarray([lookup[v] for v in labels]), names


def pooled_moments(x, ids):
    """delta_hat = mean(id 1) - mean(id 2), midpoint, divisor-n pooled covariance."""
    means = [x[ids == k].mean(axis=0) for k in (1, 2)]
    centered = [x[ids == k] - m for k, m in zip((1, 2), means)]
    sigma = sum(c.T @ c for c in centered) / x.shape[0]
    return means[0] - means[1], 0.5 * (means[0] + means[1]), sigma


def l1_optimum(a_rho, b, lam) -> float:
    """min |beta|_1 s.t. |a_rho beta - b|_inf <= lam, by HiGHS on beta = b+ - b-."""
    p = b.size
    a_ub = np.block([[a_rho, -a_rho], [-a_rho, a_rho]])
    b_ub = np.concatenate([lam + b, lam - b])
    res = linprog(np.ones(2 * p), A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP did not solve: {res.message}")
    return float(res.fun)


def error_rate(pop: Populations, beta, mu_hat, threshold, id_of_label) -> tuple:
    """Per-class error of the rule 'id 1 iff (z - mu_hat)'beta >= threshold'
    under the true Gaussian populations; label text '1' is mu1, '2' is mu2."""
    s = math.sqrt(float(beta @ pop.sigma @ beta))
    rates = []
    for label, mu in (("1", pop.mu1), ("2", pop.mu2)):
        below = normal_cdf((threshold - float((mu - mu_hat) @ beta)) / s)
        rates.append(below if id_of_label[label] == 1 else 1.0 - below)
    return tuple(rates)


# ---- simulate-p100 ---------------------------------------------------------


def check_simulate(rows, oracle: float, reps: int = SIM_REPS) -> list:
    failed = []
    table = {(s, n): m for s, n, m, _ in rows}
    if [(s, n) for s, n, _, _ in rows] != SIM_ROWS:
        failed.append("rows")
    get = lambda key: table.get(key, float("nan"))  # noqa: E731
    if not abs(get(("rate", "oracle")) - oracle) <= 1e-9 * oracle:
        failed.append("oracle_rate")
    if not get(("rate", "conditional")) >= oracle * (1 - 1e-12):
        failed.append("conditional_ge_oracle")
    if not (get(("meta", "reps_completed")) == reps and get(("meta", "reps_failed")) == 0):
        failed.append("reps")
    errors = [get(("error", m)) for m in SIM_METHODS]
    support_rates = [get(("support", k)) for k in ("tpr", "fpr")]
    if not (all(0 <= e <= 100 for e in errors) and all(0 <= r <= 1 for r in support_rates)):
        failed.append("ranges")
    return failed


def self_test_simulate(rows, oracle) -> list:
    def edit(key, value):
        out = copy.deepcopy(rows)
        for i, (s, n, _, sd) in enumerate(out):
            if (s, n) == key:
                out[i] = (s, n, value, sd)
        return out

    table = {(s, n): m for s, n, m, _ in rows}
    cases = [
        ("rows", rows[:3] + rows[4:]),
        ("oracle_rate", edit(("rate", "oracle"), oracle * 1.001)),
        ("conditional_ge_oracle", edit(("rate", "conditional"), oracle * 0.99)),
        ("reps", edit(("meta", "reps_failed"), 1.0)),
        ("ranges", edit(("error", "glda"), 100.5)),
        ("ranges", edit(("support", "tpr"), table[("support", "tpr")] + 1.0)),
    ]
    return [name for name, bad in cases if name not in check_simulate(bad, oracle)]


# ---- train-wide ------------------------------------------------------------


class TrainChecker:
    """Checks `lpd train --lambda auto` models against their input files.

    The reference LP optimum is cached per (file, lambda), because a run
    trains repeatedly on the same few files.
    """

    def __init__(self):
        self._moments = {}
        self._lp = {}

    def _stats(self, data: LabeledFile):
        if data.path not in self._moments:
            ids, _ = first_seen_ids(data.labels.tolist())
            self._moments[data.path] = pooled_moments(data.features, ids)
        return self._moments[data.path]

    def check(self, model: dict, data: LabeledFile) -> list:
        n, p = data.features.shape
        delta, mid, sigma = self._stats(data)
        beta = np.asarray(model.get("beta", []), dtype=float)
        mu_hat = np.asarray(model.get("mu_hat", []), dtype=float)
        if model.get("p") != p or beta.shape != (p,) or mu_hat.shape != (p,):
            return ["shape"]
        failed = []
        lam, rho = float(model["lambda"]), float(model["ridge_rho"])
        lam_max = float(np.abs(delta).max())
        grid = lam_max * GRID_RATIO ** (-np.arange(GRID_SIZE) / (GRID_SIZE - 1))
        if not np.min(np.abs(grid - lam) / grid) <= 1e-9:
            failed.append("lambda_grid")
        rho_ref = math.sqrt(math.log(p) / n)
        if not abs(rho - rho_ref) <= 1e-12 * rho_ref:
            failed.append("ridge_rho")
        if not np.allclose(mu_hat, mid, rtol=0, atol=1e-12 * (1 + np.abs(mid).max())):
            failed.append("mu_hat")
        a_rho = sigma + rho_ref * np.eye(p)
        if not np.abs(a_rho @ beta - delta).max() <= lam * (1 + 1e-6) + 1e-8:
            failed.append("residual")
        key = (data.path, lam)
        if key not in self._lp:
            self._lp[key] = l1_optimum(a_rho, delta, lam)
        best = self._lp[key]
        # The solver certifies its gap relative to 1 + |objective|; at the top
        # of the grid the optimum is beta = 0 and the iterate is only near it.
        if not abs(np.abs(beta).sum() - best) <= 1e-6 * (1 + best):
            failed.append("l1_optimal")
        return failed

    def self_test(self, model: dict, data: LabeledFile) -> list:
        def edit(key, fn):
            out = copy.deepcopy(model)
            out[key] = fn(out[key])
            return out

        lam, rho = float(model["lambda"]), float(model["ridge_rho"])
        bump = 1e-3 * max(sum(abs(v) for v in model["beta"]), 1.0)
        cases = [
            ("shape", edit("beta", lambda b: b[:-1])),
            ("lambda_grid", edit("lambda", lambda v: v * 1.01)),
            ("ridge_rho", edit("ridge_rho", lambda v: v * 1.01)),
            ("mu_hat", edit("mu_hat", lambda m: [m[0] + 1e-3] + m[1:])),
            # A_00 >= ridge_rho, so this moves constraint 0 by at least 3 lambda + 1.
            ("residual", edit("beta", lambda b: [b[0] + (3 * lam + 1) / rho] + b[1:])),
            ("l1_optimal", edit("beta", lambda b: [b[0] + bump * (1 if b[0] >= 0 else -1)] + b[1:])),
        ]
        return [name for name, bad in cases if name not in self.check(bad, data)]


# ---- predict-batch ---------------------------------------------------------


def check_predict(pred, model: dict, batch: LabeledFile, train_labels, pop: Populations) -> list:
    n = batch.features.shape[0]
    if pred.shape != (n, 3) or not np.array_equal(pred[:, 0], np.arange(n)):
        return ["rows"]
    failed = []
    beta = np.asarray(model["beta"], dtype=float)
    mu_hat = np.asarray(model["mu_hat"], dtype=float)
    threshold = float(model["threshold"])
    classes, scores = pred[:, 1], pred[:, 2]
    expected = (batch.features - mu_hat) @ beta
    if not np.abs(scores - expected).max() <= 1e-9 * (1 + np.abs(expected).max()):
        failed.append("scores")
    if not np.array_equal(classes, np.where(scores >= threshold, 1, 2)):
        failed.append("classes")
    _, names = first_seen_ids([str(v) for v in train_labels])
    id_of_label = {name: i + 1 for i, name in enumerate(names)}
    truth = batch.labels.astype(str)
    predicted = np.asarray(names, dtype=object)[np.clip(classes.astype(int), 1, 2) - 1]
    errors = int(np.sum(predicted != truth))
    counts = [int(np.sum(truth == label)) for label in ("1", "2")]
    rates = error_rate(pop, beta, mu_hat, threshold, id_of_label)
    mean = sum(c * r for c, r in zip(counts, rates))
    sd = math.sqrt(sum(c * r * (1 - r) for c, r in zip(counts, rates)))
    if not abs(errors - mean) <= BAND_SDS * sd + 1:
        failed.append("accuracy")
    return failed


def self_test_predict(pred, model, batch, train_labels, pop) -> list:
    flip_one = pred.copy()
    flip_one[7, 1] = 3 - flip_one[7, 1]
    bump_score = pred.copy()
    bump_score[11, 2] += 1e-3
    flip_all = pred.copy()
    flip_all[:, 1] = 3 - flip_all[:, 1]
    cases = [
        ("rows", pred[1:]),
        ("classes", flip_one),
        ("scores", bump_score),
        ("accuracy", flip_all),
    ]
    return [
        name for name, bad in cases if name not in check_predict(bad, model, batch, train_labels, pop)
    ]
