"""Seeded inputs for the three workloads.

Every input is drawn from the AR(1) design of `lpd simulate --model-id 3`
(Sigma_ij = 0.8^|i-j|, mu1 = 0, mu2 = 1 on the first 10 coordinates),
coded here with numpy alone so that the checks can use the same
populations without trusting the program. The program receives only the
files written here.

Inputs that need a solve come from fixed candidate pools, and the run seed
picks which candidates a run uses and in what order. A few candidates are
left out: on them the interior-point solver stops at its iteration limit
(tiny duality gap, feasibility test not met), which fails a whole simulate
replication or a train job. Such failures depend on the input, so they
would make the share of failed jobs differ from run to run. `vet.py` finds
the left-out candidates again; README.md lists them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AR1_RHO = 0.8
S0 = 10

POOL_SEED = 20261018

# simulate-p100: jobs of `lpd simulate --model-id 3 --p 100` at default n1=n2=200.
SIM_P = 100
SIM_REPS = 3
SIM_CANDIDATES = 160
SIM_LEFT_OUT = frozenset({2051437826})

# train-wide: p several times n, so Sigma_hat has rank <= n - 2 << p.
WIDE_P = 300
WIDE_N_PER_CLASS = 30
WIDE_FILES = 8
WIDE_CANDIDATES = 48
WIDE_LEFT_OUT = frozenset()

# predict-batch: a model fitted once on a moderate training file, then a large
# features-only batch.
BATCH_P = 200
BATCH_ROWS = 10_000
BATCH_TRAIN_N_PER_CLASS = 100
BATCH_LAMBDA = 0.25
BATCH_TRAIN_CANDIDATES = 32
BATCH_TRAIN_LEFT_OUT = frozenset()


@dataclass
class Populations:
    """The two Gaussian classes every generated row is drawn from."""

    mu1: np.ndarray
    mu2: np.ndarray
    sigma: np.ndarray

    @property
    def p(self) -> int:
        return self.mu1.size


def ar1_populations(p: int) -> Populations:
    idx = np.arange(p)
    sigma = AR1_RHO ** np.abs(np.subtract.outer(idx, idx))
    mu2 = np.zeros(p)
    mu2[:S0] = 1.0
    return Populations(mu1=np.zeros(p), mu2=mu2, sigma=sigma)


def oracle_rate(pop: Populations) -> float:
    """Bayes error Phi(-sqrt(Delta_p) / 2), Delta_p = delta' Sigma^-1 delta."""
    delta = pop.mu1 - pop.mu2
    delta_p = float(delta @ np.linalg.solve(pop.sigma, delta))
    return normal_cdf(-0.5 * math.sqrt(delta_p))


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def draw(pop: Populations, n_per_class: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """n_per_class rows of each class in a seeded random order; labels are 1 or 2."""
    chol = np.linalg.cholesky(pop.sigma)
    x = np.vstack(
        [mu + rng.standard_normal((n_per_class, pop.p)) @ chol.T for mu in (pop.mu1, pop.mu2)]
    )
    labels = np.repeat([1, 2], n_per_class)
    order = rng.permutation(labels.size)
    return x[order], labels[order]


def write_csv(path, features, labels=None):
    """One row per sample, floats in shortest round-trip form; label first if given."""
    with open(path, "w", encoding="utf-8") as handle:
        for i, row in enumerate(features.tolist()):
            cells = ",".join(map(repr, row))
            handle.write(f"{labels[i]},{cells}\n" if labels is not None else cells + "\n")


@dataclass
class LabeledFile:
    path: str
    features: np.ndarray
    labels: np.ndarray


def simulate_candidates() -> list[int]:
    rng = np.random.default_rng(POOL_SEED)
    return [int(v) for v in rng.choice(2**31 - 1, size=SIM_CANDIDATES, replace=False)]


def simulate_seeds(seed: int) -> list[int]:
    """`lpd simulate --seed` values for the jobs of one run, in run order."""
    pool = [v for v in simulate_candidates() if v not in SIM_LEFT_OUT]
    return [int(v) for v in np.random.default_rng([seed, 1]).permutation(pool)]


def wide_candidate(k: int) -> tuple[np.ndarray, np.ndarray]:
    return draw(ar1_populations(WIDE_P), WIDE_N_PER_CLASS, np.random.default_rng([POOL_SEED, 2, k]))


def batch_train_candidate(k: int) -> tuple[np.ndarray, np.ndarray]:
    return draw(ar1_populations(BATCH_P), BATCH_TRAIN_N_PER_CLASS,
                np.random.default_rng([POOL_SEED, 3, k]))


def write_wide_files(workdir, seed: int) -> list[LabeledFile]:
    pool = [k for k in range(WIDE_CANDIDATES) if k not in WIDE_LEFT_OUT]
    chosen = np.random.default_rng([seed, 2]).choice(pool, size=WIDE_FILES, replace=False)
    files = []
    for k in chosen:
        x, y = wide_candidate(int(k))
        path = f"{workdir}/wide-{k}.csv"
        write_csv(path, x, y)
        files.append(LabeledFile(path, x, y))
    return files


def write_batch_files(workdir, seed: int) -> tuple[LabeledFile, LabeledFile]:
    """(training file, features-only batch with its true labels kept aside)."""
    rng = np.random.default_rng([seed, 3])
    pool = [k for k in range(BATCH_TRAIN_CANDIDATES) if k not in BATCH_TRAIN_LEFT_OUT]
    x, y = batch_train_candidate(int(rng.choice(pool)))
    train = LabeledFile(f"{workdir}/batch-train.csv", x, y)
    write_csv(train.path, x, y)
    xb, yb = draw(ar1_populations(BATCH_P), BATCH_ROWS // 2, rng)
    batch = LabeledFile(f"{workdir}/batch.csv", xb, yb)
    write_csv(batch.path, xb)
    return train, batch
