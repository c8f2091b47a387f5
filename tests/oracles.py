"""Independent reference implementations used only by tests.

Nothing here imports from the package's numerical internals: the gaussian
elimination, determinant, covariance loop, and two-phase simplex are
self-contained, so they can serve as oracles for the library paths they
check.
"""

import math

import numpy as np


def gauss_solve(a, b):
    """Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[pivot, k]) < 1e-300:
            raise ZeroDivisionError("singular matrix")
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            b[[k, pivot]] = b[[pivot, k]]
        for i in range(k + 1, n):
            factor = a[i, k] / a[k, k]
            a[i, k:] -= factor * a[k, k:]
            b[i] -= factor * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def determinant(a):
    """Determinant via elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    det = 1.0
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[pivot, k]) < 1e-300:
            return 0.0
        if pivot != k:
            a[[k, pivot]] = a[[pivot, k]]
            det = -det
        det *= a[k, k]
        for i in range(k + 1, n):
            a[i, k:] -= (a[i, k] / a[k, k]) * a[k, k:]
    return det


def loop_pooled_covariance(features, labels):
    """Divisor-n pooled covariance by explicit double loops."""
    n, p = features.shape
    sigma = np.zeros((p, p))
    for k in sorted(set(labels.tolist())):
        rows = [i for i in range(n) if labels[i] == k]
        mean = [sum(features[i][j] for i in rows) / len(rows) for j in range(p)]
        for i in rows:
            centered = [features[i][j] - mean[j] for j in range(p)]
            for a in range(p):
                for b in range(p):
                    sigma[a, b] += centered[a] * centered[b]
    return sigma / n


def soft_threshold(b, lam):
    b = np.asarray(b, dtype=float)
    return np.sign(b) * np.maximum(np.abs(b) - lam, 0.0)


class SimplexError(Exception):
    pass


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _bland_iterate(tableau, basis, cost, tol=1e-9, max_pivots=100000):
    """Run Bland's-rule simplex to optimality on a canonical tableau."""
    m = tableau.shape[0]
    n = cost.size
    for _ in range(max_pivots):
        reduced = cost - cost[basis] @ tableau[:, :n]
        entering = [j for j in range(n) if reduced[j] < -tol]
        if not entering:
            return
        col = entering[0]
        rows = [i for i in range(m) if tableau[i, col] > tol]
        if not rows:
            raise SimplexError("unbounded")
        ratios = [tableau[i, -1] / tableau[i, col] for i in rows]
        best = min(ratios)
        tied = [i for i, r in zip(rows, ratios) if r <= best + tol]
        leave = min(tied, key=lambda i: basis[i])
        _pivot(tableau, basis, leave, col)
    raise SimplexError("pivot limit exceeded")


def simplex_solve(c, g, h, tol=1e-8):
    """Textbook two-phase simplex for min c'x s.t. Gx <= h, x free.

    Free variables are split x = xp - xm; slack variables complete the
    equality form. Returns (x, objective). Raises SimplexError when the
    constraints are infeasible or the objective is unbounded.
    """
    c = np.asarray(c, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    m, n = g.shape
    a = np.hstack([g, -g, np.eye(m)])
    b = h.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    n_real = 2 * n + m

    # phase 1: artificial identity basis
    tableau = np.hstack([a, np.eye(m), b[:, None]])
    basis = list(range(n_real, n_real + m))
    cost1 = np.concatenate([np.zeros(n_real), np.ones(m)])
    _bland_iterate(tableau, basis, cost1, tol=tol / 10)
    if cost1[basis] @ tableau[:, -1] > tol:
        raise SimplexError("infeasible")
    # drive artificials out of the basis (or drop redundant rows)
    keep = []
    for row in range(m):
        if basis[row] < n_real:
            keep.append(row)
            continue
        pivots = [j for j in range(n_real) if abs(tableau[row, j]) > tol]
        if pivots:
            _pivot(tableau, basis, row, pivots[0])
            keep.append(row)
    tableau = np.hstack([tableau[keep][:, :n_real], tableau[keep][:, -1:]])
    basis = [basis[row] for row in keep]

    cost2 = np.concatenate([c, -c, np.zeros(m)])
    _bland_iterate(tableau, basis, cost2, tol=tol / 10)
    solution = np.zeros(n_real)
    solution[basis] = tableau[:, -1]
    x = solution[:n] - solution[n : 2 * n]
    return x, float(cost2[basis] @ tableau[:, -1])


def l1_oracle(a_rho, b, lam):
    """Brute-force optimum of min |beta|_1 s.t. |A_rho beta - b|_inf <= lam,
    through the generic simplex on the (beta, u) standard form."""
    b = np.asarray(b, dtype=float)
    p = b.size
    lam_vec = np.full(p, lam)
    h = np.concatenate([np.zeros(p), np.zeros(p), lam_vec - b, lam_vec + b])
    c = np.concatenate([np.zeros(p), np.ones(p)])
    x, objective = simplex_solve(c, constraint_matrix(a_rho), h)
    return x[:p], objective


def constraint_matrix(a_rho):
    """The 4p x 2p inequality matrix G of the (beta, u) standard form, G (beta, u)
    <= h: rows -beta - u, beta - u, -A_rho beta and A_rho beta."""
    a_rho = np.asarray(a_rho, dtype=float)
    eye = np.eye(a_rho.shape[0])
    zero = np.zeros_like(a_rho)
    return np.block([[-eye, -eye], [eye, -eye], [-a_rho, zero], [a_rho, zero]])


def oracle_independence_gap(sigma, delta):
    """Separation of the independence rule versus the full-covariance rule.

    Returns (upsilon_p, delta_p) where
    upsilon_p = delta' D^{-1} delta / sqrt(delta' D^{-1} Sigma D^{-1} delta)
    with D = diag(Sigma), and delta_p = delta' Sigma^{-1} delta. Always
    delta_p >= upsilon_p ** 2.
    """
    sigma = np.asarray(sigma, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if not np.any(delta):
        return 0.0, 0.0
    scaled = delta / np.diag(sigma)
    upsilon = float(delta @ scaled) / math.sqrt(float(scaled @ sigma @ scaled))
    return upsilon, float(delta @ gauss_solve(sigma, delta))
