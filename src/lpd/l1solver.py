"""Constrained l1 minimization solved as a linear program.

Solves

    minimize |beta|_1  subject to  |A_rho beta - b|_inf <= lambda,

with A_rho = A + ridge_rho * I, by recasting in auxiliary variables
(beta, u) as

    min sum_j u_j
    s.t. -beta_j <= u_j,  +beta_j <= u_j          (j = 1..p)
         -a_k' beta + b_k <= lambda               (k = 1..p)
         +a_k' beta - b_k <= lambda               (k = 1..p)

and running a primal-dual path-following method with the Mehrotra
predictor-corrector. The KKT Newton systems are reduced to a single p x p
SPD solve per iteration by eliminating the (u, slack, dual) blocks, so the
4p x 2p constraint matrix is never materialized in the hot path.

That p x p system is A_rho W A_rho + D with W and D diagonal. When the
problem carries a thin factor U of A (A = U U', k columns, 2k < p), the
system is diagonal plus rank 2k and is solved by Sherman-Morrison-Woodbury
at O(p k^2) per iteration instead of O(p^3). Every such solve is checked
against the dense operator; an iteration whose check fails falls back to
the dense assembly and Cholesky.

solve_grid solves the program at every lambda of a grid as one batch: the
start point is shared, and the members' iterations run in step on stacked
arrays, each member bit-identical to solve at its lambda.

The solver is deterministic: no randomization anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InfeasibleProblem,
    NotPositiveDefinite,
    SolverError,
    SolverFailure,
)

OPTIMAL = "optimal"
ITERATION_LIMIT = "iteration_limit"
NUMERICAL_FAILURE = "numerical_failure"

# The step is capped at this fraction of the distance to the boundary.
_STEP_FRACTION = 0.99
_CHOL_JITTERS = (0.0, 1e-14, 1e-10, 1e-6)
# A Woodbury solve of H x = r passes when ||r - H x||_inf <= _WOODBURY_RTOL *
# (1 + ||r||_inf), with H applied densely, after at most _REFINE_STEPS steps
# of iterative refinement.
_WOODBURY_RTOL = 1e-10
_REFINE_STEPS = 3
# solve_grid keeps at most this many bytes of Newton systems alive at once.
_GROUP_BYTES = 2 << 20

# Coefficients at or below this magnitude are interior-point noise around an
# exact zero; the dual normalization keeps the scale absolute.
ZERO_FLOOR = 1e-7
# The support is the coefficients above this fraction of max |beta_i|.
SUPPORT_EPS = 1e-3
# Scaled primal and dual residual bound an optimal iterate must meet.
FEAS_TOL = 1e-8


@dataclass
class LpProblem:
    """One constrained l1 program: symmetric A, target b, radius lam.

    ``factor`` is an optional p x k matrix U with A = U U' (for a sample
    covariance, the centred data over sqrt(n)). It only speeds up the
    Newton solves; residuals and the certificate always use A.
    """

    A: np.ndarray
    b: np.ndarray
    lam: float
    ridge_rho: float = 0.0
    factor: np.ndarray | None = None

    def __post_init__(self):
        self.A = linalg.check_symmetric(self.A, "A")
        self.b = linalg.as_vector(self.b, "b")
        if self.A.shape[0] != self.b.size:
            raise DimensionMismatch(
                f"A is {self.A.shape} but b has length {self.b.size}"
            )
        self.lam = float(self.lam)
        self.ridge_rho = float(self.ridge_rho)
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.ridge_rho < 0:
            raise ValueError("ridge_rho must be >= 0")
        if self.factor is not None:
            self.factor = linalg.as_matrix(self.factor, "factor")
            if self.factor.shape[0] != self.b.size:
                raise DimensionMismatch(
                    f"factor is {self.factor.shape} but b has length {self.b.size}"
                )

    @property
    def p(self) -> int:
        return self.b.size


@dataclass
class SolverConfig:
    """Interior-point tolerances; all must be positive."""

    gap_tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        for name in ("gap_tol", "max_iter"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class LpSolution:
    """Solver output; ``duality_gap`` is the relative complementarity gap.

    ``low_rank`` tells whether the Newton systems went through the Woodbury
    step; ``fallbacks`` counts the iterations that then needed the dense
    factor after all.
    """

    beta: np.ndarray
    objective: float
    max_residual: float
    iterations: int
    duality_gap: float
    status: str
    low_rank: bool = False
    fallbacks: int = 0


@dataclass
class StandardFormLp:
    """The (beta, u) linear program with the ridge folded into the matrix.

    Variables are x = (beta, u) of length 2p; constraints number 4p, in the
    fixed block order (-beta - u, +beta - u, -A beta, +A beta) against the
    right-hand side (0, 0, lam - b, lam + b).
    """

    a_rho: np.ndarray
    b: np.ndarray
    lam: float

    @property
    def p(self) -> int:
        return self.b.size

    @property
    def n_vars(self) -> int:
        return 2 * self.p

    @property
    def n_constraints(self) -> int:
        return 4 * self.p

    def rhs(self, lam=None) -> np.ndarray:
        """The right-hand side at ``self.lam``, or one row per entry of an array ``lam``."""
        lam = np.asarray(self.lam if lam is None else lam, dtype=float)[..., None]
        zeros = np.zeros(lam.shape[:-1] + (2 * self.p,))
        return np.concatenate([zeros, lam - self.b, lam + self.b], axis=-1)

    def times_a(self, x) -> np.ndarray:
        """A_rho @ x for a vector, or for each row of a matrix. Row by row: one
        matrix product over all rows would round differently from the vector case."""
        if x.ndim == 1:
            return self.a_rho @ x
        out = np.empty_like(x)
        for row, target in zip(x, out):
            np.matmul(self.a_rho, row, out=target)
        return out

    def apply_g(self, beta, u, ab=None) -> np.ndarray:
        """G @ (beta, u) without materializing G, for one point or one per row;
        ``ab`` is A_rho @ beta if the caller already has it."""
        if ab is None:
            ab = self.times_a(beta)
        return np.concatenate([-beta - u, beta - u, -ab, ab], axis=-1)

    def apply_gt(self, z) -> tuple[np.ndarray, np.ndarray]:
        """G' @ z, returned as its (beta, u) blocks, for one z or one per row."""
        blocks = z.reshape(z.shape[:-1] + (4, self.p))
        z1, z2 = blocks[..., 0, :], blocks[..., 1, :]
        return z2 - z1 + self.times_a(blocks[..., 3, :] - blocks[..., 2, :]), -(z1 + z2)

    def constraint_matrix(self) -> np.ndarray:
        """Materialized 4p x 2p inequality matrix (inspection and tests only)."""
        p = self.p
        eye = np.eye(p)
        zero = np.zeros((p, p))
        return np.block(
            [
                [-eye, -eye],
                [eye, -eye],
                [-self.a_rho, zero],
                [self.a_rho, zero],
            ]
        )


def build_lp(problem: LpProblem) -> StandardFormLp:
    """Recast the constrained l1 program as the standard-form inequality LP."""
    a_rho = problem.A
    if problem.ridge_rho > 0:
        a_rho = a_rho.copy()
        _diagonal(a_rho)[:] += problem.ridge_rho
    return StandardFormLp(a_rho=a_rho, b=problem.b.copy(), lam=problem.lam)


def _diagonal(square):
    """Writable strided view of the diagonal of a C-contiguous square array."""
    return square.reshape(-1)[:: square.shape[0] + 1]


def _step_lengths(v, dv):
    """For each row of v > 0, the largest alpha in [0, 1] keeping v + alpha * dv >= 0.

    That is min(1, min over dv_i < 0 of -v_i / dv_i), taken as minus the largest
    v_i / dv_i. The other entries divide by NaN, which the NaN-skipping fmax and
    fmin pass over; a row with no dv_i < 0 gets the full step.
    """
    ratio = v / np.where(dv < 0, dv, np.nan)
    return np.fmin(-np.fmax.reduce(ratio, axis=-1), 1.0)


def _solution(sf, beta, iterations, gap, status, low_rank=False, fallbacks=0):
    resid = float(np.abs(sf.a_rho @ beta - sf.b).max())
    return LpSolution(
        beta=beta.copy(),
        objective=float(np.abs(beta).sum()),
        max_residual=resid,
        iterations=iterations,
        duality_gap=gap,
        status=status,
        low_rank=low_rank,
        fallbacks=fallbacks,
    )


def _low_rank(p: int, k: int) -> bool:
    """Whether a k-column factor makes the Woodbury step cheaper than the dense one."""
    return 2 * k < p


def _dense_newton_factor(a_rho, w, dd):
    """Cholesky factor of A_rho diag(w) A_rho + diag(dd), escalating the jitter
    along _CHOL_JITTERS; raises NotPositiveDefinite when every level fails."""
    h_mat = a_rho @ (w[:, None] * a_rho)
    diagonal = _diagonal(h_mat)
    diagonal += dd
    for jitter in _CHOL_JITTERS:
        trial = h_mat
        if jitter > 0.0:
            trial = h_mat.copy()
            _diagonal(trial)[:] += jitter * float(np.abs(diagonal).max())
        try:
            return linalg.spd_factor(trial)
        except NotPositiveDefinite:
            continue
    raise NotPositiveDefinite("Newton matrix rejected at every jitter level")


class _NewtonSystem:
    """H = A_rho diag(w) A_rho + diag(dd), the reduced Newton matrix of one iteration.

    Without a factor, H is assembled densely and Cholesky-factored. With a
    factor U (A_rho = U U' + rho I), H = G + V C V' where G = rho^2 diag(w) +
    diag(dd), V = [U, W U] and C = [[U' W U, rho I], [rho I, 0]], and
    H^{-1} r = G^{-1} r - G^{-1} V K^{-1} C V' G^{-1} r through the LU of the
    2k x 2k capacitance matrix K = I + C V' G^{-1} V. Each such solve is
    checked against the dense H and refined; if it still fails, the dense
    factor is built and used for the rest of the iteration.
    """

    def __init__(self, a_rho, w, dd, factor=None, rho=0.0):
        self.a_rho, self.w, self.dd = a_rho, w, dd
        self.low_rank = factor is not None
        self.dense = None
        self.lu = None
        if factor is None:
            self.dense = _dense_newton_factor(a_rho, w, dd)
            return
        self.k, self.rho = factor.shape[1], rho
        self.g = rho * rho * w + dd
        if not np.all(self.g > 0):
            return
        self.v = np.hstack([factor, w[:, None] * factor])
        self.m = factor.T @ self.v[:, self.k :]
        scaled = self.v / np.sqrt(self.g)[:, None]
        capacitance = self._apply_c(scaled.T @ scaled)
        _diagonal(capacitance)[:] += 1.0
        if np.all(np.isfinite(capacitance)):
            self.lu = linalg.lu_factor(capacitance)

    @property
    def fell_back(self) -> bool:
        """True once a Woodbury solve failed its check and the dense factor took over."""
        return self.low_rank and self.dense is not None

    def apply(self, x):
        """H x with the dense A_rho."""
        return self.a_rho @ (self.w * (self.a_rho @ x)) + self.dd * x

    def _apply_c(self, x):
        """C x by blocks: C = [[M, rho I], [rho I, 0]] with M = U' W U."""
        top, bottom = x[: self.k], x[self.k :]
        return np.concatenate([self.m @ top + self.rho * bottom, self.rho * top])

    def _woodbury(self, r):
        y = r / self.g
        t = linalg.lu_solve(self.lu, self._apply_c(self.v.T @ y))
        return y - (self.v @ t) / self.g

    def _checked_woodbury(self, r):
        """Woodbury solution that passes the residual check, or None."""
        if self.lu is None:
            return None
        tol = _WOODBURY_RTOL * (1.0 + float(np.abs(r).max()))
        x = self._woodbury(r)
        for step in range(_REFINE_STEPS + 1):
            resid = r - self.apply(x)
            if float(np.abs(resid).max()) <= tol:
                return x
            if step < _REFINE_STEPS:
                x = x + self._woodbury(resid)
        return None

    def solve(self, r):
        if self.dense is None:
            x = self._checked_woodbury(r)
            if x is not None:
                return x
            self.dense = _dense_newton_factor(self.a_rho, self.w, self.dd)
        return linalg.spd_solve(self.dense, r)


def solve(problem: LpProblem, config: SolverConfig | None = None) -> LpSolution:
    """Solve the constrained l1 program by the primal-dual interior-point method.

    Returns a solution whose status is ``optimal`` only when primal and dual
    feasibility hold within FEAS_TOL, the relative complementarity gap is
    below gap_tol, and the constraint residual certifies
    ||A_rho beta - b||_inf <= lam * (1 + 1e-6) + 1e-8. Raises
    InfeasibleProblem when ridge_rho = 0, A is singular, and the least-norm
    residual exceeds lam. The batch of one of :func:`solve_grid`.
    """
    result = solve_grid(problem, [problem.lam], config)[0]
    if isinstance(result, SolverError):
        raise result
    return result


def solve_grid(problem: LpProblem, lambdas, config: SolverConfig | None = None) -> list:
    """:func:`solve` at every lambda of ``lambdas`` (``problem.lam`` is not used).

    A_rho, its Cholesky factor and the starting point beta0 = A_rho^{-1} b do
    not depend on lambda and are built once. The members then run one
    interior-point iteration loop together, a few at a time so that their
    Newton systems stay within _GROUP_BYTES; each member is bit-identical to
    :func:`solve` at its lambda. Entry j is that LpSolution, or the
    SolverError :func:`solve` would raise at lambdas[j].
    """
    if config is None:
        config = SolverConfig()
    lams = np.asarray(lambdas, dtype=float).reshape(-1)
    if np.any(lams < 0):
        raise ValueError("lam must be >= 0")
    sf = build_lp(problem)
    factor = problem.factor
    if factor is not None and not _low_rank(sf.p, factor.shape[1]):
        factor = None
    results: list = [None] * lams.size
    try:
        beta0 = linalg.spd_solve(linalg.spd_factor(sf.a_rho), sf.b)
    except NotPositiveDefinite as exc:
        if problem.ridge_rho > 0 and np.any(lams > 0):
            raise
        beta0 = linalg.pseudo_inverse(sf.a_rho) @ sf.b
        resid = float(np.abs(sf.a_rho @ beta0 - sf.b).max())
        for j, lam in enumerate(lams.tolist()):
            if lam == 0.0:
                # the feasible set is the single point A_rho^{-1} b
                results[j] = SolverFailure(
                    "lambda = 0 requires a positive-definite constraint matrix")
                results[j].__cause__ = exc
            elif resid > lam * (1 + 1e-9) + 1e-12:
                results[j] = InfeasibleProblem(
                    f"singular constraint matrix: least-norm residual {resid:.3e} "
                    f"exceeds lambda {lam:.3e}")
    else:
        for j in np.flatnonzero(lams == 0.0):  # no interior to walk
            results[j] = _solution(sf, beta0, 0, 0.0, OPTIMAL)
    members = [j for j, result in enumerate(results) if result is None]
    size = _group_size(sf.p, factor)
    for start in range(0, len(members), size):
        group = members[start : start + size]
        for j, sol in zip(group, _interior_point(sf, beta0, lams[group], config, factor,
                                                  problem.ridge_rho)):
            results[j] = sol
    return results


def _group_size(p: int, factor) -> int:
    """How many members iterate together: their Newton systems (a p x p factor,
    or V = [U, W U] and the capacitance LU) fit in _GROUP_BYTES."""
    k = 0 if factor is None else factor.shape[1]
    floats = p * p if factor is None else 2 * p * k + 5 * k * k
    return max(1, _GROUP_BYTES // (8 * floats))


def _interior_point(sf: StandardFormLp, beta0, lams, config, factor, rho) -> list:
    """Mehrotra predictor-corrector iterations from beta0, one member per lambda > 0.

    Every array holds one row per member still running. The iterate updates,
    residuals and step lengths act on all rows at once; products with A_rho,
    dot products and the Newton systems are taken member by member, so each
    member rounds exactly as it would alone. A member leaves when it
    certifies or fails.
    """
    p = sf.p
    m = sf.n_constraints
    out = [None] * lams.size
    ids = np.arange(lams.size)
    beta = np.tile(beta0, (lams.size, 1))
    u = np.abs(beta) + 1.0
    h = sf.rhs(lams)
    # per member, slacks s and duals z are the rows of one (2, m) block, so one pass
    # finds both step lengths
    sz = np.empty((lams.size, 2, m))
    sz[:, 0] = np.maximum(h - sf.apply_g(beta, u), 1e-10 * (1.0 + lams)[:, None])
    sz[:, 1] = 1.0
    h_scale = 1.0 + np.abs(h).max(axis=1)
    resid_cert = lams * (1 + 1e-6) + 1e-8
    fallbacks = np.zeros(lams.size, dtype=int)

    def finish(leaving, iterations, status, gap_rel):
        for i in np.flatnonzero(leaving):
            out[ids[i]] = _solution(sf, beta[i], iterations, float(gap_rel[i]), status,
                                    factor is not None, int(fallbacks[i]))

    for iterations in range(config.max_iter):
        s, z = sz[:, 0], sz[:, 1]
        ab = sf.times_a(beta)
        rp = sf.apply_g(beta, u, ab) + s - h
        rd_beta, gt_u = sf.apply_gt(z)
        rd_u = 1.0 + gt_u  # c = (0, 1)
        comp = [float(si @ zi) for si, zi in zip(s, z)]
        gap_rel = np.array(comp) / (1.0 + np.abs(u.sum(axis=1)))
        done = (
            (gap_rel <= config.gap_tol)
            & (np.abs(rp).max(axis=1) / h_scale <= FEAS_TOL)
            & (np.maximum(np.abs(rd_beta).max(axis=1), np.abs(rd_u).max(axis=1)) / 2.0
               <= FEAS_TOL)
            & (np.abs(ab - sf.b).max(axis=1) <= resid_cert)
        )
        # Certified members take no Newton step, nor do members whose Newton system failed.
        failed = np.zeros(ids.size, dtype=bool)

        def stepping():
            return np.flatnonzero(~(done | failed))

        d = z / s
        d1, d2, d3, d4 = (d.reshape(-1, 4, p)[:, k] for k in range(4))
        e = d1 + d2
        f = d1 - d2
        f_e = f / e
        sz_prod = s * z
        d_rp = d * rp
        neg_s, neg_rp, neg_rd_beta, neg_rd_u = -s, -rp, -rd_beta, -rd_u
        w, dd = d3 + d4, 4.0 * d1 * d2 / e
        newtons = [None] * ids.size
        for i in stepping():
            try:
                newtons[i] = _NewtonSystem(sf.a_rho, w[i], dd[i], factor, rho)
            except NotPositiveDefinite:  # the dense factor
                failed[i] = True

        def newton_step(rcomp):
            """Directions (dbeta, du) and the stacked (ds, dz); zero dbeta where no step."""
            gt_t_beta, gt_t_u = sf.apply_gt(d_rp - rcomp / s)
            r2 = neg_rd_u - gt_t_u
            rhs = neg_rd_beta - gt_t_beta - f_e * r2
            dbeta = np.zeros_like(rhs)
            for i in stepping():
                try:
                    dbeta[i] = newtons[i].solve(rhs[i])
                except NotPositiveDefinite:  # the dense factor, as a fallback
                    failed[i] = True
            du = (r2 - f * dbeta) / e
            dsz = np.empty((ids.size, 2, m))
            np.subtract(neg_rp, sf.apply_g(dbeta, du), out=dsz[:, 0])  # ds = -rp - G (dbeta, du)
            np.divide(rcomp + z * dsz[:, 0], neg_s, out=dsz[:, 1])  # dz = -(rcomp + z ds) / s
            return dbeta, du, dsz

        _, _, dsz_a = newton_step(sz_prod)
        trial = sz + _step_lengths(sz, dsz_a)[:, :, None] * dsz_a
        sigma_mu = np.zeros(ids.size)
        for i in stepping():  # in Python floats: numpy's power rounds differently
            mu = comp[i] / m
            mu_aff = float(trial[i, 0] @ trial[i, 1]) / m
            sigma_mu[i] = min(1.0, max(0.0, (mu_aff / max(mu, 1e-300)) ** 3)) * mu
        dbeta, du, dsz = newton_step(sz_prod + dsz_a[:, 0] * dsz_a[:, 1] - sigma_mu[:, None])

        fallbacks += [factor is not None if bad else newton is not None and newton.fell_back
                      for bad, newton in zip(failed, newtons)]
        alphas = _STEP_FRACTION * _step_lengths(sz, dsz)
        failed |= ~done & (alphas[:, 0] < 1e-10) & (alphas[:, 1] < 1e-10)
        leaving = done | failed
        if leaving.any():
            finish(done, iterations, OPTIMAL, gap_rel)
            finish(failed, iterations, NUMERICAL_FAILURE, gap_rel)
            ids, beta, u, sz, h, h_scale, resid_cert, fallbacks, gap_rel, alphas, dbeta, du, dsz = (
                a[~leaving] for a in (ids, beta, u, sz, h, h_scale, resid_cert, fallbacks, gap_rel,
                                      alphas, dbeta, du, dsz))
            if not ids.size:
                break
        beta += alphas[:, :1] * dbeta
        u += alphas[:, :1] * du
        sz += alphas[:, :, None] * dsz
    else:
        finish(np.ones(ids.size, dtype=bool), config.max_iter, ITERATION_LIMIT, gap_rel)
    return out


def support(solution: LpSolution) -> np.ndarray:
    """Indices j with |beta_j| > SUPPORT_EPS * max_i |beta_i| (0-based, sorted).

    Relative thresholding because interior-point iterates are never exactly
    zero. A numerically zero beta (every entry within the solver's gap-level
    noise, which sits in absolute units because the dual normalizes the
    objective block) yields the empty set.
    """
    if solution.status != OPTIMAL:
        raise ValueError(f"support requires an optimal solution, got {solution.status!r}")
    return np.flatnonzero(support_mask(solution.beta))


def support_mask(beta) -> np.ndarray:
    """Boolean mask of |beta_j| > SUPPORT_EPS * max_i |beta_i|; all False when
    max |beta| <= ZERO_FLOOR. The one support threshold of the package."""
    mags = np.abs(beta)
    top = mags.max() if mags.size else 0.0
    if top <= ZERO_FLOOR:
        return np.zeros(mags.size, dtype=bool)
    return mags > SUPPORT_EPS * top
