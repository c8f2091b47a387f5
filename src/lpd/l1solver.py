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

solve_path solves a grid along the program's solution path instead. The
right-hand side is linear in lambda, so beta is piecewise linear in it; a
parametric dual simplex follows it down from beta = 0 at lambda =
||b||_inf, one pivot per breakpoint, on the inverse of the active block
A_rho[J, I] kept by rank-one updates. A grid point it reads off the path is
optimal only under an exact primal-dual certificate; the points it cannot
certify go to solve_grid. CV and the simulate refits solve their grids this
way; solve, the single-lambda fit, stays on the interior-point method.

The solver is deterministic: no randomization anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
# solve_path re-inverts its active block afresh every _REFACTOR_PIVOTS
# pivots, and hands the rest of its grid to solve_grid after
# _PIVOTS_PER_COORDINATE * p pivots. Its ratio tests take no pivot of
# magnitude <= _PIVOT_TOL, and may overstep a bound by _BOUND_TOL.
_REFACTOR_PIVOTS = 64
_PIVOTS_PER_COORDINATE = 10
_PIVOT_TOL = 1e-9
_BOUND_TOL = 1e-11
# The upper (+1) and lower (-1) bound of a constraint row, as a column.
_SIDES = np.array([[1.0], [-1.0]])

# Coefficients at or below this magnitude are interior-point noise around an
# exact zero; the dual normalization keeps the scale absolute.
ZERO_FLOOR = 1e-7
# The support is the coefficients above this fraction of max |beta_i|.
SUPPORT_EPS = 1e-3
# Scaled primal and dual residual bound an optimal iterate must meet.
FEAS_TOL = 1e-8
# Relative complementarity gap an optimal iterate must reach, and the
# iterations a solve may take before it stops with ITERATION_LIMIT.
GAP_TOL = 1e-8
MAX_ITER = 100


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

    @property
    def p(self) -> int:
        return self.b.size

    @property
    def n_constraints(self) -> int:
        return 4 * self.p

    def rhs(self, lam) -> np.ndarray:
        """The right-hand side at a scalar ``lam``, or one row per entry of an array ``lam``."""
        lam = np.asarray(lam, dtype=float)[..., None]
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


def build_lp(problem: LpProblem) -> StandardFormLp:
    """Recast the constrained l1 program as the standard-form inequality LP."""
    a_rho = problem.A
    if problem.ridge_rho > 0:
        a_rho = a_rho.copy()
        _diagonal(a_rho)[:] += problem.ridge_rho
    return StandardFormLp(a_rho=a_rho, b=problem.b.copy())


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


def solve(problem: LpProblem) -> LpSolution:
    """Solve the constrained l1 program by the primal-dual interior-point method.

    Returns a solution whose status is ``optimal`` only when primal and dual
    feasibility hold within FEAS_TOL, the relative complementarity gap is
    below GAP_TOL, and the constraint residual certifies
    ||A_rho beta - b||_inf <= lam * (1 + 1e-6) + 1e-8. Raises
    InfeasibleProblem when ridge_rho = 0, A is singular, and the least-norm
    residual exceeds lam. The batch of one of :func:`solve_grid`.
    """
    result = solve_grid(problem, [problem.lam])[0]
    if isinstance(result, SolverError):
        raise result
    return result


def solve_grid(problem: LpProblem, lambdas) -> list:
    """:func:`solve` at every lambda of ``lambdas`` (``problem.lam`` is not used).

    A_rho, its Cholesky factor and the starting point beta0 = A_rho^{-1} b do
    not depend on lambda and are built once. The members then run one
    interior-point iteration loop together, a few at a time so that their
    Newton systems stay within _GROUP_BYTES; each member is bit-identical to
    :func:`solve` at its lambda. Entry j is that LpSolution, or the
    SolverError :func:`solve` would raise at lambdas[j].
    """
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
        for j, sol in zip(group, _interior_point(sf, beta0, lams[group], factor,
                                                  problem.ridge_rho)):
            results[j] = sol
    return results


def _group_size(p: int, factor) -> int:
    """How many members iterate together: their Newton systems (a p x p factor,
    or V = [U, W U] and the capacitance LU) fit in _GROUP_BYTES."""
    k = 0 if factor is None else factor.shape[1]
    floats = p * p if factor is None else 2 * p * k + 5 * k * k
    return max(1, _GROUP_BYTES // (8 * floats))


def solve_path(problem: LpProblem, lambdas) -> list:
    """:func:`solve_grid` by one parametric-simplex path (``problem.lam`` is not used).

    The right-hand side is linear in lambda, so the solutions of the whole grid
    lie on one piecewise-linear path. It starts at beta = 0, optimal for
    lambda >= ||b||_inf, and goes down by dual-simplex pivots on the active
    block A_rho[J, I]: J the constraints held at +-lambda, I the support.
    Each grid lambda reads beta = beta0 + lambda beta1 and the dual y from the
    segment of the path that holds it, and is ``optimal`` only when
    :func:`_certify` passes. The first lambda that fails after a refactor,
    every smaller lambda, and lambda = 0 go to :func:`solve_grid`; so does
    the rest of the grid when a pivot finds no entering index (the program
    is infeasible below, or the block is singular) or the path runs past
    _PIVOTS_PER_COORDINATE * p pivots. Entry j is an LpSolution or the
    SolverError :func:`solve` would raise at lambdas[j]. A path entry's
    ``iterations`` counts the pivots taken to reach its lambda.
    """
    lams = np.asarray(lambdas, dtype=float).reshape(-1)
    if np.any(lams < 0):
        raise ValueError("lam must be >= 0")
    sf = build_lp(problem)
    traced = _trace_path(sf, sorted(set(lams[lams > 0].tolist()), reverse=True))
    results = [replace(traced[lam], beta=traced[lam].beta.copy()) if lam in traced else None
               for lam in lams.tolist()]
    rest = [j for j, sol in enumerate(results) if sol is None]
    if rest:
        for j, sol in zip(rest, solve_grid(problem, lams[rest])):
            results[j] = sol
    return results


def _certify(sf: StandardFormLp, beta, y, lam, pivots):
    """The path's LpSolution at ``lam``, or None unless (beta, y) is certified.

    Certified means: the residual bound of :func:`solve`,
    ||A_rho beta - b||_inf <= lam (1 + 1e-6) + 1e-8; a dual-feasible y,
    ||A_rho y||_inf <= 1 + FEAS_TOL; and an exact duality gap
    ||beta||_1 + b'y + lam ||y||_1 <= GAP_TOL (1 + ||beta||_1), which weak
    duality makes >= 0 whenever y is feasible. ``duality_gap`` is that gap
    over 1 + ||beta||_1.
    """
    sol = _solution(sf, beta, pivots, 0.0, OPTIMAL)
    sol.duality_gap = ((sol.objective + float(sf.b @ y) + lam * float(np.abs(y).sum()))
                       / (1.0 + sol.objective))
    if (sol.max_residual <= lam * (1 + 1e-6) + 1e-8
            and float(np.abs(sf.a_rho @ y).max()) <= 1.0 + FEAS_TOL
            and sol.duality_gap <= GAP_TOL):
        return sol
    return None


def _trace_path(sf: StandardFormLp, lams) -> dict:
    """{lambda: certified LpSolution} along the path, for a prefix of the
    descending positive ``lams``; see :func:`solve_path`."""
    out: dict = {}
    block = _ActiveBlock(sf.a_rho, sf.b)
    lam_cur, pivots, k = np.inf, 0, 0
    # A ratio divides by slopes and pivots that may be 0; those entries are masked out.
    with np.errstate(divide="ignore", invalid="ignore"):
        while k < len(lams):
            block.solve_segment()
            lam_next, event = _next_breakpoint(block, lam_cur)
            if np.isnan(lam_next):  # the block's inverse has broken down
                break
            while k < len(lams) and lams[k] >= lam_next:
                sol = _certify(sf, *block.at(lams[k]), lams[k], pivots)
                if sol is None:
                    if not block.refactor():
                        return out
                    block.solve_segment()
                    sol = _certify(sf, *block.at(lams[k]), lams[k], pivots)
                    if sol is None:
                        return out
                out[lams[k]] = sol
                k += 1
            if k == len(lams) or pivots == _PIVOTS_PER_COORDINATE * sf.p:
                break
            if not block.pivot(event):
                break
            pivots += 1
            lam_cur = lam_next
            if pivots % _REFACTOR_PIVOTS == 0 and not block.refactor():
                break
    return out


class _ActiveBlock:
    """The basis of the path and its current segment.

    The basis is the active rows J with the signs sigma of A_rho beta - b =
    lambda sigma there, the support I with the signs s of beta, and the
    inverse of M = A_rho[J, I] (rows indexed by I, columns by J), kept by
    rank-one updates between refactors. A pivot changes one index:
    bordering (J and I each gain one), row replacement, column replacement,
    or deletion (J and I each lose one; the last position moves into the
    freed one). The inverse and the rows A_rho[J] and A_rho[I] (A_rho is
    symmetric) live in buffers that grow by doubling, so a pivot copies O(p)
    entries of A_rho, not O(|J| p).

    On a segment M beta_I = b_J + lambda sigma and M' y_J = -s, so beta_I =
    beta0 + lambda beta1, y_J is constant, and A_rho beta - b = r0 + lambda r1;
    :meth:`solve_segment` computes these and v = A_rho y.
    """

    def __init__(self, a, b):
        p = b.size
        self.a, self.b, self.n = a, b, 0
        self._rows, self._cols = np.empty(p, dtype=int), np.empty(p, dtype=int)
        self._sigma, self._s = np.empty(p), np.empty(p)
        self.in_rows = np.zeros(p, dtype=bool)
        self.in_cols = np.zeros(p, dtype=bool)
        self._inv = np.empty((0, 0))
        self._a_rows = self._a_cols = np.empty((0, p))

    @property
    def inv(self):
        return self._inv[: self.n, : self.n]

    def _reserve(self, n):
        """Room for n positions."""
        cap = self._inv.shape[0]
        if n <= cap:
            return
        cap = min(max(2 * cap, 16), self.b.size)
        inv, self._inv = self._inv, np.empty((cap, cap))
        self._inv[: self.n, : self.n] = inv[: self.n, : self.n]
        for name in ("_a_rows", "_a_cols"):
            rows = np.empty((cap, self.b.size))
            rows[: self.n] = getattr(self, name)[: self.n]
            setattr(self, name, rows)

    def refactor(self) -> bool:
        """Invert M afresh; False when it is singular."""
        n = self.n
        try:
            self._inv[:n, :n] = np.linalg.inv(self._a_rows[:n, self._cols[:n]])
        except np.linalg.LinAlgError:
            return False
        return True

    def solve_segment(self):
        n, inv = self.n, self.inv
        self.rows, self.cols, self.s = self._rows[:n], self._cols[:n], self._s[:n]
        self.a_rows, a_cols = self._a_rows[:n], self._a_cols[:n]
        self.beta0 = inv @ self.b[self.rows]
        self.beta1 = inv @ self._sigma[:n]
        self.y = -(self.s @ inv)
        self.v = self.y @ self.a_rows
        self.r0 = self.beta0 @ a_cols - self.b
        self.r1 = self.beta1 @ a_cols

    def at(self, lam):
        """Full-length (beta, y) at ``lam`` on the current segment."""
        beta = np.zeros(self.b.size)
        beta[self.cols] = self.beta0 + lam * self.beta1
        y = np.zeros(self.b.size)
        y[self.rows] = self.y
        return beta, y

    def pivot(self, event) -> bool:
        """One dual-simplex pivot at the segment's end; False when no index can enter."""
        kind, index, sign = event
        outside = ~self.in_cols
        if kind == "col":  # beta at support position `index` reaches 0 and leaves
            d = self.s[index] * self.inv[index]
            w = d @ self.a_rows
            outside[self.cols[index]] = True  # it may come back with the other sign
        else:  # constraint `index` reaches lambda * sign and joins J
            g = self.a[index, self.cols] @ self.inv
            d = -sign * g
            w = d @ self.a_rows
            w += sign * self.a[index]
        entering = _dual_ratio(self.y, d, self.v, w, outside)
        if entering is None:
            return False
        what, which = entering
        if kind == "col" and what == "row":
            self._delete(which, index)
        elif kind == "col":
            self._replace_col(index, which, -np.sign(w[which]), self.a_rows[:, which])
        elif what == "row":
            self._replace_row(which, index, sign, g)
        else:
            self._border(index, sign, g, which, -np.sign(w[which]), self.a_rows[:, which])
        return True

    def _delete(self, a_pos, c_pos):
        """Drop J position a_pos and I position c_pos:
        B' = B[-c, -a] - B[-c, a] B[c, -a] / B[c, a]."""
        inv, last = self.inv, self.n - 1
        inv -= (inv[:, a_pos] / inv[c_pos, a_pos])[:, None] * inv[c_pos]
        self.in_rows[self._rows[a_pos]] = self.in_cols[self._cols[c_pos]] = False
        for order, pos in ((self._cols, c_pos), (self._s, c_pos), (self._a_cols, c_pos),
                           (inv, c_pos), (self._rows, a_pos), (self._sigma, a_pos),
                           (self._a_rows, a_pos), (inv.T, a_pos)):
            order[pos] = order[last]
        self.n = last

    def _replace_col(self, c_pos, m, s_m, u):
        """Column c_pos of M becomes u = A_rho[J, m]: with z = B u, row c of B'
        is B[c] / z[c] and B' = B - z B[c] / z[c] elsewhere. When m is the
        leaving column itself, only its sign changes."""
        if self._cols[c_pos] != m:
            inv = self.inv
            z = inv @ u
            row = inv[c_pos] / z[c_pos]
            inv -= z[:, None] * row
            inv[c_pos] = row
            self.in_cols[self._cols[c_pos]] = False
            self.in_cols[m] = True
            self._cols[c_pos] = m
            self._a_cols[c_pos] = self.a[m]
        self._s[c_pos] = s_m

    def _replace_row(self, a_pos, k, sigma_k, g):
        """Row a_pos of M becomes A_rho[k, I]: with g = A_rho[k, I] B, column a of
        B' is B[:, a] / g[a] and B' = B - B[:, a] g / g[a] elsewhere."""
        inv = self.inv
        col = inv[:, a_pos] / g[a_pos]
        inv -= col[:, None] * g
        inv[:, a_pos] = col
        self.in_rows[self._rows[a_pos]] = False
        self.in_rows[k] = True
        self._rows[a_pos] = k
        self._sigma[a_pos] = sigma_k
        self._a_rows[a_pos] = self.a[k]

    def _border(self, k, sigma_k, g, m, s_m, u):
        """M gains row k and column m: with u = A_rho[J, m], z = B u, g = A_rho[k, I] B
        and delta = A_rho[k, m] - g u, B' = [[B + z g / delta, -z / delta],
        [-g / delta, 1 / delta]]."""
        n = self.n
        self._reserve(n + 1)
        inv = self.inv
        z = inv @ u
        delta = self.a[k, m] - g @ u
        inv += z[:, None] * (g / delta)
        self._inv[:n, n] = -z / delta
        self._inv[n, :n] = -g / delta
        self._inv[n, n] = 1.0 / delta
        self.in_rows[k] = self.in_cols[m] = True
        self._rows[n], self._sigma[n], self._cols[n], self._s[n] = k, sigma_k, m, s_m
        self._a_rows[n], self._a_cols[n] = self.a[k], self.a[m]
        self.n = n + 1


def _next_breakpoint(block: _ActiveBlock, lam_cur):
    """(lambda, event): the largest lambda <= lam_cur at which a basic quantity
    reaches its bound, and what reaches it: ("col", support position, 0) for a
    beta_i reaching 0, ("row", k, +-1) for constraint k reaching +-lambda.
    (-inf, None) when nothing blocks the segment down to 0.

    A quantity blocks only when it falls as lambda falls (slope above
    _PIVOT_TOL); one already past its bound by rounding blocks at lam_cur.
    """
    lam, event = -np.inf, None
    if block.beta1.size:
        at = np.where(block.s * block.beta1 > _PIVOT_TOL, -block.beta0 / block.beta1, -np.inf)
        c = at.argmax()
        lam, event = at[c], ("col", c, 0.0)
    # constraint k reaches +lambda at r0 / (1 - r1), -lambda at -r0 / (1 + r1)
    slopes = 1.0 - _SIDES * block.r1
    at = np.where((slopes > _PIVOT_TOL) & ~block.in_rows, _SIDES * block.r0 / slopes, -np.inf).ravel()
    k = at.argmax()
    if at[k] > lam:
        p = block.r0.size
        lam, event = at[k], ("row", k % p, 1.0 if k < p else -1.0)
    return min(float(lam), lam_cur), event


def _dual_ratio(y, d, v, w, outside):
    """The index that enters when the dual moves as y + t d (so A_rho y moves as
    v + t w): ("row", J position) where y_a reaches 0, or ("col", m) where
    |v_m + t w_m| reaches 1 for m in ``outside`` the support; None when
    nothing bounds t. Harris's two passes: the bound on t lets every bound be
    overstepped by _BOUND_TOL, and among the indices within it the largest
    pivot |d_a| or |w_m| enters.
    """
    # t reaches index j's bound at room_j / pivot_j; a pivot of 0 never does
    room = np.concatenate([np.abs(y), 1.0 - np.sign(w) * v])
    pivot = np.concatenate([np.where(y * d < 0, np.abs(d), 0.0), np.where(outside, np.abs(w), 0.0)])
    usable = pivot > _PIVOT_TOL
    limit = np.where(usable, (room + _BOUND_TOL) / pivot, np.inf).min()
    if not limit < np.inf:
        return None
    j = np.where(usable & (room <= limit * pivot), pivot, 0.0).argmax()
    return ("row", j) if j < y.size else ("col", j - y.size)


def _interior_point(sf: StandardFormLp, beta0, lams, factor, rho) -> list:
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

    for iterations in range(MAX_ITER):
        s, z = sz[:, 0], sz[:, 1]
        ab = sf.times_a(beta)
        rp = sf.apply_g(beta, u, ab) + s - h
        rd_beta, gt_u = sf.apply_gt(z)
        rd_u = 1.0 + gt_u  # c = (0, 1)
        comp = [float(si @ zi) for si, zi in zip(s, z)]
        gap_rel = np.array(comp) / (1.0 + np.abs(u.sum(axis=1)))
        done = (
            (gap_rel <= GAP_TOL)
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
        finish(np.ones(ids.size, dtype=bool), MAX_ITER, ITERATION_LIMIT, gap_rel)
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
