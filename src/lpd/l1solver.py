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
against the operator A_rho; an iteration whose check fails falls back to
the dense assembly and Cholesky.

A problem may leave A out and give only such a thin factor and a ridge
rho > 0 (the low-rank route). A_rho = U U' + rho I is then never formed:
its products cost O(p k), its rows are formed one at a time, and the start
point A_rho^{-1} b comes from a k x k Cholesky factor by Woodbury. Only a
dense Newton fallback still forms A_rho, for that iteration.

solve_grid solves the program at every lambda of a grid, one interior-point
solve per lambda from one shared start point; each entry is what solve gives
at its lambda.

solve_path solves a grid along the program's solution path instead. The
right-hand side is linear in lambda, so beta is piecewise linear in it; a
parametric dual simplex follows it down from beta = 0 at lambda =
||b||_inf, one pivot per breakpoint, on the inverse of the active block
A_rho[J, I] kept by rank-one updates. A grid point it reads off the path is
optimal only under an exact primal-dual certificate; the points it cannot
certify go to solve_grid, and so does the rest of the grid once the pivots
since the last certified lambda have done more work than a few
interior-point solves at the same p and k would. Every LPD fit of the
package solves this way: the CV folds, the simulate refits and train's
final fit at one lambda. The interior-point method serves what the path
hands on, and solve gives it to library callers at one lambda.

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
# solve_path re-inverts its active block afresh every _REFACTOR_PIVOTS
# pivots. Its ratio tests take no pivot of magnitude <= _PIVOT_TOL, and may
# overstep a bound by _BOUND_TOL.
_REFACTOR_PIVOTS = 64
_PIVOT_TOL = 1e-9
_BOUND_TOL = 1e-11
# solve_path hands the rest of its grid to solve_grid once the pivots since
# the last certified lambda have done more than _WORK_MULTIPLE times the work
# of one interior-point solve at the same p and k (_pivot_work, _ipm_work).
# Work is counted in multiply-adds of a matrix-vector product; _CALL_WORK is
# the fixed cost of a pivot's numpy calls in those units, and an interior-point
# iteration makes four times as many. bench/path.py measures both solvers.
_WORK_MULTIPLE = 2.5
_CALL_WORK = 100_000
_IPM_ITERATIONS = 10
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

    A is kept, not copied, when it is an exactly symmetric float64 array
    (as compute_moments' sigma_hat is); one asymmetric within
    linalg.SYMMETRY_RTOL is replaced by its symmetrization.

    ``factor`` is an optional p x k matrix U with A = U U' (for a sample
    covariance, the centred data over sqrt(n)). Beside A it only speeds up
    the Newton solves; residuals and the certificate use A. A may be None
    when U is thin (2k < p) and ridge_rho > 0 (:func:`low_rank_route`):
    then A is U U', and the solvers go through U alone.
    """

    A: np.ndarray | None
    b: np.ndarray
    lam: float
    ridge_rho: float = 0.0
    factor: np.ndarray | None = None

    def __post_init__(self):
        if self.A is not None:
            self.A = linalg.check_symmetric(self.A, "A")
        self.b = linalg.as_vector(self.b, "b")
        if self.A is not None and self.A.shape[0] != self.b.size:
            raise DimensionMismatch(
                f"A is {self.A.shape} but b has length {self.b.size}"
            )
        self.lam = float(self.lam)
        self.ridge_rho = float(self.ridge_rho)
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be >= 0 and finite")
        if not 0 <= self.ridge_rho < np.inf:
            raise ValueError("ridge_rho must be >= 0 and finite")
        if self.factor is not None:
            self.factor = linalg.as_matrix(self.factor, "factor")
            if self.factor.shape[0] != self.b.size:
                raise DimensionMismatch(
                    f"factor is {self.factor.shape} but b has length {self.b.size}"
                )
        if self.A is None and (self.factor is None or not low_rank_route(
                self.p, self.factor.shape[1], self.ridge_rho)):
            raise ValueError("A may be left out only with a factor of 2k < p columns "
                             "and ridge_rho > 0")

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

    A_rho is ``a_rho``, held densely, or, where that is None (the low-rank
    route), U U' + rho I through the ``factor`` U and ``rho``. The solvers
    reach it only through :meth:`times_a`, :meth:`row`, :meth:`solve_a` and
    :meth:`dense`. Beside a dense ``a_rho`` the factor, if any, is there for
    the Newton solves alone.
    """

    a_rho: np.ndarray | None
    b: np.ndarray
    factor: np.ndarray | None = None
    rho: float = 0.0

    @property
    def p(self) -> int:
        return self.b.size

    @property
    def n_constraints(self) -> int:
        return 4 * self.p

    def rhs(self, lam) -> np.ndarray:
        """The right-hand side at ``lam``."""
        return np.concatenate([np.zeros(2 * self.p), lam - self.b, lam + self.b])

    def times_a(self, x) -> np.ndarray:
        """A_rho @ x: dense, or U (U' x) + rho x on the low-rank route, O(p k)."""
        if self.a_rho is None:
            return self.factor @ (self.factor.T @ x) + self.rho * x
        return self.a_rho @ x

    def row(self, k) -> np.ndarray:
        """Row k of A_rho: a view of a dense A_rho, else U U[k] + rho e_k, O(p k)."""
        if self.a_rho is not None:
            return self.a_rho[k]
        row = self.factor @ self.factor[k]
        row[k] += self.rho
        return row

    def solve_a(self, v) -> np.ndarray:
        """A_rho^{-1} v by Cholesky: of A_rho, or on the low-rank route of the
        k x k matrix rho I + U' U, by Woodbury; raises NotPositiveDefinite."""
        if self.a_rho is not None:
            return linalg.spd_solve(linalg.spd_factor(self.a_rho), v)
        small = self.factor.T @ self.factor
        _diagonal(small)[:] += self.rho
        t = linalg.spd_solve(linalg.spd_factor(small), self.factor.T @ v)
        return (v - self.factor @ t) / self.rho

    def dense(self) -> np.ndarray:
        """A_rho as a p x p array: formed from the factor on the low-rank route."""
        if self.a_rho is not None:
            return self.a_rho
        dense = self.factor @ self.factor.T
        _diagonal(dense)[:] += self.rho
        return dense

    def apply_g(self, beta, u, ab=None) -> np.ndarray:
        """G @ (beta, u) without materializing G; ``ab`` is A_rho @ beta if the
        caller already has it."""
        if ab is None:
            ab = self.times_a(beta)
        return np.concatenate([-beta - u, beta - u, -ab, ab])

    def apply_gt(self, z) -> tuple[np.ndarray, np.ndarray]:
        """G' @ z, returned as its (beta, u) blocks."""
        z1, z2, z3, z4 = z.reshape(4, self.p)
        return z2 - z1 + self.times_a(z4 - z3), -(z1 + z2)


def build_lp(problem: LpProblem) -> StandardFormLp:
    """Recast the constrained l1 program as the standard-form inequality LP."""
    a_rho = problem.A
    if a_rho is not None and problem.ridge_rho > 0:
        a_rho = a_rho.copy()
        _diagonal(a_rho)[:] += problem.ridge_rho
    return StandardFormLp(a_rho=a_rho, b=problem.b.copy(), factor=problem.factor,
                          rho=problem.ridge_rho)


def low_rank_route(p: int, k: int, ridge_rho: float) -> bool:
    """Whether a program with a k-column factor may go without A: the factor
    is thin (:func:`thin_factor`) and the ridge makes A_rho positive definite."""
    return ridge_rho > 0 and thin_factor(p, k)


def _diagonal(square):
    """Writable strided view of the diagonal of a C-contiguous square array."""
    return square.reshape(-1)[:: square.shape[0] + 1]


def _step_lengths(v, dv):
    """The largest alpha in [0, 1] keeping v + alpha * dv >= 0 for v > 0, one per
    row of v: the interior-point method's rows are the slacks and the duals.

    That is min(1, min over dv_i < 0 of -v_i / dv_i), taken as minus the largest
    v_i / dv_i. The other entries divide by NaN, which the NaN-skipping fmax and
    fmin pass over; a row with no dv_i < 0 gets the full step.
    """
    ratio = v / np.where(dv < 0, dv, np.nan)
    return np.fmin(-np.fmax.reduce(ratio, axis=-1), 1.0)


def _solution(sf, beta, iterations, gap, status, low_rank=False, fallbacks=0):
    resid = float(np.abs(sf.times_a(beta) - sf.b).max())
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


def thin_factor(p: int, k: int) -> bool:
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
    factor U (A_rho = U U' + rho I, rho the program's ridge), H = G + V C V'
    where G = rho^2 diag(w) + diag(dd), V = [U, W U] and C = [[U' W U, rho I],
    [rho I, 0]], and H^{-1} r = G^{-1} r - G^{-1} V K^{-1} C V' G^{-1} r
    through the LU of the 2k x 2k capacitance matrix K = I + C V' G^{-1} V.
    Each such solve is checked against H, applied through
    :meth:`StandardFormLp.times_a`, and refined; if it still fails, the dense
    factor is built from :meth:`StandardFormLp.dense` and used for the rest
    of the iteration.
    """

    def __init__(self, sf: StandardFormLp, w, dd, factor=None):
        self.sf, self.w, self.dd = sf, w, dd
        self.factor, self.rho = factor, sf.rho
        self.low_rank = factor is not None
        self.dense = None
        self.lu = None
        if factor is None:
            self.dense = _dense_newton_factor(sf.dense(), w, dd)
            return
        self.k = factor.shape[1]
        self.g = self.rho * self.rho * w + dd
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
        """H x, through A_rho."""
        return self.sf.times_a(self.w * self.sf.times_a(x)) + self.dd * x

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
            self.dense = _dense_newton_factor(self.sf.dense(), self.w, self.dd)
        return linalg.spd_solve(self.dense, r)


def solve(problem: LpProblem) -> LpSolution:
    """Solve the constrained l1 program by the primal-dual interior-point method.

    Returns a solution whose status is ``optimal`` only when primal and dual
    feasibility hold within FEAS_TOL, the relative complementarity gap is
    below GAP_TOL, and the constraint residual certifies
    ||A_rho beta - b||_inf <= lam * (1 + 1e-6) + 1e-8. Raises
    InfeasibleProblem when ridge_rho = 0, A is singular, and the least-norm
    residual exceeds lam. It is :func:`solve_grid` at the one lambda ``lam``.
    """
    result = solve_grid(problem, [problem.lam])[0]
    if isinstance(result, SolverError):
        raise result
    return result


def solve_grid(problem: LpProblem, lambdas) -> list:
    """:func:`solve` at every lambda of ``lambdas`` (``problem.lam`` is not used).

    A_rho and the starting point beta0 = A_rho^{-1} b (:meth:`StandardFormLp.solve_a`)
    do not depend on lambda and are built once; then each lambda > 0 gets its
    own interior-point solve, in grid order. Entry j is that LpSolution, or
    the SolverError :func:`solve` would raise at lambdas[j].
    """
    lams = _grid(lambdas)
    sf = build_lp(problem)
    factor = sf.factor
    if factor is not None and not thin_factor(sf.p, factor.shape[1]):
        factor = None
    results: list = [None] * lams.size
    try:
        beta0 = sf.solve_a(sf.b)
    except NotPositiveDefinite as exc:
        if problem.ridge_rho > 0 and np.any(lams > 0):
            raise
        beta0 = linalg.pseudo_inverse(sf.dense()) @ sf.b
        resid = float(np.abs(sf.times_a(beta0) - sf.b).max())
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
    for j, lam in enumerate(lams.tolist()):
        if results[j] is None:
            results[j] = _interior_point(sf, beta0, lam, factor)
    return results


def _grid(lambdas) -> np.ndarray:
    """``lambdas`` as a flat float array; raises ValueError unless each is >= 0 and finite."""
    lams = np.asarray(lambdas, dtype=float).reshape(-1)
    if not np.all((lams >= 0) & (lams < np.inf)):
        raise ValueError("lam must be >= 0 and finite")
    return lams


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
    is infeasible below, or the block is singular) or when the pivots since
    the last certified lambda outgrow the work bound (:func:`_trace_path`).
    Entry j is an LpSolution or the SolverError :func:`solve` would raise at
    lambdas[j]. A path entry's ``iterations`` counts the pivots taken to
    reach its lambda.
    """
    lams = _grid(lambdas)
    sf = build_lp(problem)
    k = sf.p if problem.factor is None else problem.factor.shape[1]
    traced = _trace_path(sf, sorted(set(lams[lams > 0].tolist()), reverse=True),
                         _WORK_MULTIPLE * _ipm_work(sf.p, k))
    results = [replace(traced[lam], beta=traced[lam].beta.copy()) if lam in traced else None
               for lam in lams.tolist()]
    rest = [j for j, sol in enumerate(results) if sol is None]
    if rest:
        for j, sol in zip(rest, solve_grid(problem, lams[rest])):
            results[j] = sol
    return results


def _pivot_work(size, p) -> int:
    """A pivot's work at support size ``size``: its calls, four products with the
    size x p rows of A_rho (the segment's v, r0 and r1 and the pivot's dual
    direction), five with the size x size inverse (the segment's beta0, beta1
    and y, the pivot's row and its rank-one update), and a share of the
    refactor that inverts the block afresh every _REFACTOR_PIVOTS pivots."""
    return _CALL_WORK + size * (4 * p + 5 * size + size * size // _REFACTOR_PIVOTS)


def _ipm_work(p, k) -> int:
    """The work of an interior-point solve of _IPM_ITERATIONS iterations, each
    with its calls, some 13 products with the p x p A_rho, and the Newton step:
    Woodbury's O(p k^2) products with a k-column factor when 2k < p
    (:func:`thin_factor`), else the dense Newton matrix's assembly and Cholesky
    factor, which run at BLAS-3 speed."""
    newton = 4 * p * k * k // 5 if thin_factor(p, k) else p * p * p // 6
    return _IPM_ITERATIONS * (4 * _CALL_WORK + 13 * p * p + newton)


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
            and float(np.abs(sf.times_a(y)).max()) <= 1.0 + FEAS_TOL
            and sol.duality_gap <= GAP_TOL):
        return sol
    return None


def _trace_path(sf: StandardFormLp, lams, budget) -> dict:
    """{lambda: certified LpSolution} along the path, for a prefix of the
    descending positive ``lams``; see :func:`solve_path`.

    The trace stops once the pivots since the last certified lambda (or since
    the start) have done more than ``budget`` work (:func:`_pivot_work`). The
    count depends only on the support sizes along the path, never on the
    clock, so the same input stops at the same lambda.
    """
    out: dict = {}
    block = _ActiveBlock(sf)
    lam_cur, pivots, work, k = np.inf, 0, 0, 0
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
                work = 0
            if k == len(lams) or work > budget:
                break
            work += _pivot_work(block.n, sf.p)
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
    entries of A_rho, not O(|J| p). Each row comes from
    :meth:`StandardFormLp.row`, so the block never needs A_rho whole.

    On a segment M beta_I = b_J + lambda sigma and M' y_J = -s, so beta_I =
    beta0 + lambda beta1, y_J is constant, and A_rho beta - b = r0 + lambda r1;
    :meth:`solve_segment` computes these and v = A_rho y.
    """

    def __init__(self, sf: StandardFormLp):
        p = sf.p
        self.sf, self.b, self.n = sf, sf.b, 0
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
            row = self.sf.row(index)
            g = row[self.cols] @ self.inv
            d = -sign * g
            w = d @ self.a_rows
            w += sign * row
        entering = _dual_ratio(self.y, d, self.v, w, outside)
        if entering is None:
            return False
        what, which = entering
        if kind == "col" and what == "row":
            self._delete(which, index)
        elif kind == "col":
            self._replace_col(index, which, -np.sign(w[which]), self.a_rows[:, which])
        elif what == "row":
            self._replace_row(which, index, sign, g, row)
        else:
            self._border(index, sign, g, which, -np.sign(w[which]), self.a_rows[:, which], row)
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
            self._a_cols[c_pos] = self.sf.row(m)
        self._s[c_pos] = s_m

    def _replace_row(self, a_pos, k, sigma_k, g, row):
        """Row a_pos of M becomes A_rho[k, I]: with g = A_rho[k, I] B, column a of
        B' is B[:, a] / g[a] and B' = B - B[:, a] g / g[a] elsewhere. ``row`` is A_rho[k]."""
        inv = self.inv
        col = inv[:, a_pos] / g[a_pos]
        inv -= col[:, None] * g
        inv[:, a_pos] = col
        self.in_rows[self._rows[a_pos]] = False
        self.in_rows[k] = True
        self._rows[a_pos] = k
        self._sigma[a_pos] = sigma_k
        self._a_rows[a_pos] = row

    def _border(self, k, sigma_k, g, m, s_m, u, row):
        """M gains row k and column m: with u = A_rho[J, m], z = B u, g = A_rho[k, I] B
        and delta = A_rho[k, m] - g u, B' = [[B + z g / delta, -z / delta],
        [-g / delta, 1 / delta]]. ``row`` is A_rho[k]."""
        n = self.n
        self._reserve(n + 1)
        inv = self.inv
        z = inv @ u
        delta = row[m] - g @ u
        inv += z[:, None] * (g / delta)
        self._inv[:n, n] = -z / delta
        self._inv[n, :n] = -g / delta
        self._inv[n, n] = 1.0 / delta
        self.in_rows[k] = self.in_cols[m] = True
        self._rows[n], self._sigma[n], self._cols[n], self._s[n] = k, sigma_k, m, s_m
        self._a_rows[n], self._a_cols[n] = row, self.sf.row(m)
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


def _interior_point(sf: StandardFormLp, beta0, lam, factor) -> LpSolution:
    """Mehrotra predictor-corrector iterations from beta0 at one lambda > 0.

    ``factor`` is the thin factor of the Woodbury Newton step, or None for the
    dense one (:class:`_NewtonSystem`). The solve is ``optimal`` when an
    iterate certifies, a ``numerical_failure`` when a Newton factor fails or
    both step lengths fall below 1e-10, and at ``iteration_limit`` after
    MAX_ITER iterations.
    """
    p = sf.p
    m = sf.n_constraints
    low_rank = factor is not None
    beta = beta0.copy()
    u = np.abs(beta) + 1.0
    h = sf.rhs(lam)
    # the slacks s and the duals z are the rows of one (2, m) block, so one pass
    # finds both step lengths
    sz = np.empty((2, m))
    sz[0] = np.maximum(h - sf.apply_g(beta, u), 1e-10 * (1.0 + lam))
    sz[1] = 1.0
    h_scale = 1.0 + np.abs(h).max()
    resid_cert = lam * (1 + 1e-6) + 1e-8
    fallbacks = 0

    for iterations in range(MAX_ITER):
        s, z = sz
        ab = sf.times_a(beta)
        rp = sf.apply_g(beta, u, ab) + s - h
        rd_beta, gt_u = sf.apply_gt(z)
        rd_u = 1.0 + gt_u  # c = (0, 1)
        comp = float(s @ z)
        gap_rel = float(comp / (1.0 + np.abs(u.sum())))
        if (gap_rel <= GAP_TOL
                and np.abs(rp).max() / h_scale <= FEAS_TOL
                and np.maximum(np.abs(rd_beta).max(), np.abs(rd_u).max()) / 2.0 <= FEAS_TOL
                and np.abs(ab - sf.b).max() <= resid_cert):
            return _solution(sf, beta, iterations, gap_rel, OPTIMAL, low_rank, fallbacks)

        d = z / s
        d1, d2, d3, d4 = d.reshape(4, p)
        e = d1 + d2
        f = d1 - d2
        f_e = f / e
        sz_prod = s * z
        d_rp = d * rp
        neg_s, neg_rp, neg_rd_beta, neg_rd_u = -s, -rp, -rd_beta, -rd_u

        def newton_step(rcomp):
            """Directions dbeta, du and the stacked (ds, dz)."""
            gt_t_beta, gt_t_u = sf.apply_gt(d_rp - rcomp / s)
            r2 = neg_rd_u - gt_t_u
            dbeta = newton.solve(neg_rd_beta - gt_t_beta - f_e * r2)
            du = (r2 - f * dbeta) / e
            dsz = np.empty((2, m))
            np.subtract(neg_rp, sf.apply_g(dbeta, du), out=dsz[0])  # ds = -rp - G (dbeta, du)
            np.divide(rcomp + z * dsz[0], neg_s, out=dsz[1])  # dz = -(rcomp + z ds) / s
            return dbeta, du, dsz

        try:
            newton = _NewtonSystem(sf, d3 + d4, 4.0 * d1 * d2 / e, factor)
            _, _, dsz_a = newton_step(sz_prod)
            trial = sz + _step_lengths(sz, dsz_a)[:, None] * dsz_a
            # in Python floats: numpy's power rounds differently
            mu = comp / m
            mu_aff = float(trial[0] @ trial[1]) / m
            sigma_mu = min(1.0, max(0.0, (mu_aff / max(mu, 1e-300)) ** 3)) * mu
            dbeta, du, dsz = newton_step(sz_prod + dsz_a[0] * dsz_a[1] - sigma_mu)
        except NotPositiveDefinite:  # the dense factor; on the low-rank step, one fallback
            return _solution(sf, beta, iterations, gap_rel, NUMERICAL_FAILURE, low_rank,
                             fallbacks + low_rank)
        fallbacks += newton.fell_back
        alphas = _STEP_FRACTION * _step_lengths(sz, dsz)
        if alphas[0] < 1e-10 and alphas[1] < 1e-10:
            return _solution(sf, beta, iterations, gap_rel, NUMERICAL_FAILURE, low_rank,
                             fallbacks)
        beta += alphas[0] * dbeta
        u += alphas[0] * du
        sz += alphas[:, None] * dsz
    return _solution(sf, beta, MAX_ITER, gap_rel, ITERATION_LIMIT, low_rank, fallbacks)


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
