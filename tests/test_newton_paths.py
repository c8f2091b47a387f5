"""The two Newton paths of the interior-point solver.

Without a covariance factor, or when the factor has 2k >= p columns, every
iteration assembles and Cholesky-factors the dense p x p Newton matrix. With
a thin factor (2k < p) the same system is solved by Sherman-Morrison-Woodbury,
checked against the dense matrix, and sent back to the dense factor when the
check fails. Every property here is run on both paths.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpd import l1solver, linalg
from lpd.classifier import auto_ridge
from lpd.errors import DimensionMismatch, NotPositiveDefinite
from lpd.l1solver import NUMERICAL_FAILURE, OPTIMAL, LpProblem, solve
from lpd.stats import LabeledDataset, compute_moments

from oracles import l1_oracle

PATHS = ("dense", "low_rank")


def wide_sample(seed, p, n):
    """Two-class sample of n rows in p dimensions; returns (sigma, factor, delta, rho)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) @ (np.eye(p) + 0.3 * np.eye(p, k=1))
    n1 = n // 2
    x[:n1, :3] += 1.0
    labels = np.concatenate([np.ones(n1, dtype=int), np.full(n - n1, 2)])
    moments = compute_moments(LabeledDataset(x, labels))
    return moments.sigma_hat, moments.factor, moments.delta_hat, math.sqrt(math.log(p) / n)


def problem(path, sigma, factor, b, lam, rho):
    return LpProblem(A=sigma, b=b, lam=lam, ridge_rho=rho,
                     factor=factor if path == "low_rank" else None)


def checked_solve(path, *args):
    sol = solve(problem(path, *args))
    assert sol.status == OPTIMAL
    assert sol.low_rank == (path == "low_rank")
    return sol


# p > 2n, so the factor selects the low-rank path.
wide_cases = st.integers(4, 10).flatmap(
    lambda n: st.tuples(
        st.integers(0, 2**31 - 1), st.integers(2 * n + 1, 40), st.just(n),
        st.floats(0.05, 0.95),
    )
)
PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


@pytest.mark.parametrize("path", PATHS)
class TestProperties:
    @PROPERTY_SETTINGS
    @given(case=wide_cases)
    def test_negating_b_negates_beta(self, path, case):
        seed, p, n, frac = case
        sigma, factor, b, rho = wide_sample(seed, p, n)
        lam = frac * float(np.abs(b).max())
        plus = checked_solve(path, sigma, factor, b, lam, rho)
        minus = checked_solve(path, sigma, factor, -b, lam, rho)
        assert np.abs(plus.beta + minus.beta).max() <= 1e-6 * (1 + np.abs(plus.beta).max())

    @PROPERTY_SETTINGS
    @given(case=wide_cases)
    def test_permuting_coordinates_permutes_beta(self, path, case):
        seed, p, n, frac = case
        sigma, factor, b, rho = wide_sample(seed, p, n)
        lam = frac * float(np.abs(b).max())
        perm = np.random.default_rng(seed).permutation(p)
        base = checked_solve(path, sigma, factor, b, lam, rho)
        moved = checked_solve(path, sigma[np.ix_(perm, perm)], factor[perm], b[perm], lam, rho)
        assert np.abs(moved.beta - base.beta[perm]).max() <= 1e-6 * (1 + np.abs(base.beta).max())

    @PROPERTY_SETTINGS
    @given(case=wide_cases, excess=st.floats(1.0, 3.0))
    def test_lambda_above_b_gives_zero(self, path, case, excess):
        seed, p, n, _ = case
        sigma, factor, b, rho = wide_sample(seed, p, n)
        sol = checked_solve(path, sigma, factor, b, excess * float(np.abs(b).max()), rho)
        assert np.abs(sol.beta).max() < 1e-6

    @PROPERTY_SETTINGS
    @given(case=wide_cases)
    def test_constraints_hold_and_l1_beats_direct_solve(self, path, case):
        seed, p, n, frac = case
        sigma, factor, b, rho = wide_sample(seed, p, n)
        lam = frac * float(np.abs(b).max())
        sol = checked_solve(path, sigma, factor, b, lam, rho)
        a_rho = sigma + rho * np.eye(p)
        assert np.abs(a_rho @ sol.beta - b).max() <= lam * (1 + 1e-6) + 1e-8
        direct = np.linalg.solve(a_rho, b)
        assert sol.objective <= np.abs(direct).sum() + 1e-6 * (1 + sol.objective)


class TestLowRankMatchesDense:
    def test_beta_agrees_on_random_wide_problems(self):
        rng = np.random.default_rng(40)
        for seed in range(25):
            n = int(rng.integers(4, 16))
            p = int(rng.integers(2 * n + 1, 80))
            sigma, factor, b, rho = wide_sample(seed, p, n)
            lam = float(rng.uniform(0.05, 0.95)) * float(np.abs(b).max())
            dense = checked_solve("dense", sigma, factor, b, lam, rho)
            low = checked_solve("low_rank", sigma, factor, b, lam, rho)
            assert np.abs(low.beta - dense.beta).max() <= 1e-8 * (1 + np.abs(dense.beta).max())
            assert low.iterations == dense.iterations

    @pytest.mark.parametrize("path", PATHS)
    def test_simplex_oracle_agrees(self, path):
        for seed in range(4):
            sigma, factor, b, rho = wide_sample(seed, 13, 6)
            lam = 0.4 * float(np.abs(b).max())
            sol = checked_solve(path, sigma, factor, b, lam, rho)
            _, obj = l1_oracle(sigma + rho * np.eye(13), b, lam)
            assert abs(sol.objective - obj) <= 1e-6 * (1 + abs(obj))

    def test_acceptance_scale_fit(self):
        """A p=300, n=60 sample as in the wide training workload."""
        sigma, factor, b, rho = wide_sample(3, 300, 60)
        lam = 0.3 * float(np.abs(b).max())
        dense = checked_solve("dense", sigma, factor, b, lam, rho)
        low = checked_solve("low_rank", sigma, factor, b, lam, rho)
        assert np.abs(low.beta - dense.beta).max() <= 1e-8 * np.abs(dense.beta).max()
        assert low.iterations == dense.iterations


class TestFallback:
    @staticmethod
    def system(spread, seed=0, p=40, n=8):
        """A Newton system whose diagonal scalings span 10**spread, as in late iterations."""
        sigma, factor, b, rho = wide_sample(seed, p, n)
        rng = np.random.default_rng(seed)
        w = 10.0 ** rng.uniform(-spread / 2, spread / 2, p)
        dd = 10.0 ** rng.uniform(-spread / 2, spread / 2, p)
        sf = l1solver.build_lp(LpProblem(A=sigma, b=b, lam=1.0, ridge_rho=rho, factor=factor))
        return l1solver._NewtonSystem(sf, w, dd, factor), sf.a_rho, w, dd, rng

    def test_mild_scaling_stays_on_woodbury(self):
        newton, _, _, _, rng = self.system(spread=2)
        r = rng.standard_normal(40)
        x = newton.solve(r)
        assert not newton.fell_back
        assert np.abs(r - newton.apply(x)).max() <= 1e-10 * (1 + np.abs(r).max())

    def test_late_iteration_scaling_falls_back_to_dense(self):
        newton, a_rho, w, dd, rng = self.system(spread=16)
        r = rng.standard_normal(40)
        x = newton.solve(r)
        assert newton.fell_back
        dense = l1solver._dense_newton_factor(a_rho, w, dd)
        assert x.tobytes() == linalg.spd_solve(dense, r).tobytes()

    def test_wrong_factor_falls_back_every_iteration(self):
        """A factor that does not match A fails every check, so each iteration
        takes the dense factor and the result is the dense path's, bit for bit."""
        sigma, factor, b, rho = wide_sample(5, 30, 8)
        lam = 0.3 * float(np.abs(b).max())
        dense = checked_solve("dense", sigma, factor, b, lam, rho)
        wrong = solve(LpProblem(A=sigma, b=b, lam=lam, ridge_rho=rho, factor=10.0 * factor))
        assert wrong.low_rank
        assert wrong.fallbacks == wrong.iterations == dense.iterations
        assert wrong.beta.tobytes() == dense.beta.tobytes()

    @pytest.mark.parametrize("path, fallbacks", [("dense", 0), ("low_rank", 1)])
    def test_dense_factor_rejected_at_every_level_is_numerical_failure(self, monkeypatch,
                                                                      path, fallbacks):
        """The dense factor fails every jitter level: the dense path stops in its first
        iteration; the low-rank path, given a wrong factor, stops at its first fallback."""
        def rejected(a_rho, w, dd):
            raise NotPositiveDefinite("Newton matrix rejected at every jitter level")

        monkeypatch.setattr(l1solver, "_dense_newton_factor", rejected)
        sigma, factor, b, rho = wide_sample(5, 30, 8)
        lam = 0.3 * float(np.abs(b).max())
        sol = solve(problem(path, sigma, 10.0 * factor, b, lam, rho))
        assert sol.status == NUMERICAL_FAILURE
        assert sol.low_rank == (path == "low_rank")
        assert sol.fallbacks == fallbacks
        assert sol.iterations == 0


class TestPathChoice:
    @pytest.mark.parametrize("p, n", [(20, 10), (20, 12), (40, 30)])
    def test_wide_factor_keeps_dense_path(self, p, n):
        """2k >= p: the factor is ignored and the result is the dense path's, bit for bit."""
        sigma, factor, b, rho = wide_sample(7, p, n)
        assert 2 * factor.shape[1] >= p
        lam = 0.3 * float(np.abs(b).max())
        with_factor = solve(LpProblem(A=sigma, b=b, lam=lam, ridge_rho=rho, factor=factor))
        without = checked_solve("dense", sigma, factor, b, lam, rho)
        assert not with_factor.low_rank
        assert with_factor.fallbacks == 0
        assert with_factor.beta.tobytes() == without.beta.tobytes()

    def test_thin_factor_takes_low_rank_path(self):
        sigma, factor, b, rho = wide_sample(7, 21, 10)
        sol = solve(LpProblem(A=sigma, b=b, lam=0.3 * float(np.abs(b).max()), ridge_rho=rho,
                              factor=factor))
        assert sol.low_rank

    def test_factor_rows_must_match(self):
        sigma, factor, b, rho = wide_sample(7, 21, 10)
        with pytest.raises(DimensionMismatch):
            LpProblem(A=sigma, b=b, lam=0.1, factor=factor[:-1])


def desk_fold(p, n_per_class, seed):
    """The moments of one 5-fold CV training split of an AR(1) sample (the
    `simulate --model-id 3` design) and the default 20-point grid of the whole sample."""
    from lpd.model_selection import default_lambda_grid, make_folds
    from lpd.simulation import SimulationSpec, build_model, sample

    spec = SimulationSpec(model_id=3, p=p, n1=n_per_class, n2=n_per_class, seed=seed)
    rng = np.random.default_rng(seed)
    data = sample(build_model(spec, rng), spec, rng)
    grid = default_lambda_grid(compute_moments(data), 20)
    folds = make_folds(data, 5, seed)
    moments = compute_moments(data.subset(np.flatnonzero(folds != 0)))
    return moments, grid


def grid_problem(moments, lam=1.0):
    """The l1 program of the moments with the default ridge, as the classifier builds it."""
    return LpProblem(A=moments.sigma_hat, b=moments.delta_hat, lam=lam,
                     ridge_rho=auto_ridge(moments.p, moments.n1 + moments.n2),
                     factor=moments.factor)


def assert_same_solution(member, single):
    assert member.beta.tobytes() == single.beta.tobytes()
    for name in ("status", "iterations", "duality_gap", "max_residual", "objective", "low_rank",
                 "fallbacks"):
        assert getattr(member, name) == getattr(single, name), name


class TestSolveGrid:
    """solve_grid solves a lambda grid from one shared start point; every member is
    bit-identical to solve at its lambda."""

    @staticmethod
    @functools.cache
    def single_solves(p, n_per_class):
        moments, grid = desk_fold(p, n_per_class, seed=3)
        return moments, grid, [solve(grid_problem(moments, lam)) for lam in grid]

    @pytest.mark.parametrize("p, n_per_class, low_rank", [(100, 200, False), (300, 30, True)])
    def test_members_equal_single_solves(self, p, n_per_class, low_rank):
        moments, grid, singles = self.single_solves(p, n_per_class)
        members = l1solver.solve_grid(grid_problem(moments), grid)
        assert len(members) == grid.size
        for member, single in zip(members, singles):
            assert_same_solution(member, single)
        assert {s.low_rank for s in singles} == {low_rank}
        if low_rank:  # some member takes the dense fallback in some iteration
            assert max(s.fallbacks for s in singles) > 0

    def test_permuting_the_grid_permutes_the_results(self):
        moments, grid = desk_fold(60, 40, seed=5)
        perm = np.random.default_rng(5).permutation(grid.size)
        base = l1solver.solve_grid(grid_problem(moments), grid)
        moved = l1solver.solve_grid(grid_problem(moments), grid[perm])
        for j, member in zip(perm, moved):
            assert_same_solution(member, base[j])

    def test_infeasible_only_below_the_least_norm_residual(self):
        """rho = 0 and a singular A: the members whose lambda is below the least-norm
        residual are InfeasibleProblem, lambda = 0 is a SolverFailure, and the rest
        solve as solve does."""
        from lpd.errors import InfeasibleProblem, SolverFailure

        rng = np.random.default_rng(2)
        u = rng.standard_normal((8, 3))
        a = u @ u.T
        b = rng.standard_normal(8)
        resid = float(np.abs(a @ (linalg.pseudo_inverse(a) @ b) - b).max())
        grid = resid * np.array([3.0, 1.5, 0.9, 0.5, 0.0, 2.0])
        members = l1solver.solve_grid(LpProblem(A=a, b=b, lam=1.0), grid)
        for lam, member in zip(grid, members):
            if lam == 0.0:
                assert isinstance(member, SolverFailure)
                expected = SolverFailure
            elif lam < resid:
                assert isinstance(member, InfeasibleProblem)
                expected = InfeasibleProblem
            else:
                assert_same_solution(member, solve(LpProblem(A=a, b=b, lam=lam)))
                continue
            with pytest.raises(expected) as single:
                solve(LpProblem(A=a, b=b, lam=lam))
            assert str(member) == str(single.value)

    def test_lambda_zero_member_is_the_direct_solve(self):
        moments, _ = desk_fold(20, 30, seed=1)
        member, = l1solver.solve_grid(grid_problem(moments), [0.0])
        assert_same_solution(member, solve(grid_problem(moments, 0.0)))
        assert member.iterations == 0

    def test_grid_is_checked(self):
        moments, grid = desk_fold(20, 30, seed=1)
        assert l1solver.solve_grid(grid_problem(moments), []) == []
        with pytest.raises(ValueError, match="lam must be >= 0"):
            l1solver.solve_grid(grid_problem(moments), [0.1, -0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_lambda_is_rejected(self, bad):
        """A NaN or infinite lambda fails the grid check at once, on both solvers,
        instead of running the interior-point method to its iteration limit."""
        moments, grid = desk_fold(20, 30, seed=1)
        for solver in (l1solver.solve_grid, l1solver.solve_path):
            with pytest.raises(ValueError, match="lam must be >= 0"):
                solver(grid_problem(moments), [float(grid[0]), bad])

    def test_iteration_limit_member_keeps_its_gap(self, monkeypatch):
        """With a 3-iteration budget every member stops at the limit, and reports the
        gap of its own last iterate, as solve does."""
        moments, grid = desk_fold(40, 30, seed=4)
        monkeypatch.setattr(l1solver, "MAX_ITER", 3)
        members = l1solver.solve_grid(grid_problem(moments), grid[::4])
        for lam, member in zip(grid[::4], members):
            assert member.status == "iteration_limit"
            assert_same_solution(member, solve(grid_problem(moments, lam)))
