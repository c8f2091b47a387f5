import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

import lpd
from lpd import l1solver, linalg
from lpd.errors import InfeasibleProblem, NotPositiveDefinite, SolverFailure
from lpd.l1solver import (
    ITERATION_LIMIT,
    OPTIMAL,
    LpProblem,
    build_lp,
    solve,
    support,
)

from oracles import constraint_matrix, l1_oracle, soft_threshold


def random_spd(rng, p, ridge=1.0):
    m = rng.standard_normal((p, p))
    return m.T @ m / p + ridge * np.eye(p)


class TestBuildLp:
    def test_counts_for_p2(self):
        sf = build_lp(LpProblem(A=np.eye(2), b=np.array([1.0, 2.0]), lam=0.5))
        assert sf.n_constraints == 8
        assert constraint_matrix(sf.a_rho).shape == (8, 4)

    def test_zero_ridge_keeps_matrix(self):
        a = random_spd(np.random.default_rng(0), 3)
        sf = build_lp(LpProblem(A=a, b=np.ones(3), lam=1.0, ridge_rho=0.0))
        assert_allclose(sf.a_rho, 0.5 * (a + a.T))

    def test_ridge_added_to_diagonal(self):
        a = random_spd(np.random.default_rng(1), 3)
        sf = build_lp(LpProblem(A=a, b=np.ones(3), lam=1.0, ridge_rho=0.25))
        assert_allclose(sf.a_rho, 0.5 * (a + a.T) + 0.25 * np.eye(3))

    def test_constraints_match_direct_evaluation(self):
        """Each of the four inequality families, checked row by row at a random point."""
        rng = np.random.default_rng(2)
        a = random_spd(rng, 3)
        b = rng.standard_normal(3)
        lam = 0.7
        sf = build_lp(LpProblem(A=a, b=b, lam=lam, ridge_rho=0.1))
        beta, u = rng.standard_normal(3), rng.standard_normal(3)
        x = np.concatenate([beta, u])
        lhs = constraint_matrix(sf.a_rho) @ x
        rhs = sf.rhs(lam)
        a_rho = sf.a_rho
        for j in range(3):
            assert np.isclose(lhs[j] - rhs[j], -beta[j] - u[j])
            assert np.isclose(lhs[3 + j] - rhs[3 + j], beta[j] - u[j])
            assert np.isclose(lhs[6 + j] - rhs[6 + j], -(a_rho[j] @ beta) + b[j] - lam)
            assert np.isclose(lhs[9 + j] - rhs[9 + j], (a_rho[j] @ beta) - b[j] - lam)
        # structured operators agree with the materialized matrix
        assert_allclose(sf.apply_g(beta, u), constraint_matrix(sf.a_rho) @ x)
        z = rng.standard_normal(12)
        gt_beta, gt_u = sf.apply_gt(z)
        assert_allclose(np.concatenate([gt_beta, gt_u]), constraint_matrix(sf.a_rho).T @ z)


class TestSolve:
    def test_identity_soft_thresholding(self):
        sol = solve(LpProblem(A=np.eye(3), b=np.array([3.0, 0.5, -2.0]), lam=1.0))
        assert sol.status == OPTIMAL
        assert_allclose(sol.beta, [2.0, 0.0, -1.0], atol=1e-6)

    def test_large_lambda_gives_zero(self):
        b = np.array([3.0, 0.5, -2.0])
        sol = solve(LpProblem(A=np.eye(3), b=b, lam=float(np.abs(b).max())))
        assert sol.status == OPTIMAL
        assert np.abs(sol.beta).max() < 1e-6
        assert sol.objective < 1e-6

    def test_matches_simplex_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            p = int(rng.integers(2, 7))
            a = random_spd(rng, p)
            b = rng.standard_normal(p)
            lam = 0.3 * np.abs(b).max()
            sol = solve(LpProblem(A=a, b=b, lam=lam))
            _, obj = l1_oracle(a, b, lam)
            assert sol.status == OPTIMAL
            assert abs(sol.objective - obj) <= 1e-6 * (1 + abs(obj))

    def test_tiny_lambda_recovers_direct_solve(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 5))
        a = x.T @ x / 40
        b = rng.standard_normal(5)
        sol = solve(LpProblem(A=a, b=b, lam=1e-10))
        assert sol.status == OPTIMAL
        assert np.abs(sol.beta - np.linalg.solve(a, b)).max() < 1e-4

    def test_lambda_zero_spd_direct_point(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 4)
        b = rng.standard_normal(4)
        sol = solve(LpProblem(A=a, b=b, lam=0.0))
        assert sol.status == OPTIMAL
        assert_allclose(sol.beta, np.linalg.solve(a, b), atol=1e-9)

    def test_infeasible_singular_small_lambda(self):
        a = np.diag([1.0, 0.0])
        with pytest.raises(InfeasibleProblem):
            solve(LpProblem(A=a, b=np.array([1.0, 1.0]), lam=0.3))

    def test_singular_but_feasible_solves(self):
        """Rank-deficient A with b in range: lambda above the projection residual."""
        a = np.diag([1.0, 0.0])
        b = np.array([1.0, 0.1])
        sol = solve(LpProblem(A=a, b=b, lam=0.2))
        assert sol.status == OPTIMAL
        assert sol.max_residual <= 0.2 + 1e-6

    def test_iteration_limit_status(self, monkeypatch):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 5)
        b = rng.standard_normal(5)
        monkeypatch.setattr(l1solver, "MAX_ITER", 2)
        sol = solve(LpProblem(A=a, b=b, lam=0.1))
        assert sol.status == ITERATION_LIMIT

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 6)
        b = rng.standard_normal(6)
        prob = LpProblem(A=a, b=b, lam=0.2, ridge_rho=0.05)
        s1, s2 = solve(prob), solve(prob)
        assert s1.beta.tobytes() == s2.beta.tobytes()
        assert s1.iterations == s2.iterations


class TestSolveProperties:
    def test_soft_threshold_identity_battery(self):
        """A = I reduces the program to elementwise soft thresholding."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = int(rng.integers(1, 12))
            b = rng.standard_normal(p) * rng.uniform(0.5, 3)
            lam = rng.uniform(0.05, 1.5)
            sol = solve(LpProblem(A=np.eye(p), b=b, lam=lam))
            assert sol.status == OPTIMAL
            assert np.abs(sol.beta - soft_threshold(b, lam)).max() < 1e-6

    def test_feasibility_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = int(rng.integers(2, 10))
            a = random_spd(rng, p, ridge=rng.uniform(0.2, 2))
            b = rng.standard_normal(p)
            lam = rng.uniform(0.05, 1.0) * np.abs(b).max()
            rho = float(rng.choice([0.0, 0.1]))
            sol = solve(LpProblem(A=a, b=b, lam=lam, ridge_rho=rho))
            assert sol.status == OPTIMAL
            assert sol.max_residual <= lam * (1 + 1e-6) + 1e-8
            assert sol.duality_gap <= l1solver.GAP_TOL

    def test_dominance_over_feasible_references(self):
        """|beta_hat|_1 never exceeds the l1 norm of any feasible point."""
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = int(rng.integers(2, 7))
            a = random_spd(rng, p)
            b = rng.standard_normal(p)
            lam = 0.4 * np.abs(b).max()
            sol = solve(LpProblem(A=a, b=b, lam=lam))
            ref_direct = np.linalg.solve(a, b)
            ref_oracle, _ = l1_oracle(a, b, lam)
            slack = 1e-6 * (1 + sol.objective)
            assert sol.objective <= np.abs(ref_direct).sum() + slack
            assert sol.objective <= np.abs(ref_oracle).sum() + slack

    def test_objective_monotone_in_lambda(self):
        rng = np.random.default_rng(11)
        a = random_spd(rng, 6)
        b = rng.standard_normal(6)
        lams = np.linspace(0.05, 1.0, 8) * np.abs(b).max()
        objectives = [solve(LpProblem(A=a, b=b, lam=float(l))).objective for l in lams]
        for small, large in zip(objectives[1:], objectives[:-1]):
            assert small <= large + 1e-7 * (1 + large)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(12)
        a = random_spd(rng, 5)
        b = rng.standard_normal(5)
        lam = 0.3 * np.abs(b).max()
        base = solve(LpProblem(A=a, b=b, lam=lam))
        for c in (0.1, 3.0, 10.0):
            scaled = solve(LpProblem(A=a, b=c * b, lam=c * lam))
            assert np.abs(scaled.beta - c * base.beta).max() < 1e-5 * (1 + c * np.abs(base.beta).max())

    def test_zero_b_gives_zero(self):
        sol = solve(LpProblem(A=np.eye(4), b=np.zeros(4), lam=0.5))
        assert sol.status == OPTIMAL
        assert np.abs(sol.beta).max() < 1e-8


class TestSupport:
    def test_thresholding(self):
        sol = solve(LpProblem(A=np.eye(3), b=np.array([3.0, 0.5, -2.0]), lam=1.0))
        assert support(sol).tolist() == [0, 2]

    def test_zero_beta_empty(self):
        sol = solve(LpProblem(A=np.eye(2), b=np.array([0.1, -0.2]), lam=1.0))
        assert support(sol).tolist() == []

    def test_requires_optimal(self, monkeypatch):
        rng = np.random.default_rng(13)
        a = random_spd(rng, 4)
        monkeypatch.setattr(l1solver, "MAX_ITER", 1)
        sol = solve(LpProblem(A=a, b=rng.standard_normal(4), lam=0.1))
        with pytest.raises(ValueError):
            support(sol)

    def test_stable_under_halving_eps(self):
        """Declared support barely moves between eps = 1e-3 and 5e-4."""
        from lpd.simulation import SimulationSpec, build_model, sample
        from lpd.stats import compute_moments
        from lpd.classifier import fit_lpd_from_moments

        spec = SimulationSpec(model_id=3, p=100, reps=1, seed=21)
        truth = build_model(spec)
        streams = np.random.SeedSequence(spec.seed).spawn(10)
        stable = 0
        for stream in streams:
            rng = np.random.default_rng(stream)
            data = sample(truth, spec, rng)
            model = fit_lpd_from_moments(compute_moments(data), 0.15)
            mags = np.abs(model.beta) / np.abs(model.beta).max()
            s_full = set(np.flatnonzero(mags > 1e-3).tolist())
            s_half = set(np.flatnonzero(mags > 5e-4).tolist())
            stable += s_full == s_half
        assert stable >= 9


class TestValidation:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LpProblem(A=np.eye(2), b=np.ones(2), lam=-0.1)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            LpProblem(A=np.eye(2), b=np.ones(2), lam=0.1, ridge_rho=-1.0)

    def test_fit_failure_has_informative_message(self, monkeypatch):
        from lpd.classifier import fit_lpd_from_moments
        from lpd.stats import LabeledDataset, compute_moments

        rng = np.random.default_rng(14)
        data = LabeledDataset(
            rng.standard_normal((12, 4)), np.concatenate([np.ones(6, int), np.full(6, 2)])
        )
        moments = compute_moments(data)
        # the path hands lambda on after its first pivot, to one interior-point iteration
        monkeypatch.setattr(l1solver, "_WORK_MULTIPLE", 0.0)
        monkeypatch.setattr(l1solver, "MAX_ITER", 1)
        message = r"status 'iteration_limit' at lambda=0\.05 \(gap \d\.\d\de[-+]\d+ after 1 iterations\)"
        with pytest.raises(SolverFailure, match=message):
            fit_lpd_from_moments(moments, 0.05)


class TestStepLengths:
    @staticmethod
    def reference(v, dv):
        """The ratio test one entry at a time."""
        ratios = [-vi / dvi for vi, dvi in zip(v, dv) if dvi < 0]
        return min([1.0, *ratios])

    def test_matches_the_entrywise_ratio_test(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = 10.0 ** rng.uniform(-12, 2, (2, 40))
            dv = rng.standard_normal((2, 40)) * 10.0 ** rng.uniform(-6, 6, (2, 40))
            dv[rng.random((2, 40)) < 0.1] = 0.0
            steps = l1solver._step_lengths(v, dv)
            for row in range(2):
                assert steps[row] == self.reference(v[row], dv[row])

    def test_no_decreasing_entry_gives_a_full_step(self):
        v = np.ones((2, 3))
        dv = np.array([[0.0, -0.0, 1.0], [2.0, 0.0, 3.0]])
        assert_array_equal(l1solver._step_lengths(v, dv), [1.0, 1.0])


class TestJitterLadder:
    """_dense_newton_factor retries a rejected Newton matrix with jitter
    _CHOL_JITTERS[k] * max|diag H| added to the diagonal, level by level."""

    @staticmethod
    def count_factor_calls(monkeypatch):
        calls, original = [], linalg.spd_factor

        def counted(a):
            calls.append(a.copy())
            return original(a)

        monkeypatch.setattr(linalg, "spd_factor", counted)
        return calls

    def test_passes_at_a_later_level(self, monkeypatch):
        # H = I diag(1, 1) I + diag(0, -1 - 1e-12) = diag(1, -1e-12): jitter 0 and
        # 1e-14 leave the second pivot negative, 1e-10 makes it positive.
        calls = self.count_factor_calls(monkeypatch)
        a_rho, w, dd = np.eye(2), np.ones(2), np.array([0.0, -1.0 - 1e-12])
        c, lower = l1solver._dense_newton_factor(a_rho, w, dd)
        assert l1solver._CHOL_JITTERS[:3] == (0.0, 1e-14, 1e-10)
        assert len(calls) == 3
        h_mat = np.diag(w) + np.diag(dd)
        assert_array_equal(calls[0], h_mat)
        expected = h_mat + 1e-10 * np.eye(2)
        assert_array_equal(calls[2], expected)
        reference = scipy.linalg.cho_factor(expected, lower=True)
        assert lower is True
        assert_array_equal(c, reference[0])

    def test_rejected_at_every_level(self, monkeypatch):
        calls = self.count_factor_calls(monkeypatch)
        with pytest.raises(NotPositiveDefinite, match="every jitter level"):
            l1solver._dense_newton_factor(np.eye(2), np.ones(2), np.array([0.0, -2.0]))
        assert len(calls) == len(l1solver._CHOL_JITTERS)


# One desk-scale simulate refit: the train set of replication `rep` of
# `simulate --model-id 3 --p 100 --reps 3 --seed <seed>`, drawn as
# simulation._run_replication draws it, solved at lambda index j of the
# default 20-point grid.
_DESK_SOLVE = """
import sys
import numpy as np
from lpd.classifier import auto_ridge
from lpd.l1solver import LpProblem, solve
from lpd.model_selection import default_lambda_grid
from lpd.simulation import SimulationSpec, build_model, sample
from lpd.stats import compute_moments

seed, rep, j = map(int, sys.argv[1:])
spec = SimulationSpec(model_id=3, p=100, reps=3, seed=seed)
rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(spec.reps)[rep])
moments = compute_moments(sample(build_model(spec, rng), spec, rng))
lam = float(default_lambda_grid(moments, 20)[j])
sol = solve(LpProblem(A=moments.sigma_hat, b=moments.delta_hat, lam=lam,
                      ridge_rho=auto_ridge(moments.p, moments.n1 + moments.n2),
                      factor=moments.factor))
print(repr(lam), sol.status)
"""


class TestDeskStalls:
    """Two desk-scale solves that stop at the iteration limit with a duality gap
    of 2.6e-22 and 1.8e-12. Their rounding depends on the BLAS thread count, so
    each runs in a child process on one BLAS thread, as the benchmark does."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="interior-point stall: the dual residual is lost near the end")
    @pytest.mark.parametrize("seed, rep, j, lam", [
        (2051437826, 1, 19, 0.0218165375782904),
        (887978162, 0, 16, 0.03669232276568325),
    ])
    def test_desk_solve_is_optimal(self, seed, rep, j, lam):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        src = str(Path(lpd.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _DESK_SOLVE, str(seed), str(rep), str(j)],
                             env=env, capture_output=True, text=True, timeout=120)
        if out.returncode != 0 or float(out.stdout.split()[0]) != lam:
            pytest.fail(f"the desk problem was not rebuilt: {out.stdout}{out.stderr}")
        assert out.stdout.split()[1] == OPTIMAL


# The same desk problem solved over its whole default grid by solve_grid; prints
# lambda j and every member's status.
_DESK_GRID = """
import sys
import numpy as np
from lpd.classifier import auto_ridge
from lpd.l1solver import LpProblem, solve_grid
from lpd.model_selection import default_lambda_grid
from lpd.simulation import SimulationSpec, build_model, sample
from lpd.stats import compute_moments

seed, rep, j = map(int, sys.argv[1:])
spec = SimulationSpec(model_id=3, p=100, reps=3, seed=seed)
rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(spec.reps)[rep])
moments = compute_moments(sample(build_model(spec, rng), spec, rng))
grid = default_lambda_grid(moments, 20)
members = solve_grid(LpProblem(A=moments.sigma_hat, b=moments.delta_hat, lam=float(grid[0]),
                               ridge_rho=auto_ridge(moments.p, moments.n1 + moments.n2),
                               factor=moments.factor), grid)
print(repr(float(grid[j])), " ".join(m.status for m in members))
"""


@pytest.mark.parametrize("seed, rep, j, lam", [
    (2051437826, 1, 19, 0.0218165375782904),
    (887978162, 0, 16, 0.03669232276568325),
])
def test_desk_stall_is_the_same_inside_its_grid(seed, rep, j, lam):
    """Solved with its whole 20-point grid, the TestDeskStalls lambda still stops at the
    iteration limit, and every other member certifies: the batch changes no member."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(lpd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _DESK_GRID, str(seed), str(rep), str(j)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    printed_lam, *statuses = out.stdout.split()
    assert float(printed_lam) == lam
    assert statuses == [OPTIMAL] * j + [ITERATION_LIMIT] + [OPTIMAL] * (19 - j)
