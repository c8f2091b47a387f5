"""solve_path against the simplex oracle and against solve_grid, and the desk
problems whose interior-point solve stalls, solved along the path."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpd
from lpd import l1solver
from lpd.errors import InfeasibleProblem, SolverError, SolverFailure
from lpd.l1solver import GAP_TOL, OPTIMAL, LpProblem, solve_grid, solve_path

from oracles import l1_oracle


def sample_moments(rng, p):
    """A sample covariance of p + 5 draws (full rank) and a random target."""
    x = rng.standard_normal((p + 5, p))
    return x.T @ x / (p + 5), rng.standard_normal(p)


def assert_same_entries(got, expected):
    """Entry by entry: the same LpSolution fields, beta bit for bit, or the same error."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert type(g) is type(e)
        if isinstance(e, SolverError):
            assert str(g) == str(e)
            continue
        assert g.beta.tobytes() == e.beta.tobytes()
        assert (g.objective, g.max_residual, g.iterations, g.duality_gap, g.status,
                g.low_rank, g.fallbacks) == (e.objective, e.max_residual, e.iterations,
                                             e.duality_gap, e.status, e.low_rank, e.fallbacks)


class TestSolvePath:
    @pytest.mark.parametrize("rho", [0.0, 0.1])
    def test_matches_simplex_oracle(self, rho):
        rng = np.random.default_rng(31 if rho else 32)
        for _ in range(12):
            p = int(rng.integers(3, 13))
            a, b = sample_moments(rng, p)
            lams = np.abs(b).max() * np.array([0.8, 0.5, 0.3, 0.15, 0.05])
            a_rho = a + rho * np.eye(p)
            for lam, sol in zip(lams, solve_path(LpProblem(A=a, b=b, lam=1.0, ridge_rho=rho), lams)):
                _, objective = l1_oracle(a_rho, b, lam)
                assert sol.status == OPTIMAL
                assert abs(sol.objective - objective) <= 1e-7 * (1 + objective)
                assert np.abs(a_rho @ sol.beta - b).max() <= lam * (1 + 1e-6) + 1e-8
                assert sol.duality_gap <= GAP_TOL
                assert (sol.low_rank, sol.fallbacks) == (False, 0)

    def test_unsorted_and_duplicate_lambdas_in_input_order(self):
        a, b = sample_moments(np.random.default_rng(33), 8)
        problem = LpProblem(A=a, b=b, lam=1.0, ridge_rho=0.1)
        top = np.abs(b).max()
        lams = top * np.array([0.3, 0.9, 0.05, 0.3, 0.6])
        ordered = top * np.array([0.9, 0.6, 0.3, 0.05])
        by_lam = dict(zip(ordered.tolist(), solve_path(problem, ordered)))
        got = solve_path(problem, lams)
        assert_same_entries(got, [by_lam[lam] for lam in lams.tolist()])
        assert got[0].beta is not got[3].beta
        # pivots accumulate down the path
        assert got[1].iterations <= got[4].iterations <= got[0].iterations <= got[2].iterations

    def test_lambda_at_or_above_the_top_gives_exact_zero(self):
        a, b = sample_moments(np.random.default_rng(34), 6)
        top = float(np.abs(b).max())
        for sol in solve_path(LpProblem(A=a, b=b, lam=1.0, ridge_rho=0.1), [top, 2 * top]):
            assert sol.status == OPTIMAL
            assert not sol.beta.any()
            assert (sol.objective, sol.iterations) == (0.0, 0)

    def test_lambda_zero_gives_solve_grids_entry(self):
        a, b = sample_moments(np.random.default_rng(35), 5)
        problem = LpProblem(A=a, b=b, lam=1.0)
        lams = [0.0, 0.2 * float(np.abs(b).max())]
        got = solve_path(problem, lams)
        assert_same_entries(got[:1], solve_grid(problem, lams[:1]))
        assert got[1].status == OPTIMAL

    def test_singular_matrix_at_zero_ridge_gives_solve_grids_errors(self):
        problem = LpProblem(A=np.diag([1.0, 0.0]), b=np.array([1.0, 1.0]), lam=1.0)
        lams = [2.0, 1.0, 0.3, 0.0]
        got = solve_path(problem, lams)
        assert [sol.status for sol in got[:2]] == [OPTIMAL, OPTIMAL]
        assert isinstance(got[2], InfeasibleProblem)
        assert isinstance(got[3], SolverFailure)
        assert_same_entries(got[2:], solve_grid(problem, lams[2:]))

    def test_uncertified_points_are_solve_grids_entries(self, monkeypatch):
        a, b = sample_moments(np.random.default_rng(36), 7)
        problem = LpProblem(A=a, b=b, lam=1.0, ridge_rho=0.1)
        lams = np.abs(b).max() * np.array([1.5, 0.7, 0.2, 0.7, 0.05])
        monkeypatch.setattr(l1solver, "_certify", lambda *args: None)
        assert_same_entries(solve_path(problem, lams), solve_grid(problem, lams))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            solve_path(LpProblem(A=np.eye(2), b=np.ones(2), lam=1.0), [0.5, -0.1])


# The train set of replication `rep` of `simulate --model-id 3 --p 100 --reps 3
# --seed <seed>`, drawn as simulation._run_replication draws it, fitted over its
# default 20-point grid by fit_lpd_path; then that replication run whole.
# Prints each grid entry's status, then the replication's refit failures and lambda_hat.
_DESK_PATH = """
import sys
import numpy as np
from lpd.classifier import fit_lpd_path
from lpd.errors import SolverError
from lpd.model_selection import default_lambda_grid
from lpd.simulation import METHOD_ORDER, SimulationSpec, _run_replication, build_model, sample
from lpd.stats import compute_moments

seed, rep = map(int, sys.argv[1:])
spec = SimulationSpec(model_id=3, p=100, reps=3, seed=seed)
stream = np.random.SeedSequence(seed).spawn(spec.reps)[rep]
rng = np.random.default_rng(stream)
moments = compute_moments(sample(build_model(spec, rng), spec, rng))
fits = fit_lpd_path(moments, default_lambda_grid(moments, 20))
print(" ".join("failed" if isinstance(fit, SolverError) else "optimal" for fit in fits))
record = _run_replication(spec, METHOD_ORDER, stream, rep, 5, 20)
print(len(record.refit_failures), record.lambda_hat)
"""


@pytest.mark.parametrize("seed, rep", [(2051437826, 1), (887978162, 0)])
def test_desk_stall_grids_are_optimal_along_the_path(seed, rep):
    """The two TestDeskStalls problems, over their whole grid by fit_lpd_path: every
    entry certifies, and their replication completes with no failed refit (on the
    interior-point grid, the first one's refit at lambda index 19 stalls).
    One BLAS thread in a child process, as TestDeskStalls runs."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(lpd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _DESK_PATH, str(seed), str(rep)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    statuses, replication = out.stdout.splitlines()
    assert statuses.split() == ["optimal"] * 20
    refit_failures, lambda_hat = replication.split()
    assert refit_failures == "0" and float(lambda_hat) > 0
