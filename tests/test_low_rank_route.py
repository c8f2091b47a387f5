"""The low-rank route: on wide data (2n < p) at a ridge rho > 0, an LPD fit goes
through the centred-data factor U alone and never forms Sigma_hat or A_rho.
It must give the dense route's statuses and supports, and cost less memory
than one p x p matrix."""

import tracemalloc

import numpy as np
import pytest

from lpd.classifier import auto_ridge, fit_lpd_path, lpd_problem
from lpd.errors import SolverError
from lpd.l1solver import GAP_TOL, OPTIMAL, LpProblem, build_lp, solve_path, support_mask
from lpd.model_selection import default_lambda_grid
from lpd.simulation import SimulationSpec, build_model, sample
from lpd.stats import compute_moments


def model3_sample(p, n, seed):
    """A draw of `lpd simulate --model-id 3` at p with n/2 rows per class."""
    spec = SimulationSpec(model_id=3, p=p, n1=n // 2, n2=n - n // 2, seed=seed)
    rng = np.random.default_rng(seed)
    return sample(build_model(spec, rng), spec, rng)


def dense_problem(moments, rho):
    """The program with A = sigma_hat, the route every fit took before the low-rank one."""
    return LpProblem(A=moments.sigma_hat, b=moments.delta_hat, lam=1.0, ridge_rho=rho,
                     factor=moments.factor)


def test_wide_fit_peaks_below_one_p_by_p_matrix():
    """compute_moments and a 20-point fit_lpd_path at p=400, n=40 allocate less than
    one p x p matrix. The grid runs from ||delta||_inf down to half of it, where the
    support stays under 60: the path's active block keeps |I| x p rows of A_rho and
    an |I| x |I| inverse (ROADMAP item 1), which near full support are p x p too."""
    p, n = 400, 40
    for seed in range(3):
        data = model3_sample(p, n, seed)
        lam_max = float(np.abs(compute_moments(data).delta_hat).max())
        grid = lam_max * 0.5 ** np.linspace(0.0, 1.0, 20)
        tracemalloc.start()
        try:
            moments = compute_moments(data)
            fits = fit_lpd_path(moments, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(fit.metadata["duality_gap"] <= GAP_TOL for fit in fits)
        assert "sigma_hat" not in vars(moments)  # never built
        assert peak < 8 * p * p

    moments = compute_moments(model3_sample(p, n, 0))
    with pytest.raises(ValueError):
        LpProblem(A=None, b=moments.delta_hat, lam=0.1, ridge_rho=0.3)
    with pytest.raises(ValueError):
        LpProblem(A=None, b=moments.delta_hat, lam=0.1, ridge_rho=0.0, factor=moments.factor)


def test_a_may_not_be_left_out_beside_a_wide_factor():
    """2k >= p: the factor gives no low-rank route, so A is needed."""
    moments = compute_moments(model3_sample(30, 20, 0))
    with pytest.raises(ValueError):
        LpProblem(A=None, b=moments.delta_hat, lam=0.1, ridge_rho=0.3, factor=moments.factor)


def test_operators_match_the_dense_a_rho():
    """times_a, row, solve_a and dense of the low-rank route against A_rho = sigma_hat + rho I."""
    moments = compute_moments(model3_sample(60, 20, 3))
    rho = auto_ridge(60, 20)
    low = build_lp(lpd_problem(moments, rho, 1.0))
    assert low.a_rho is None
    a_rho = moments.sigma_hat + rho * np.eye(60)
    x = np.random.default_rng(0).standard_normal(60)
    scale = np.abs(a_rho).max()
    assert np.abs(low.times_a(x) - a_rho @ x).max() <= 1e-12 * scale * np.abs(x).max()
    for k in (0, 17, 59):
        assert np.abs(low.row(k) - a_rho[k]).max() <= 1e-12 * scale
    assert np.abs(low.dense() - a_rho).max() <= 1e-12 * scale
    beta0 = low.solve_a(moments.delta_hat)
    assert np.abs(a_rho @ beta0 - moments.delta_hat).max() <= 1e-10 * np.abs(moments.delta_hat).max()


@pytest.mark.parametrize("p, n, seed", [(41, 20, 0), (60, 20, 1), (100, 30, 2), (150, 40, 3),
                                        (200, 24, 4), (300, 60, 5)])
def test_low_rank_route_agrees_with_the_dense_route(p, n, seed):
    """At every default-grid lambda: the same status, the same support, and
    ||beta||_1 within GAP_TOL (1 + ||beta||_1)."""
    moments = compute_moments(model3_sample(p, n, seed))
    assert 2 * moments.factor.shape[1] < p
    rho = auto_ridge(p, n)
    grid = default_lambda_grid(moments, 20)
    low = solve_path(lpd_problem(moments, rho, 1.0), grid)
    dense = solve_path(dense_problem(moments, rho), grid)
    for got, want in zip(low, dense):
        if isinstance(want, SolverError):
            assert type(got) is type(want)
            continue
        assert got.status == want.status
        if want.status != OPTIMAL:
            continue
        assert np.array_equal(support_mask(got.beta), support_mask(want.beta))
        assert abs(got.objective - want.objective) <= GAP_TOL * (1 + want.objective)


@pytest.mark.parametrize("p, n, rho", [(30, 20, None), (40, 20, None), (100, 30, 0.0)])
def test_dense_route_is_unchanged(p, n, rho):
    """At 2n >= p, or at rho = 0, fit_lpd_path solves the program with A = sigma_hat,
    byte for byte."""
    moments = compute_moments(model3_sample(p, n, 7))
    ridge = auto_ridge(p, n) if rho is None else rho
    grid = default_lambda_grid(moments, 20)
    fits = fit_lpd_path(moments, grid, rho)
    for fit, sol in zip(fits, solve_path(dense_problem(moments, ridge), grid)):
        if isinstance(sol, SolverError):
            assert str(fit) == str(sol)
        else:
            assert fit.beta.tobytes() == sol.beta.tobytes()
            assert fit.metadata["max_residual"] == sol.max_residual
