import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpd.classifier import (
    LpdModel,
    decision_scores,
    fit_glda,
    fit_lpd,
    fit_naive_bayes,
    fit_ofair,
    oracle_fisher,
    predict,
)
from lpd import linalg
from lpd.errors import DimensionMismatch, EmptySupport, ZeroVariance
from lpd.stats import LabeledDataset, compute_moments

from oracles import oracle_independence_gap
from test_parallel import run_child


def toy_1d():
    return LabeledDataset(np.array([[0.0], [2.0], [1.0], [3.0]]), np.array([1, 1, 2, 2]))


def random_binary(rng, n1, n2, p, shift=0.0):
    x1 = rng.standard_normal((n1, p)) + shift
    x2 = rng.standard_normal((n2, p))
    return LabeledDataset(np.vstack([x1, x2]), np.concatenate([np.ones(n1, int), np.full(n2, 2)]))


class TestFitLpd:
    def test_scalar_toy_soft_threshold(self):
        """Sigma=1, delta=-1, lambda=0.5 forces beta = -0.5 analytically."""
        model = fit_lpd(toy_1d(), lam=0.5)
        assert_allclose(model.beta, [-0.5], atol=1e-7)
        assert_allclose(model.mu_hat, [1.5])
        assert model.threshold == 0.0

    def test_equal_priors_zero_threshold(self):
        model = fit_lpd(random_binary(np.random.default_rng(0), 10, 10, 3), lam=0.5)
        assert model.threshold == 0.0

    def test_solver_failure_names_status_lambda_and_gap(self, monkeypatch):
        """The path hands lambda to the interior-point method after its first pivot
        (a work bound of 0), and that method stalls."""
        import lpd.classifier as classifier
        from lpd import l1solver
        from lpd.errors import SolverFailure
        from lpd.l1solver import ITERATION_LIMIT, LpSolution

        def stalls(problem, lambdas):
            return [LpSolution(beta=np.zeros(problem.b.size), objective=0.0, max_residual=1.0,
                               iterations=100, duality_gap=3.5e-4, status=ITERATION_LIMIT)
                    for _ in lambdas]

        monkeypatch.setattr(l1solver, "_WORK_MULTIPLE", 0.0)
        monkeypatch.setattr(l1solver, "solve_grid", stalls)
        moments = compute_moments(random_binary(np.random.default_rng(18), 8, 8, 3, shift=2.0))
        with pytest.raises(SolverFailure) as failure:
            classifier.fit_lpd_from_moments(moments, lam=0.2)
        message = str(failure.value)
        assert "'iteration_limit'" in message
        assert "lambda=0.2 " in message
        assert "gap 3.50e-04 after 100 iterations" in message


class TestFitLpdPath:
    """fit_lpd_path gives, lambda by lambda, a model of what fit_lpd_from_moments
    gives, or the error it raises. A path model is a certified vertex, not the
    interior-point iterate, so its beta agrees only within the certificate."""

    def test_models_equal_single_fits(self):
        import lpd.classifier as classifier
        from lpd.l1solver import GAP_TOL

        moments = compute_moments(random_binary(np.random.default_rng(21), 30, 30, 12, shift=1.0))
        lambdas = [0.9, 0.4, 0.2, 0.1, 0.05]
        path = classifier.fit_lpd_path(moments, lambdas, ridge_rho=0.3)
        a_rho = moments.sigma_hat + 0.3 * np.eye(moments.p)
        for lam, model in zip(lambdas, path):
            single = classifier.fit_lpd_from_moments(moments, lam, ridge_rho=0.3)
            assert (model.lam, model.ridge_rho, model.threshold) == (lam, 0.3, 0.0)
            assert model.metadata.keys() == single.metadata.keys()
            resid = np.abs(a_rho @ model.beta - moments.delta_hat).max()
            assert resid <= lam * (1 + 1e-6) + 1e-8
            assert model.metadata["max_residual"] == resid
            assert model.metadata["duality_gap"] <= GAP_TOL
            l1 = np.abs(model.beta).sum()
            assert abs(l1 - np.abs(single.beta).sum()) <= GAP_TOL * (1 + l1)

    def test_failures_are_returned_with_the_raised_message(self, monkeypatch):
        import lpd.classifier as classifier
        from lpd import l1solver
        from lpd.errors import SolverFailure

        moments = compute_moments(random_binary(np.random.default_rng(22), 20, 20, 6, shift=1.0))
        monkeypatch.setattr(l1solver, "_certify", lambda *args: None)
        monkeypatch.setattr(l1solver, "MAX_ITER", 2)
        lambdas = [0.3, 0.1]
        path = classifier.fit_lpd_path(moments, lambdas)
        for lam, failure in zip(lambdas, path):
            assert isinstance(failure, SolverFailure)
            with pytest.raises(SolverFailure) as raised:
                classifier.fit_lpd_from_moments(moments, lam)
            assert str(failure) == str(raised.value)
        assert classifier.fit_lpd_path(moments, []) == []


class TestPredict:
    def test_large_irrelevant_coordinate_ignored(self):
        model = LpdModel(beta=[1.0, 0.0], mu_hat=[0.0, 0.0])
        assert predict(model, [0.5, 100.0]) == 1

    def test_boundary_goes_to_class_1(self):
        model = LpdModel(beta=[1.0, -2.0], mu_hat=[0.3, -0.7])
        assert predict(model, model.mu_hat) == 1

    def test_scalar_toy_continuation(self):
        model = LpdModel(beta=[-0.5], mu_hat=[1.5])
        assert predict(model, [2.5]) == 2
        assert decision_scores(model, [2.5]) == pytest.approx(-0.5)

    def test_batch_shape(self):
        model = LpdModel(beta=[1.0], mu_hat=[0.0])
        out = predict(model, np.array([[1.0], [-1.0], [0.0]]))
        assert out.tolist() == [1, 2, 1]

    def test_kept_indices_select_original_columns(self):
        model = LpdModel(beta=[2.0, -1.0], mu_hat=[0.0, 0.0], kept_indices=[1, 3])
        wide = np.array([99.0, 1.0, 99.0, 1.0])
        assert decision_scores(model, wide) == pytest.approx(1.0)
        # already-reduced input is accepted unchanged
        assert decision_scores(model, np.array([1.0, 1.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("ids", [[1, 0], [-1, 2], [2, 2]])
    def test_kept_indices_must_be_nonnegative_and_increasing(self, ids):
        """With [1, 0], a reduced row [10, 1] and a full row [10, 1, 0] would score differently."""
        with pytest.raises(ValueError, match="kept_indices"):
            LpdModel(beta=[1.0, 2.0], mu_hat=[0.0, 0.0], kept_indices=ids)

    def test_dimension_mismatch(self):
        model = LpdModel(beta=[1.0, 2.0], mu_hat=[0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            predict(model, [1.0, 2.0, 3.0])

    def test_positive_scaling_invariance(self):
        """Scaling beta by c > 0 changes scores but never decisions."""
        rng = np.random.default_rng(3)
        model = fit_lpd(random_binary(rng, 15, 15, 6, shift=0.8), lam=0.3)
        points = rng.standard_normal((50, 6))
        base = predict(model, points)
        for c in (0.01, 0.5, 7.0, 1e4):
            scaled = LpdModel(beta=c * model.beta, mu_hat=model.mu_hat)
            assert predict(scaled, points).tolist() == base.tolist()

    def test_label_swap_antisymmetry(self):
        rng = np.random.default_rng(4)
        data = random_binary(rng, 12, 12, 4, shift=1.0)
        swapped = LabeledDataset(data.features, 3 - data.labels)
        m1 = fit_naive_bayes(compute_moments(data))
        m2 = fit_naive_bayes(compute_moments(swapped))
        assert_allclose(m2.beta, -m1.beta, rtol=1e-12)
        points = rng.standard_normal((40, 4))
        s1 = decision_scores(m1, points)
        flipped = predict(m2, points)
        original = predict(m1, points)
        off_boundary = np.abs(s1) > 1e-12
        assert np.all(original[off_boundary] != flipped[off_boundary])


# Scores of every batch size around a block's B rows, by blocks and by the one
# product, at one BLAS thread: more threads split the one product's rows by
# the batch's size.
BLOCK_SCORES = """
import numpy as np
from lpd.classifier import LpdModel, decision_scores
from lpd.linalg import row_blocks

rng = np.random.default_rng(11)
for p in (1, 3, 200):
    b = next(row_blocks(1 << 30, p))[1]
    for n in (1, 2, b - 1, b, b + 1, 2 * b + 1):
        for kept in (None, np.arange(1, 2 * p, 2)):
            x = rng.standard_normal((n, p if kept is None else 2 * p + 1)) * 10
            model = LpdModel(beta=rng.standard_normal(p), mu_hat=rng.standard_normal(p),
                             kept_indices=kept)
            one_product = ((x if kept is None else x[:, kept]) - model.mu_hat) @ model.beta
            same = decision_scores(model, x).tobytes() == one_product.tobytes()
            print(p, n, kept is not None, same)
"""


class TestBlockScoring:
    def test_blocks_score_as_one_product(self):
        lines = run_child(BLOCK_SCORES)
        assert len(lines) == 36
        assert [line for line in lines if not line.endswith("True")] == []

    def test_one_sample_scores_as_a_float(self):
        model = LpdModel(beta=[1.0, -2.0, 0.5], mu_hat=[0.1, 0.2, 0.3], kept_indices=[0, 2, 4])
        x = np.array([1.0, 9.0, 2.0, 9.0, 3.0])
        score = decision_scores(model, x)
        assert type(score) is float
        assert score == float((x[[0, 2, 4]] - model.mu_hat) @ model.beta)

    def test_scoring_allocates_blocks_not_the_batch(self):
        """A selected block and its centred copy, not the n x p selection (6.4 MB)."""
        rng = np.random.default_rng(12)
        n, p = 8000, 100
        x = rng.standard_normal((n, 2 * p))
        model = LpdModel(beta=rng.standard_normal(p), mu_hat=rng.standard_normal(p),
                         kept_indices=np.arange(0, 2 * p, 2))
        tracemalloc.start()
        try:
            scores = decision_scores(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (n,)
        assert peak < 2 * linalg._BLOCK_BYTES + 8 * n + (64 << 10)


class TestBaselines:
    def test_naive_bayes_elementwise(self):
        data = random_binary(np.random.default_rng(5), 10, 14, 5)
        moments = compute_moments(data)
        model = fit_naive_bayes(compute_moments(data))
        for j in range(5):
            assert model.beta[j] == pytest.approx(
                moments.delta_hat[j] / moments.sigma_hat[j, j]
            )

    def test_naive_bayes_zero_delta(self):
        x = np.random.default_rng(6).standard_normal((5, 3))
        data = LabeledDataset(np.vstack([x, x]), np.array([1] * 5 + [2] * 5))
        model = fit_naive_bayes(compute_moments(data))
        assert_allclose(model.beta, np.zeros(3), atol=1e-15)

    def test_naive_bayes_zero_variance(self):
        features = np.column_stack([np.ones(8), np.random.default_rng(7).standard_normal(8)])
        data = LabeledDataset(features, np.array([1] * 4 + [2] * 4))
        with pytest.raises(ZeroVariance):
            fit_naive_bayes(compute_moments(data))

    def test_glda_equals_naive_bayes_on_diagonal_sigma(self):
        # signed-basis design: each class's centered rows are +/- scaled unit
        # vectors, so the pooled covariance is exactly diagonal
        block = np.vstack([np.diag([2.0, 3.0, 4.0]), -np.diag([2.0, 3.0, 4.0])])
        features = np.vstack([block, block + np.array([1.0, -0.5, 2.0])])
        data = LabeledDataset(features, np.array([1] * 6 + [2] * 6))
        moments = compute_moments(data)
        assert np.abs(moments.sigma_hat - np.diag(np.diag(moments.sigma_hat))).max() < 1e-12
        assert_allclose(fit_glda(compute_moments(data)).beta,
                        fit_naive_bayes(compute_moments(data)).beta, atol=1e-10)

    def test_glda_invertible_case(self):
        data = random_binary(np.random.default_rng(9), 30, 30, 4)
        moments = compute_moments(data)
        expected = np.linalg.solve(moments.sigma_hat, moments.delta_hat)
        assert_allclose(fit_glda(compute_moments(data)).beta, expected, rtol=1e-8)

    def test_glda_rank_deficient_stays_in_row_space(self):
        data = random_binary(np.random.default_rng(10), 4, 4, 12)  # n < p
        moments = compute_moments(data)
        beta = fit_glda(compute_moments(data)).beta
        # projection onto the row space of sigma must leave beta unchanged
        w, v = np.linalg.eigh(moments.sigma_hat)
        keep = np.abs(w) > 1e-10 * np.abs(w).max()
        projected = v[:, keep] @ (v[:, keep].T @ beta)
        assert np.abs(projected - beta).max() < 1e-8

    @pytest.mark.filterwarnings("error")
    def test_glda_fit_emits_no_warning(self):
        fit_glda(compute_moments(random_binary(np.random.default_rng(10), 4, 4, 12)))

    def test_glda_zero_delta(self):
        x = np.random.default_rng(11).standard_normal((6, 4))
        data = LabeledDataset(np.vstack([x, x]), np.array([1] * 6 + [2] * 6))
        assert_allclose(fit_glda(compute_moments(data)).beta, np.zeros(4), atol=1e-12)

    def test_ofair_full_support_equals_naive_bayes(self):
        data = random_binary(np.random.default_rng(12), 10, 10, 5)
        assert_allclose(fit_ofair(compute_moments(data), range(5)).beta,
                        fit_naive_bayes(compute_moments(data)).beta)

    def test_ofair_restricts_coordinates(self):
        data = random_binary(np.random.default_rng(13), 10, 10, 3)
        nb = fit_naive_bayes(compute_moments(data))
        model = fit_ofair(compute_moments(data), [0])
        assert model.beta[0] == pytest.approx(nb.beta[0])
        assert model.beta[1] == 0.0 and model.beta[2] == 0.0

    def test_ofair_empty_support(self):
        with pytest.raises(EmptySupport):
            fit_ofair(compute_moments(toy_1d()), [])


class TestFitOnGeneratedData:
    def test_banded_model_support_concentrates_on_true_block(self):
        """Fixed draw from the banded design: the declared support catches
        most of the 11 true nonzeros and stays near the leading block."""
        from lpd.simulation import SimulationSpec, build_model, sample, support_metrics
        from lpd.classifier import fit_lpd_from_moments

        spec = SimulationSpec(model_id=3, p=100, seed=42)
        truth = build_model(spec)
        train = sample(truth, spec, np.random.default_rng(42))
        model = fit_lpd_from_moments(compute_moments(train), lam=0.18)
        metrics = support_metrics(model.beta, truth.beta_star)
        assert metrics.tpos >= 7
        declared = np.flatnonzero(np.abs(model.beta) > 1e-3 * np.abs(model.beta).max())
        assert np.sum(declared < 15) >= declared.size // 2

    def test_ofair_error_level_on_equicorrelation(self):
        """Independence rule on the true support: the closed-form rate is
        Phi(-0.5 * s0 / sqrt(s0 + rho s0 (s0-1))) = 25.0% here."""
        from lpd.simulation import SimulationSpec, run_benchmark

        spec = SimulationSpec(model_id=1, p=100, reps=5, seed=2)
        report = run_benchmark(spec, methods=("ofair",))
        assert 20.0 <= report.error_mean["ofair"] <= 30.0


class TestOracleFisher:
    def test_identity_precision(self):
        model = oracle_fisher([1.0, 0.0], [0.0, 1.0], np.eye(2))
        assert_allclose(model.beta, [1.0, -1.0])
        assert_allclose(model.mu_hat, [0.5, 0.5])

    def test_equal_means_zero_direction(self):
        mu = np.array([1.0, 2.0])
        assert_allclose(oracle_fisher(mu, mu, np.eye(2)).beta, [0.0, 0.0])

    def test_tridiagonal_product_by_hand(self):
        """AR(1)-inverse times a two-one mean difference: direct row sums."""
        from lpd.simulation import SimulationSpec, build_model

        truth = build_model(SimulationSpec(model_id=3, p=5, s0=2, seed=0))
        model = oracle_fisher(truth.mu1, truth.mu2, truth.omega)
        delta = truth.mu1 - truth.mu2
        expected = np.array([truth.omega[i] @ delta for i in range(5)])
        assert_allclose(model.beta, expected, rtol=1e-12)
        assert np.abs(model.beta[4]) < 1e-12  # beyond the tridiagonal reach


class TestOracleIndependenceGap:
    def test_identity_sigma_equality(self):
        delta = np.array([1.0, -2.0, 0.5])
        upsilon, delta_p = oracle_independence_gap(np.eye(3), delta)
        assert upsilon**2 == pytest.approx(delta_p)
        assert delta_p == pytest.approx(float(delta @ delta))

    def test_compound_symmetry_closed_form(self):
        """delta' Sigma^{-1} delta for equicorrelation with s0 leading ones:
        (s0 - rho s0^2 / (1 + (p-1) rho)) / (1 - rho)."""
        p, s0, rho = 100, 10, 0.5
        sigma = np.full((p, p), rho)
        np.fill_diagonal(sigma, 1.0)
        delta = np.zeros(p)
        delta[:s0] = 1.0
        closed = (s0 - rho * s0**2 / (1 + (p - 1) * rho)) / (1 - rho)
        _, delta_p = oracle_independence_gap(sigma, delta)
        assert delta_p == pytest.approx(closed, rel=1e-10)
        assert delta_p == pytest.approx(18.0198, abs=1e-4)

    def test_gap_inequality_on_random_spd(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            p = int(rng.integers(2, 12))
            m = rng.standard_normal((p, p))
            sigma = m @ m.T + 0.5 * np.eye(p)
            delta = rng.standard_normal(p)
            upsilon, delta_p = oracle_independence_gap(sigma, delta)
            assert delta_p >= upsilon**2 - 1e-9 * (1 + delta_p)

    def test_block_support_efficiency_chain(self):
        """With delta on a leading block: full-covariance separation >=
        block separation >= squared independence separation."""
        rng = np.random.default_rng(19)
        for _ in range(100):
            p = int(rng.integers(3, 10))
            k = int(rng.integers(1, p))
            m = rng.standard_normal((p, p))
            sigma = m @ m.T + 0.5 * np.eye(p)
            delta = np.zeros(p)
            delta[:k] = rng.standard_normal(k)
            if not np.any(delta):
                continue
            upsilon, delta_p = oracle_independence_gap(sigma, delta)
            block = float(
                delta[:k] @ np.linalg.solve(sigma[:k, :k], delta[:k])
            )
            assert delta_p >= block - 1e-9 * (1 + delta_p)
            assert block >= upsilon**2 - 1e-9 * (1 + block)

    def test_zero_delta(self):
        assert oracle_independence_gap(np.eye(2), np.zeros(2)) == (0.0, 0.0)
