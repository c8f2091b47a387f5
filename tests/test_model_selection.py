import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpd.errors import DegenerateDelta, SolverError, SolverFailure, TooFewSamplesPerClass
from lpd.model_selection import CvPlan, cross_validate, default_lambda_grid, make_folds
from lpd.stats import LabeledDataset, compute_moments
from lpd import model_selection


def separable_data(rng, n_per_class=10, p=3, gap=12.0):
    x1 = rng.standard_normal((n_per_class, p)) + gap
    x2 = rng.standard_normal((n_per_class, p))
    return LabeledDataset(
        np.vstack([x1, x2]), np.concatenate([np.ones(n_per_class, int), np.full(n_per_class, 2)])
    )


class TestMakeFolds:
    def test_exact_division(self):
        data = separable_data(np.random.default_rng(0), n_per_class=10)
        folds = make_folds(data, 5, seed=1)
        for k in range(5):
            members = np.flatnonzero(folds == k)
            assert members.size == 4
            assert set(data.labels[members].tolist()) == {1, 2}

    def test_uneven_sizes_differ_by_at_most_one(self):
        features = np.random.default_rng(1).standard_normal((11 + 10, 2))
        data = LabeledDataset(features, np.concatenate([np.ones(11, int), np.full(10, 2)]))
        folds = make_folds(data, 5, seed=2)
        for k in (1, 2):
            rows = data.class_rows(k)
            sizes = [np.sum(folds[rows] == f) for f in range(5)]
            assert max(sizes) - min(sizes) <= 1

    def test_seed_determinism(self):
        data = separable_data(np.random.default_rng(2))
        assert make_folds(data, 5, seed=7).tolist() == make_folds(data, 5, seed=7).tolist()
        assert make_folds(data, 5, seed=7).tolist() != make_folds(data, 5, seed=8).tolist()

    def test_too_few_samples_per_class(self):
        data = separable_data(np.random.default_rng(3), n_per_class=3)
        with pytest.raises(TooFewSamplesPerClass):
            make_folds(data, 5, seed=0)


class TestDefaultLambdaGrid:
    def test_geometric_grid_three_points(self):
        data = separable_data(np.random.default_rng(4))
        moments = compute_moments(data)
        moments.delta_hat = np.array([1.0, 0.2, -0.4])
        grid = default_lambda_grid(moments, 3)
        assert_allclose(grid, [1.0, 1.0 / np.sqrt(50.0), 1.0 / 50.0])

    def test_degenerate_delta(self):
        data = separable_data(np.random.default_rng(5))
        moments = compute_moments(data)
        moments.delta_hat = np.zeros(3)
        with pytest.raises(DegenerateDelta):
            default_lambda_grid(moments, 5)

    def test_size_validation(self):
        data = separable_data(np.random.default_rng(6))
        with pytest.raises(ValueError):
            default_lambda_grid(compute_moments(data), 1)


class TestCvPlan:
    def test_grid_stored_descending(self):
        plan = CvPlan(folds=2, lambda_grid=[0.1, 0.2, 0.4], seed=0)
        assert plan.lambda_grid.tolist() == [0.4, 0.2, 0.1]

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            CvPlan(folds=2, lambda_grid=[0.1, 0.4, 0.2])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            CvPlan(folds=2, lambda_grid=[0.4, 0.0])


class TestCrossValidate:
    def test_singleton_grid(self):
        data = separable_data(np.random.default_rng(7))
        plan = CvPlan(folds=5, lambda_grid=[0.3], seed=0)
        result = cross_validate(data, plan)
        assert result.chosen_lambda == 0.3

    def test_separable_data_all_correct_minimum_chosen(self):
        """Well-separated clusters: every small lambda classifies everything,
        so the tie-break selects the grid minimum."""
        data = separable_data(np.random.default_rng(8), gap=25.0)
        grid = [1.0, 0.5, 0.25]
        result = cross_validate(data, CvPlan(folds=5, lambda_grid=grid, seed=3))
        assert result.correct_counts.max() == data.n
        winners = result.lambda_grid[result.correct_counts == data.n]
        assert result.chosen_lambda == float(winners.min()) == 0.25

    def test_forced_tie_prefers_minimum_lambda(self):
        data = separable_data(np.random.default_rng(9), gap=25.0)
        result = cross_validate(data, CvPlan(folds=2, lambda_grid=[0.2, 0.1], seed=1))
        counts = result.per_lambda_correct()
        assert counts[0.2] == counts[0.1]
        assert result.chosen_lambda == 0.1

    def test_counts_reproducible_bit_for_bit(self):
        data = separable_data(np.random.default_rng(10), gap=4.0)
        plan = CvPlan(folds=4, lambda_grid=[0.8, 0.4, 0.2, 0.1], seed=9)
        r1 = cross_validate(data, plan)
        r2 = cross_validate(data, plan)
        assert r1.correct_counts.tolist() == r2.correct_counts.tolist()
        assert r1.chosen_lambda == r2.chosen_lambda
        assert r1.fold_assignments.tolist() == r2.fold_assignments.tolist()

    def test_failed_lambda_marked_ineligible(self, monkeypatch):
        data = separable_data(np.random.default_rng(11), gap=25.0)
        real_path = model_selection.fit_lpd_path

        def failing_path(moments, lambdas, *rest):
            return [SolverFailure("injected failure") if lam == 0.1 else fit
                    for lam, fit in zip(lambdas, real_path(moments, lambdas, *rest))]

        monkeypatch.setattr(model_selection, "fit_lpd_path", failing_path)
        result = cross_validate(data, CvPlan(folds=2, lambda_grid=[0.2, 0.1], seed=1))
        # 0.1 would win the tie-break, but its failures make it ineligible
        assert result.chosen_lambda == 0.2
        assert list(result.failures) == [1]

    def test_all_lambdas_failing_raises(self, monkeypatch):
        data = separable_data(np.random.default_rng(12))

        def always_fail(moments, lambdas, *rest):
            return [SolverFailure("injected") for _ in lambdas]

        monkeypatch.setattr(model_selection, "fit_lpd_path", always_fail)
        with pytest.raises(SolverError):
            cross_validate(data, CvPlan(folds=2, lambda_grid=[0.2], seed=0))

    def test_equicorrelation_draw_lands_in_expected_bracket(self):
        """One fixed generated-data run: the CV choice sits inside the
        bracket where the optimum is known to live for this design."""
        from lpd.simulation import SimulationSpec, build_model, sample

        spec = SimulationSpec(model_id=1, p=100, seed=3)
        truth = build_model(spec)
        train = sample(truth, spec, np.random.default_rng(3))
        moments = compute_moments(train)
        grid = default_lambda_grid(moments, 20)
        result = cross_validate(train, CvPlan(folds=5, lambda_grid=grid, seed=11))
        assert 0.05 <= result.chosen_lambda <= 0.3

    def test_refit_at_chosen_lambda_succeeds(self):
        from lpd.classifier import fit_lpd

        data = separable_data(np.random.default_rng(13), n_per_class=12, gap=3.0)
        moments = compute_moments(data)
        grid = default_lambda_grid(moments, 6)
        result = cross_validate(data, CvPlan(folds=3, lambda_grid=grid, seed=4))
        model = fit_lpd(data, result.chosen_lambda)
        assert model.beta.shape == (3,)


class TestSmallestBestLambda:
    def test_ties_go_to_the_smallest_lambda(self):
        scores = {0.4: 7, 0.2: 9, 0.1: 9, 0.05: 8}
        assert model_selection.smallest_best_lambda(scores, max) == 0.1
        assert model_selection.smallest_best_lambda({0.4: 1.5, 0.2: 1.5, 0.1: 3.0}, min) == 0.2
