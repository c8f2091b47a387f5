import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpd import linalg
from lpd.errors import (
    AllFeaturesDropped,
    ClassMissing,
    NonFiniteValue,
    TooFewSamples,
    TopKExceedsP,
)
from lpd.stats import (
    LabeledDataset,
    class_means,
    compute_moments,
    pooled_variances,
    t_statistic_screen,
    t_statistics,
    variance_filter,
)

from oracles import loop_pooled_covariance


def toy_1d():
    """X = {0, 2}, Y = {1, 3}: Xbar=1, Ybar=2, delta=-1, mu=1.5, sigma=1."""
    return LabeledDataset(np.array([[0.0], [2.0], [1.0], [3.0]]), np.array([1, 1, 2, 2]))


def random_dataset(rng, n1, n2, p):
    features = rng.standard_normal((n1 + n2, p))
    labels = np.concatenate([np.ones(n1, int), np.full(n2, 2)])
    return LabeledDataset(features, labels)


class TestLabeledDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue):
            LabeledDataset(np.array([[np.nan]]), np.array([1]))

    def test_rejects_label_zero(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 1)), np.array([0, 1]))

    def test_subset_and_select(self):
        data = random_dataset(np.random.default_rng(0), 3, 3, 4)
        sub = data.subset([0, 3, 4])
        assert sub.n == 3 and sub.p == 4
        sel = data.select_features([1, 3])
        assert sel.p == 2
        assert_allclose(sel.features, data.features[:, [1, 3]])


class TestComputeMoments:
    def test_hand_computed_scalar_case(self):
        m = compute_moments(toy_1d())
        assert_allclose(m.mean1, [1.0])
        assert_allclose(m.mean2, [2.0])
        assert_allclose(m.delta_hat, [-1.0])
        assert_allclose(m.mu_hat, [1.5])
        # divisor-n convention: per-class variance ((0-1)^2 + (2-1)^2)/2 = 1
        assert_allclose(m.sigma_hat, [[1.0]])
        assert (m.n1, m.n2) == (2, 2)

    def test_identical_classes_zero_delta(self):
        x = np.random.default_rng(1).standard_normal((4, 3))
        data = LabeledDataset(np.vstack([x, x]), np.array([1] * 4 + [2] * 4))
        m = compute_moments(data)
        assert_allclose(m.delta_hat, np.zeros(3), atol=1e-15)

    def test_matches_double_loop_oracle(self):
        data = random_dataset(np.random.default_rng(2), 12, 8, 5)
        m = compute_moments(data)
        assert np.abs(m.sigma_hat - loop_pooled_covariance(data.features, data.labels)).max() < 1e-12

    def test_factor_reproduces_sigma(self):
        """The centred-data factor U (p x n) satisfies U U' = sigma_hat."""
        data = random_dataset(np.random.default_rng(4), 9, 6, 20)
        m = compute_moments(data)
        assert m.factor.shape == (20, 15)
        assert np.abs(m.factor @ m.factor.T - m.sigma_hat).max() < 1e-12
        assert np.abs(m.sigma_hat - loop_pooled_covariance(data.features, data.labels)).max() < 1e-12

    def test_class_means_computed_once(self, monkeypatch):
        import lpd.stats as stats

        calls = []
        real = stats.class_means
        monkeypatch.setattr(stats, "class_means", lambda data: calls.append(1) or real(data))
        compute_moments(random_dataset(np.random.default_rng(5), 6, 6, 3))
        assert len(calls) == 1

    def test_label_swap_negates_delta_keeps_sigma(self):
        data = random_dataset(np.random.default_rng(3), 10, 7, 4)
        swapped = LabeledDataset(data.features, 3 - data.labels)
        m1, m2 = compute_moments(data), compute_moments(swapped)
        assert_allclose(m2.delta_hat, -m1.delta_hat)
        assert_allclose(m2.sigma_hat, m1.sigma_hat)
        assert_allclose(m2.mu_hat, m1.mu_hat)

    def test_pooled_diagonal_identity(self):
        data = random_dataset(np.random.default_rng(4), 9, 14, 6)
        m = compute_moments(data)
        assert_allclose(pooled_variances(data), np.diag(m.sigma_hat), rtol=1e-12)

    @pytest.mark.parametrize("n1, n2, p", [(2, 2, 1), (5, 4, 1), (6, 7, 3), (10, 12, 60),
                                           (30, 30, 300), (150, 90, 40)])
    def test_sigma_is_exactly_symmetric(self, n1, n2, p):
        """Each class's product goes through syrk, which mirrors one triangle, so
        Sigma needs no symmetrizing copy; n < p included."""
        sigma = compute_moments(random_dataset(np.random.default_rng(p + n1), n1, n2, p)).sigma_hat
        assert np.array_equal(sigma, sigma.T)
        assert sigma.tobytes() == sigma.T.copy().tobytes()  # signed zeros too

    def test_moments_hold_two_p_by_p_arrays_at_most(self):
        """Sigma's buffer and one class's product; the rest is O(np)."""
        n1, n2, p = 20, 20, 400
        data = random_dataset(np.random.default_rng(8), n1, n2, p)
        tracemalloc.start()
        try:
            compute_moments(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * p * p + 4 * 8 * (n1 + n2) * p

    def test_class_missing(self):
        data = LabeledDataset(np.zeros((3, 2)), np.array([1, 1, 1]))
        with pytest.raises(ClassMissing):
            compute_moments(data)

    def test_too_few_samples(self):
        data = LabeledDataset(np.zeros((3, 2)), np.array([1, 1, 2]))
        with pytest.raises(TooFewSamples):
            compute_moments(data)


class TestVarianceFilter:
    def test_bounds_select_by_definition(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((40, 3))
        scaled = base * np.sqrt([0.001, 1.0, 500.0])
        data = LabeledDataset(scaled, np.concatenate([np.ones(20, int), np.full(20, 2)]))
        kept_data, kept = variance_filter(data, 1e-2, 1e2, scale=1.0)
        assert kept.tolist() == [1]
        assert kept_data.p == 1

    def test_infinite_bounds_identity(self):
        data = random_dataset(np.random.default_rng(6), 5, 5, 4)
        _, kept = variance_filter(data, -np.inf, np.inf)
        assert kept.tolist() == [0, 1, 2, 3]

    def test_scaled_drop_count_matches_recount(self):
        rng = np.random.default_rng(7)
        sds = 10.0 ** rng.uniform(-3, 2, size=60)
        data = random_dataset(rng, 15, 15, 60)
        data = LabeledDataset(data.features * sds, data.labels)
        scale = 1e4
        _, kept = variance_filter(data, 1e-2, 1e2, scale=scale)
        variances = scale * pooled_variances(data)
        expected = sum(1 for v in variances if not 1e-2 <= v <= 1e2)
        assert data.p - kept.size == expected

    def test_all_dropped(self):
        data = random_dataset(np.random.default_rng(8), 5, 5, 3)
        with pytest.raises(AllFeaturesDropped):
            variance_filter(data, 1e6, 1e7)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scale_rejected(self, scale):
        data = random_dataset(np.random.default_rng(8), 5, 5, 3)
        with pytest.raises(ValueError, match=f"scale must be finite, got {scale}"):
            variance_filter(data, 0.0, 10.0, scale=scale)

    def test_deterministic_idempotent(self):
        data = random_dataset(np.random.default_rng(9), 8, 8, 10)
        first, kept1 = variance_filter(data, 0.5, 2.0)
        again, kept2 = variance_filter(data, 0.5, 2.0)
        assert kept1.tolist() == kept2.tolist()
        refiltered, kept3 = variance_filter(first, 0.5, 2.0)
        assert kept3.tolist() == list(range(first.p))
        assert_allclose(refiltered.features, first.features)


class TestTStatisticScreen:
    def test_dominant_shift_wins(self):
        rng = np.random.default_rng(10)
        noise = rng.standard_normal((30, 3))
        shift = np.array([10.0, 0.0, 0.0])
        features = np.vstack([noise[:15] + shift, noise[15:]])
        data = LabeledDataset(features, np.concatenate([np.ones(15, int), np.full(15, 2)]))
        _, kept = t_statistic_screen(data, 1)
        assert kept.tolist() == [0]

    def test_top_k_equals_p_identity(self):
        data = random_dataset(np.random.default_rng(11), 6, 6, 5)
        _, kept = t_statistic_screen(data, 5)
        assert kept.tolist() == [0, 1, 2, 3, 4]

    def test_matches_full_sort_oracle(self):
        data = random_dataset(np.random.default_rng(12), 20, 20, 30)
        t = t_statistics(data)
        expected = set(sorted(range(30), key=lambda j: (-abs(t[j]), j))[:5])
        _, kept = t_statistic_screen(data, 5)
        assert set(kept.tolist()) == expected

    def test_welch_denominator_convention(self):
        """Per-class unbiased variances: t = delta / sqrt(s1^2/n1 + s2^2/n2)."""
        data = random_dataset(np.random.default_rng(13), 9, 13, 4)
        x1 = data.features[data.labels == 1]
        x2 = data.features[data.labels == 2]
        expected = (x1.mean(0) - x2.mean(0)) / np.sqrt(
            x1.var(0, ddof=1) / 9 + x2.var(0, ddof=1) / 13
        )
        assert_allclose(t_statistics(data), expected, rtol=1e-12)

    def test_exact_ties_prefer_lower_index(self):
        rng = np.random.default_rng(14)
        col = rng.standard_normal(20)
        features = np.column_stack([col, col, col])  # identical |t| for all three
        data = LabeledDataset(features, np.concatenate([np.ones(10, int), np.full(10, 2)]))
        _, kept = t_statistic_screen(data, 2)
        assert kept.tolist() == [0, 1]

    def test_top_k_clamped_with_warning(self):
        data = random_dataset(np.random.default_rng(15), 5, 5, 3)
        with pytest.warns(TopKExceedsP):
            _, kept = t_statistic_screen(data, 10)
        assert kept.size == 3

    def test_too_few_samples(self):
        data = LabeledDataset(np.zeros((3, 2)), np.array([1, 2, 2]))
        with pytest.raises(TooFewSamples):
            t_statistic_screen(data, 1)


class TestColumnBlocks:
    """Class means and t statistics copy a column block of a class's rows at a time,
    and give numpy's whole-class figures to the bit."""

    @pytest.mark.parametrize("n, p", [(40, 1), (40, 2), (41, 7), (300, 6), (64, 37)])
    def test_byte_identical_to_whole_class_reductions(self, monkeypatch, n, p):
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 8 * 4 * n)  # blocks of 4 columns; a last of 2-7
        rng = np.random.default_rng(n + p)
        data = LabeledDataset(rng.standard_normal((n, p)) * rng.uniform(0.1, 50, p) + 7,
                              rng.permutation(np.arange(n) % 2 + 1))
        x1, x2 = data.features[data.labels == 1], data.features[data.labels == 2]
        means = class_means(data)
        assert means[1].tobytes() == x1.mean(axis=0).tobytes()
        assert means[2].tobytes() == x2.mean(axis=0).tobytes()
        se2 = x1.var(axis=0, ddof=1) / len(x1) + x2.var(axis=0, ddof=1) / len(x2)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = (x1.mean(axis=0) - x2.mean(axis=0)) / np.sqrt(se2)
        assert t_statistics(data).tobytes() == expected.tobytes()

    def test_t_statistics_copy_blocks_not_classes(self):
        """Each class's rows are 3.2 MB here; a block of them is at most 1 MB."""
        rng = np.random.default_rng(16)
        data = random_dataset(rng, 4000, 4000, 100)
        tracemalloc.start()
        try:
            t_statistics(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * linalg._BLOCK_BYTES
