import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

from lpd.classifier import LpdModel, fit_lpd_from_moments, oracle_fisher
from lpd.errors import ZeroBeta
from lpd.linalg import sym_eigen
from lpd.simulation import (
    GroundTruth,
    SimulationSpec,
    build_model,
    check_run_options,
    conditional_rate,
    normal_cdf,
    oracle_rate,
    run_benchmark,
    sample,
    support_metrics,
)
from lpd.stats import compute_moments

from oracles import gauss_solve


class TestBuildModel:
    def test_equicorrelation_p4(self):
        truth = build_model(SimulationSpec(model_id=1, p=4, s0=2))
        expected = np.full((4, 4), 0.5)
        np.fill_diagonal(expected, 1.0)
        assert_allclose(truth.sigma, expected)
        w, _ = sym_eigen(truth.sigma)
        assert w[-1] == pytest.approx(0.5)  # 1 - rho

    def test_ar1_inverse_closed_form_p5(self):
        truth = build_model(SimulationSpec(model_id=3, p=5, s0=2))
        numeric = np.linalg.inv(truth.sigma)
        assert np.abs(truth.omega - numeric).max() < 1e-8
        denom = 1 - 0.8**2
        assert truth.omega[1, 1] == pytest.approx((1 + 0.8**2) / denom)  # 4.5556
        assert truth.omega[0, 1] == pytest.approx(-0.8 / denom)  # -2.2222
        off_band = np.triu(np.abs(truth.omega), k=2)
        assert off_band.max() < 1e-8

    def test_ar1_tridiagonal_at_p100(self):
        truth = build_model(SimulationSpec(model_id=3, p=100))
        assert np.triu(np.abs(truth.omega), k=2).max() < 1e-8

    def test_model1_separation_two_paths(self):
        """Closed form for the equicorrelation separation, cross-checked by a
        linear solve through an independent factorization path."""
        truth = build_model(SimulationSpec(model_id=1, p=100))
        closed = (10 - 0.5 * 100 / (1 + 99 * 0.5)) / 0.5
        assert truth.delta_p == pytest.approx(closed, abs=1e-10)
        delta = truth.mu1 - truth.mu2
        solved = float(delta @ gauss_solve(truth.sigma, delta))
        assert abs(truth.delta_p - solved) < 1e-8
        assert truth.delta_p == pytest.approx(18.0198, abs=1e-4)

    def test_model3_separation_value(self):
        truth = build_model(SimulationSpec(model_id=3, p=100))
        delta = truth.mu1 - truth.mu2
        solved = float(delta @ gauss_solve(truth.sigma, delta))
        assert abs(truth.delta_p - solved) < 1e-8
        assert truth.delta_p == pytest.approx(3.7778, abs=1e-4)

    @pytest.mark.parametrize("model_id", [1, 2, 3])
    @pytest.mark.parametrize("p", [10, 50, 100])
    def test_sigma_omega_inverse_pair(self, model_id, p):
        spec = SimulationSpec(model_id=model_id, p=p, s0=min(10, p), seed=5)
        truth = build_model(spec, np.random.default_rng(5))
        assert np.abs(truth.sigma @ truth.omega - np.eye(p)).max() < 1e-6

    def test_model2_unit_diagonal_and_pd(self):
        truth = build_model(SimulationSpec(model_id=2, p=60, seed=9), np.random.default_rng(9))
        assert_allclose(np.diag(truth.omega), np.ones(60), atol=1e-12)
        w, _ = sym_eigen(truth.omega)
        assert w[-1] > 0

    def test_model2_redrawn_per_stream(self):
        spec = SimulationSpec(model_id=2, p=30, seed=4)
        t1 = build_model(spec, np.random.default_rng(1))
        t2 = build_model(spec, np.random.default_rng(2))
        assert np.abs(t1.omega - t2.omega).max() > 1e-3

    def test_mean_vectors(self):
        truth = build_model(SimulationSpec(model_id=1, p=20, s0=7))
        assert_allclose(truth.mu1, np.zeros(20))
        assert truth.mu2[:7].tolist() == [1.0] * 7
        assert np.abs(truth.mu2[7:]).max() == 0.0

    def test_delta_p_positive_required(self):
        with pytest.raises(ValueError):
            GroundTruth(
                mu1=np.zeros(2),
                mu2=np.zeros(2),
                sigma=np.eye(2),
                omega=np.eye(2),
                beta_star=np.zeros(2),
                delta_p=0.0,
            )


class TestSample:
    def test_law_of_large_numbers_identity_case(self):
        # rho = 0 makes the covariance exactly the identity
        truth = build_model(SimulationSpec(model_id=1, p=4, s0=1, rho=0.0))
        assert_allclose(truth.sigma, np.eye(4))
        spec = SimulationSpec(model_id=1, p=4, n1=10000, n2=2, s0=1, rho=0.0)
        data = sample(truth, spec, np.random.default_rng(0))
        x = data.features[data.labels == 1]
        assert np.abs(x.mean(axis=0)).max() < 0.05
        assert np.abs(np.cov(x.T, ddof=0) - np.eye(4)).max() < 0.05

    def test_heavy_tail_scale_convention(self):
        """With a chi2(5) mixing weight the marginal variance is 5/3 per axis."""
        truth = build_model(SimulationSpec(model_id=1, p=3, s0=1, rho=0.0))
        spec = SimulationSpec(
            model_id=1, p=3, n1=10000, n2=2, s0=1, rho=0.0, distribution="t5"
        )
        data = sample(truth, spec, np.random.default_rng(1))
        x = data.features[data.labels == 1]
        var = x.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 5.0 / 3.0) < 5.0 / 3.0 * 0.1)

    def test_fixed_seed_bit_identical(self):
        spec = SimulationSpec(model_id=3, p=10, n1=20, n2=25, s0=3, distribution="t5")
        truth = build_model(spec)
        d1 = sample(truth, spec, np.random.default_rng(42))
        d2 = sample(truth, spec, np.random.default_rng(42))
        assert d1.features.tobytes() == d2.features.tobytes()
        assert d1.labels.tolist() == d2.labels.tolist()

    def test_class_layout(self):
        spec = SimulationSpec(model_id=1, p=5, n1=7, n2=9, s0=2)
        truth = build_model(spec)
        data = sample(truth, spec, np.random.default_rng(3))
        assert data.n == 16
        assert data.class_rows(1).size == 7
        assert data.class_rows(2).size == 9


class TestOracleRate:
    def test_model3_table_anchor(self):
        truth = build_model(SimulationSpec(model_id=3, p=100))
        assert 100 * oracle_rate(truth) == pytest.approx(16.56, abs=0.05)

    def test_model1_table_anchor(self):
        truth = build_model(SimulationSpec(model_id=1, p=100))
        assert 100 * oracle_rate(truth) == pytest.approx(1.69, abs=0.02)

    def test_limits(self):
        base = build_model(SimulationSpec(model_id=1, p=10, s0=2))
        strong = GroundTruth(
            base.mu1, base.mu2, base.sigma, base.omega, base.beta_star, 1e6
        )
        weak = GroundTruth(base.mu1, base.mu2, base.sigma, base.omega, base.beta_star, 1e-12)
        assert oracle_rate(strong) < 1e-10
        assert oracle_rate(weak) == pytest.approx(0.5, abs=1e-6)

    def test_strictly_decreasing_in_separation(self):
        base = build_model(SimulationSpec(model_id=1, p=10, s0=2))
        rates = [
            oracle_rate(
                GroundTruth(base.mu1, base.mu2, base.sigma, base.omega, base.beta_star, dp)
            )
            for dp in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_oracle_error_beats_independence_rule(self):
        """Phi(-sqrt(sep)/2) <= Phi(-upsilon/2) on every generated model."""
        from oracles import oracle_independence_gap

        for model_id, seed in ((1, 0), (2, 1), (3, 2)):
            truth = build_model(
                SimulationSpec(model_id=model_id, p=50, seed=seed), np.random.default_rng(seed)
            )
            upsilon, delta_p = oracle_independence_gap(truth.sigma, truth.mu1 - truth.mu2)
            assert delta_p == pytest.approx(truth.delta_p, rel=1e-8)
            assert ndtr(-0.5 * math.sqrt(delta_p)) <= ndtr(-0.5 * upsilon) + 1e-12


class TestNormalCdf:
    """simulation.normal_cdf is 0.5 erfc(-x / sqrt 2), in place of scipy.special.ndtr."""

    X = np.linspace(-38.0, 8.0, 46001)

    def test_matches_ndtr_to_1e_13_down_to_minus_18(self):
        x = self.X[self.X >= -18.0]
        ours = np.array([normal_cdf(v) for v in x])
        assert np.all(np.abs(ours - ndtr(x)) <= 1e-13 * ndtr(x))

    def test_far_tail(self):
        """Below -18, rounding -x / sqrt 2 moves erfc by up to 2 t^2 2^-53 (1.6e-13 at
        t = 26.5), and ndtr itself is off the exact value by up to 2.3e-13 there (mpmath,
        40 digits); so the two agree to 1e-12. Below about -37.5 ndtr's result is
        subnormal or 0."""
        x = self.X[(self.X < -18.0) & (self.X >= -37.5)]
        ours = np.array([normal_cdf(v) for v in x])
        assert np.all(np.abs(ours - ndtr(x)) <= 1e-12 * ndtr(x))
        deep = self.X[self.X < -37.5]
        assert all(0.0 <= normal_cdf(v) < 1e-306 for v in deep)
        assert np.all(ndtr(deep) < 1e-306)

    def test_symmetry_and_limits(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(-40.0) == 0.0 and normal_cdf(40.0) == 1.0
        for v in (0.3, 1.7, 5.0):
            assert normal_cdf(v) + normal_cdf(-v) == pytest.approx(1.0, abs=1e-16)


class TestConditionalRate:
    def test_oracle_inputs_reduce_to_oracle_rate(self):
        truth = build_model(SimulationSpec(model_id=3, p=40))
        model = oracle_fisher(truth.mu1, truth.mu2, truth.omega)
        assert conditional_rate(truth, model) == pytest.approx(oracle_rate(truth), abs=1e-12)

    def test_scale_invariance_at_oracle_mean(self):
        truth = build_model(SimulationSpec(model_id=1, p=30))
        mu = 0.5 * (truth.mu1 + truth.mu2)
        rates = [
            conditional_rate(truth, LpdModel(beta=c * truth.beta_star, mu_hat=mu))
            for c in (0.1, 1.0, 42.0)
        ]
        assert max(rates) - min(rates) < 1e-12

    def test_orthogonal_direction_is_coin_flip(self):
        truth = build_model(SimulationSpec(model_id=1, p=10, s0=3, rho=0.0))
        delta = truth.mu1 - truth.mu2
        beta = np.zeros(10)
        beta[-1] = 1.0  # delta is supported on the first coordinates
        assert float(delta @ beta) == 0.0
        mu = 0.5 * (truth.mu1 + truth.mu2)
        assert conditional_rate(truth, LpdModel(beta=beta, mu_hat=mu)) == pytest.approx(0.5)

    def test_zero_beta_raises(self):
        truth = build_model(SimulationSpec(model_id=1, p=5, s0=2))
        with pytest.raises(ZeroBeta):
            conditional_rate(truth, LpdModel(beta=np.zeros(5), mu_hat=np.zeros(5)))

    def test_monte_carlo_consistency(self):
        """The analytic conditional rate matches the empirical error of the
        same fitted rule on a large fresh test set."""
        from lpd.classifier import predict

        spec = SimulationSpec(model_id=1, p=50, n1=100, n2=100, seed=17)
        truth = build_model(spec)
        rng = np.random.default_rng(170)
        train = sample(truth, spec, rng)
        model = fit_lpd_from_moments(compute_moments(train), lam=0.2)
        rate = conditional_rate(truth, model)
        big = SimulationSpec(model_id=1, p=50, n1=5000, n2=5000, seed=17)
        test = sample(truth, big, rng)
        empirical = float(np.mean(predict(model, test.features) != test.labels))
        sd = math.sqrt(rate * (1 - rate) / test.n)
        assert abs(empirical - rate) < 3 * sd + 1e-12


class TestSupportMetrics:
    def test_definition_case(self):
        m = support_metrics(np.array([1.0, 0, 1, 0]), np.array([1.0, 1, 0, 0]))
        assert (m.pos, m.tpos) == (2, 1)
        assert m.tpr == pytest.approx(0.5)
        assert m.fpr == pytest.approx(0.5)

    def test_perfect_recovery(self):
        beta = np.array([0.0, 2.0, 0.0, -3.0])
        m = support_metrics(beta, beta)
        assert (m.tpr, m.fpr) == (1.0, 0.0)
        assert m.tpos == m.pos == 2

    def test_all_true_support_gives_nan_fpr(self):
        m = support_metrics(np.ones(3), np.ones(3))
        assert math.isnan(m.fpr)
        assert m.tpr == 1.0

    def test_noise_level_estimate_counts_nothing(self):
        m = support_metrics(np.full(4, 1e-9), np.ones(4))
        assert m.pos == 0


def rows_equal(rows_a, rows_b):
    """Row-list equality treating NaN as equal to NaN."""
    if len(rows_a) != len(rows_b):
        return False
    for a, b in zip(rows_a, rows_b):
        if a[:2] != b[:2]:
            return False
        for x, y in zip(a[2:], b[2:]):
            if not (x == y or (math.isnan(x) and math.isnan(y))):
                return False
    return True


class TestRunBenchmark:
    def test_oracle_only_matches_closed_form(self):
        spec = SimulationSpec(model_id=3, p=40, n1=100, n2=100, s0=5, reps=8, seed=3)
        report = run_benchmark(spec, methods=("oracle",))
        truth = build_model(spec)
        expected = 100 * oracle_rate(truth)
        sd = 100 * math.sqrt(oracle_rate(truth) * (1 - oracle_rate(truth)) / 200)
        assert abs(report.error_mean["oracle"] - expected) < 3 * sd / math.sqrt(8)
        assert report.reps_failed == 0

    def test_record_invariants(self):
        spec = SimulationSpec(model_id=3, p=30, n1=40, n2=40, s0=5, reps=3, seed=12)
        report = run_benchmark(spec, methods=("lpd",), grid_size=5, cv_folds=2)
        true_size = int(np.sum(np.abs(build_model(spec).beta_star) > 1e-10))
        for record in report.records:
            s = record.support
            assert s.tpos <= s.pos
            assert s.tpos <= true_size
            assert 0.0 <= s.tpr <= 1.0
            assert 0.0 <= s.fpr <= 1.0
            assert 0.0 <= record.conditional_rate <= 1.0
            assert record.lambda_hat > 0

    def test_single_rep_bit_reproducible(self):
        spec = SimulationSpec(model_id=3, p=20, n1=30, n2=30, s0=4, reps=1, seed=77)
        r1 = run_benchmark(spec, methods=("lpd", "oracle"), grid_size=5, cv_folds=3)
        r2 = run_benchmark(spec, methods=("lpd", "oracle"), grid_size=5, cv_folds=3)
        assert rows_equal(r1.to_rows(), r2.to_rows())
        assert r1.records[0].lambda_hat == r2.records[0].lambda_hat

    def test_thread_pool_matches_sequential(self):
        spec = SimulationSpec(model_id=1, p=15, n1=25, n2=25, s0=3, reps=4, seed=5)
        seq = run_benchmark(spec, methods=("lpd", "naive_bayes"), grid_size=4, cv_folds=2)
        par = run_benchmark(
            spec, methods=("lpd", "naive_bayes"), grid_size=4, cv_folds=2, max_workers=4
        )
        assert rows_equal(seq.to_rows(), par.to_rows())

    def test_unknown_method_rejected(self):
        spec = SimulationSpec(model_id=1, p=10, reps=1)
        with pytest.raises(ValueError):
            run_benchmark(spec, methods=("lpd", "svm"))

    def test_failure_counted_not_silent(self, monkeypatch):
        import lpd.simulation as sim

        spec = SimulationSpec(model_id=1, p=10, n1=20, n2=20, s0=3, reps=3, seed=6)
        real = sim._run_replication

        def sometimes_fail(spec_, methods, seed_seq, rep, *rest):
            if rep == 1:
                from lpd.errors import SolverFailure

                raise SolverFailure("injected")
            return real(spec_, methods, seed_seq, rep, *rest)

        monkeypatch.setattr(sim, "_run_replication", sometimes_fail)
        report = sim.run_benchmark(spec, methods=("naive_bayes",))
        assert report.reps_completed == 2
        assert report.reps_failed == 1
        assert any("injected" in f for f in report.failures)

    def test_all_reps_failing_is_solver_failure(self, monkeypatch, tmp_path):
        import lpd.simulation as sim
        from lpd.cli import main
        from lpd.errors import SolverFailure

        def always_fail(spec_, methods, seed_seq, rep, *rest):
            raise SolverFailure(f"injected {rep}")

        monkeypatch.setattr(sim, "_run_replication", always_fail)
        spec = SimulationSpec(model_id=1, p=10, n1=20, n2=20, s0=3, reps=3, seed=6)
        with pytest.raises(SolverFailure, match="all 3 replications failed"):
            sim.run_benchmark(spec, methods=("naive_bayes",), max_workers=2)
        argv = ["simulate", "--model-id", "1", "--p", "10", "--reps", "3",
                "--methods", "naive_bayes", "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 3
        assert not (tmp_path / "r.csv").exists()



def oracle_table(report):
    """The report table recomputed from its records with numpy's NaN-aware statistics."""

    def stat(values):
        values = np.asarray(values, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN or one value
            return float(np.nanmean(values)), float(np.nanstd(values, ddof=1))

    records = report.records
    table = {}
    for method in ("lpd", "naive_bayes", "glda", "ofair", "oracle"):
        if method in report.methods:
            table["error", method] = stat([r.errors[method] for r in records])
    if "lpd" in report.methods:
        for name in ("pos", "tpos", "tpr", "fpr"):
            table["support", name] = stat([getattr(r.support, name) for r in records])
        table["lambda", "hat"] = stat([r.lambda_hat for r in records])
        table["lambda", "opt"] = stat([r.lambda_opt for r in records])
        table["rate", "conditional"] = stat([r.conditional_rate for r in records])
    table["rate", "oracle"] = stat([r.oracle_rate for r in records])
    table["meta", "reps_completed"] = (float(len(records)), math.nan)
    table["meta", "reps_failed"] = (float(report.spec.reps - len(records)), math.nan)
    return table


class TestReportTable:
    """Every report row against a recomputation from the records, in the fixed order."""

    SPEC = SimulationSpec(model_id=3, p=15, n1=25, n2=25, s0=3, reps=3, seed=21)
    LPD_ROWS = [("support", "pos"), ("support", "tpos"), ("support", "tpr"),
                ("support", "fpr"), ("lambda", "hat"), ("lambda", "opt"),
                ("rate", "conditional")]
    TAIL_ROWS = [("rate", "oracle"), ("meta", "reps_completed"), ("meta", "reps_failed")]

    @staticmethod
    def check(report, expected_keys):
        rows = report.to_rows()
        assert [row[:2] for row in rows] == expected_keys
        oracle = oracle_table(report)
        assert list(oracle) == expected_keys
        for section, name, mean, sd in rows:
            assert_allclose([mean, sd], oracle[section, name], rtol=1e-12, equal_nan=True)

    def test_with_lpd(self):
        report = run_benchmark(self.SPEC, methods=("oracle", "lpd", "naive_bayes"),
                               grid_size=4, cv_folds=2)
        assert report.reps_completed == 3
        keys = [("error", "lpd"), ("error", "naive_bayes"), ("error", "oracle")]
        self.check(report, keys + self.LPD_ROWS + self.TAIL_ROWS)
        assert report.error_mean == {m: report.table["error", m][0]
                                     for m in ("oracle", "lpd", "naive_bayes")}
        assert list(report.error_mean) == ["oracle", "lpd", "naive_bayes"]

    def test_without_lpd(self):
        report = run_benchmark(self.SPEC, methods=("oracle", "glda", "naive_bayes"))
        keys = [("error", "naive_bayes"), ("error", "glda"), ("error", "oracle")]
        self.check(report, keys + self.TAIL_ROWS)

    def test_failed_replication_in_meta_rows(self, monkeypatch):
        import lpd.simulation as sim
        from lpd.errors import SolverFailure

        real = sim._run_replication

        def middle_fails(spec_, methods, seed_seq, rep, *rest):
            if rep == 1:
                raise SolverFailure("injected")
            return real(spec_, methods, seed_seq, rep, *rest)

        monkeypatch.setattr(sim, "_run_replication", middle_fails)
        report = sim.run_benchmark(self.SPEC, methods=("lpd", "oracle"), grid_size=4, cv_folds=2)
        assert [r.rep for r in report.records] == [0, 2]
        self.check(report, [("error", "lpd"), ("error", "oracle")] + self.LPD_ROWS
                   + self.TAIL_ROWS)
        rows = {row[:2]: row[2:] for row in report.to_rows()}
        assert rows["meta", "reps_completed"][0] == 2.0
        assert rows["meta", "reps_failed"][0] == 1.0
        assert math.isnan(rows["meta", "reps_failed"][1])
        assert (report.reps_completed, report.reps_failed) == (2, 1)


class TestRefitFailures:
    """A failed full-train refit at one grid lambda skips that lambda, as in CV."""

    SPEC = SimulationSpec(model_id=3, p=20, n1=30, n2=30, s0=4, reps=1, seed=77)

    @staticmethod
    def patch(monkeypatch, pick_failing):
        import lpd.simulation as sim
        from lpd.errors import SolverFailure

        chosen = []
        real_cv, real_path = sim.cross_validate, sim.fit_lpd_path

        def cv(*args, **kwargs):
            result = real_cv(*args, **kwargs)
            chosen.append(result.chosen_lambda)
            return result

        def path(moments, lambdas, *rest):
            return [SolverFailure(f"injected at lambda={lam!r}")
                    if lam == pick_failing(chosen[-1]) else fit
                    for lam, fit in zip(map(float, lambdas), real_path(moments, lambdas, *rest))]

        monkeypatch.setattr(sim, "cross_validate", cv)
        monkeypatch.setattr(sim, "fit_lpd_path", path)
        return chosen

    def test_failed_lambda_skipped_for_lambda_opt(self, monkeypatch):
        baseline = run_benchmark(self.SPEC, methods=("lpd",), grid_size=5, cv_folds=3)
        record = baseline.records[0]
        failing = record.lambda_opt
        assert failing != record.lambda_hat  # the seed keeps the two apart
        self.patch(monkeypatch, lambda chosen: failing)
        report = run_benchmark(self.SPEC, methods=("lpd",), grid_size=5, cv_folds=3)
        assert report.reps_completed == 1 and report.reps_failed == 0
        patched = report.records[0]
        assert list(patched.refit_failures) == [failing]
        assert "injected" in patched.refit_failures[failing]
        assert patched.lambda_opt != failing
        assert patched.lambda_hat == record.lambda_hat
        assert patched.errors == record.errors

    def test_failed_chosen_lambda_fails_the_replication(self, monkeypatch):
        from lpd.errors import SolverFailure

        self.patch(monkeypatch, lambda chosen: chosen)
        with pytest.raises(SolverFailure, match="injected"):
            run_benchmark(self.SPEC, methods=("lpd",), grid_size=5, cv_folds=3)


class TestSpecRho:
    @pytest.mark.parametrize("p, rho", [(10, -1 / 9), (10, -0.2), (2, -1.0), (5, 1.0)])
    def test_equicorrelation_outside_positive_definite_range_rejected(self, p, rho):
        with pytest.raises(ValueError, match="rho must lie in"):
            SimulationSpec(model_id=1, p=p, s0=1, rho=rho)

    @pytest.mark.parametrize("model_id, p, rho", [(1, 10, -0.11), (1, 1, -0.9), (3, 10, -0.9)])
    def test_positive_definite_rho_accepted(self, model_id, p, rho):
        spec = SimulationSpec(model_id=model_id, p=p, s0=1, rho=rho)
        assert np.linalg.eigvalsh(build_model(spec).sigma).min() > 0

    def test_model_2_takes_no_rho(self):
        with pytest.raises(ValueError, match="model 2 does not use rho"):
            SimulationSpec(model_id=2, p=10, rho=0.3)


class TestSpecSeed:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SimulationSpec(model_id=3, p=10, seed=-1)

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, 2**130 + 1])
    def test_replication_streams_are_the_spawned_children(self, monkeypatch, seed):
        """Each replication builds its own stream, equal to SeedSequence(seed).spawn(reps)[rep]."""
        import lpd.simulation as sim
        from lpd.errors import SolverFailure

        states = {}

        def record(spec_, methods, seed_seq, rep, *rest):
            states[rep] = seed_seq.generate_state(4).tolist()
            raise SolverFailure("recorded")

        monkeypatch.setattr(sim, "_run_replication", record)
        spec = SimulationSpec(model_id=1, p=10, reps=3, seed=seed)
        with pytest.raises(SolverFailure, match="all 3 replications failed"):
            run_benchmark(spec, methods=("naive_bayes",))
        children = np.random.SeedSequence(seed).spawn(3)
        assert states == {rep: kid.generate_state(4).tolist() for rep, kid in enumerate(children)}


class TestRunOptions:
    @pytest.mark.parametrize("n1, n2, folds, message", [
        (5, 5, 6, "lpd's CV cannot form 6 folds from n1=5 samples"),
        (20, 4, 5, "lpd's CV cannot form 5 folds from n2=4 samples"),
        (3, 3, 2, "lpd's CV with 2 folds keeps 1 of n1=3 samples in a training set"),
        (10, 2, 2, "lpd's CV with 2 folds keeps 1 of n2=2 samples in a training set"),
    ])
    def test_folds_no_replication_can_run_rejected_before_any(self, monkeypatch, n1, n2, folds,
                                                               message):
        import lpd.simulation as sim

        def no_replication(*args):
            raise AssertionError("a replication started")

        monkeypatch.setattr(sim, "_run_replication", no_replication)
        spec = SimulationSpec(model_id=1, p=10, n1=n1, n2=n2, s0=3, reps=2)
        with pytest.raises(ValueError, match=message):
            run_benchmark(spec, methods=("lpd", "oracle"), cv_folds=folds, max_workers=2)

    @pytest.mark.parametrize("n1, n2, folds", [(5, 5, 6), (3, 3, 2)])
    def test_folds_unchecked_without_lpd(self, n1, n2, folds):
        spec = SimulationSpec(model_id=1, p=10, n1=n1, n2=n2, s0=3, reps=2)
        report = run_benchmark(spec, methods=("naive_bayes", "oracle"), cv_folds=folds)
        assert report.reps_completed == 2

    @pytest.mark.parametrize("n1, n2, folds", [(4, 4, 2), (3, 3, 3), (5, 7, 5)])
    def test_smallest_folds_allowed_run(self, n1, n2, folds):
        """At the bound, every CV training set keeps 2 rows of each class."""
        spec = SimulationSpec(model_id=1, p=10, n1=n1, n2=n2, s0=3, reps=2, seed=1)
        assert check_run_options(spec, ("LPD",), folds, 4) == ("lpd",)
        report = run_benchmark(spec, methods=("lpd",), cv_folds=folds, grid_size=4)
        assert report.reps_failed == 0

    def test_no_method_rejected(self):
        spec = SimulationSpec(model_id=1, p=10, reps=1)
        with pytest.raises(ValueError, match="no methods given"):
            check_run_options(spec, (), 5, 20)
        with pytest.raises(ValueError, match="no methods given"):
            run_benchmark(spec, methods=())


class TestSharedMoments:
    def test_one_replication_computes_the_training_moments_once(self, monkeypatch):
        """LPD's grid and refits and the three estimated baselines all fit from the
        replication's one moments object; no baseline computes its own."""
        import lpd.classifier as classifier
        import lpd.simulation as sim

        made, received = {"simulation": [], "classifier": []}, []
        for name, module in (("simulation", sim), ("classifier", classifier)):
            def counted(data, real=module.compute_moments, calls=made[name]):
                calls.append(real(data))
                return calls[-1]
            monkeypatch.setattr(module, "compute_moments", counted)
        for name in ("fit_lpd_path", "fit_naive_bayes", "fit_glda", "fit_ofair"):
            def seen(moments, *rest, real=getattr(sim, name)):
                received.append(moments)
                return real(moments, *rest)
            monkeypatch.setattr(sim, name, seen)
        spec = SimulationSpec(model_id=3, p=20, n1=30, n2=30, s0=4, reps=1, seed=5)
        stream = np.random.SeedSequence(spec.seed, spawn_key=(0,))
        record = sim._run_replication(spec, sim.METHOD_ORDER, stream, 0, 3, 4)
        assert (len(made["simulation"]), len(made["classifier"])) == (1, 0)
        assert len(received) == 4 and all(m is made["simulation"][0] for m in received)
        assert sorted(record.errors) == sorted(sim.METHOD_ORDER)
