import numpy as np
import pytest

from lpd import cli, simulation
from lpd.cli import main
from lpd.dataio import load_dataset, load_model


def write_toy_1d(path):
    """X = {0, 2} labeled A, Y = {1, 3} labeled B: beta=-0.5 at lambda=0.5."""
    path.write_text("A,0.0\nA,2.0\nB,1.0\nB,3.0\n")


def write_separable(path, rng, n_per_class=12, p=3, gap=10.0):
    lines = []
    for cls, shift in (("A", gap), ("B", 0.0)):
        block = rng.standard_normal((n_per_class, p)) + shift
        for row in block:
            lines.append(",".join([cls] + [repr(float(v)) for v in row]))
    path.write_text("\n".join(lines) + "\n")


class TestTrainPredict:
    def test_fixed_lambda_toy_model(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        model_path = tmp_path / "model.json"
        write_toy_1d(data)
        code = main(
            ["train", "--data", str(data), "--lambda", "0.5", "--out", str(model_path)]
        )
        assert code == 0
        model = load_model(model_path)
        assert model.beta[0] == pytest.approx(-0.5, abs=1e-7)
        assert model.mu_hat[0] == pytest.approx(1.5)

        # continue the example: z = 2.5 scores -0.5 -> class 2
        z = tmp_path / "z.csv"
        z.write_text("2.5\n")
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(z), "--out", str(preds)]) == 0
        index, cls, score = preds.read_text().splitlines()[1].split(",")
        assert (index, cls) == ("0", "2")
        assert float(score) == pytest.approx(-0.5, abs=1e-7)

    def test_lambda_auto_records_provenance(self, tmp_path):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0))
        model_path = tmp_path / "model.json"
        code = main(
            [
                "train", "--data", str(data), "--lambda", "auto",
                "--folds", "2", "--grid-size", "4", "--seed", "3",
                "--out", str(model_path),
            ]
        )
        assert code == 0
        model = load_model(model_path)
        assert model.metadata["lambda_source"] == "cv"
        assert model.metadata["folds"] == 2
        assert model.lam > 0

    def test_train_outputs_reproducible(self, tmp_path):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(1))
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        argv = ["train", "--data", str(data), "--lambda", "auto", "--folds", "2",
                "--seed", "11", "--grid-size", "5"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verbose_prints_solver_diagnostics(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        write_toy_1d(data)
        assert main(["train", "--data", str(data), "--lambda", "0.5", "--verbose",
                     "--out", str(tmp_path / "m.json")]) == 0
        out = capsys.readouterr().out
        assert "iterations" in out and "duality gap" in out

    def test_predict_with_labeled_file(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_1d(data)
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(data), "--lambda", "0.5", "--out", str(model_path)])
        preds = tmp_path / "preds.csv"
        code = main(
            ["predict", "--model", str(model_path), "--data", str(data),
             "--has-labels", "--out", str(preds)]
        )
        assert code == 0
        assert len(preds.read_text().splitlines()) == 5


class TestPredictFeaturesOnly:
    """Features-only files get the checks and exit codes of training files."""

    @pytest.fixture
    def model_path(self, tmp_path):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0))
        path = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--lambda", "0.5", "--out", str(path)]) == 0
        return path

    @staticmethod
    def predict(tmp_path, model_path, text, *flags):
        batch = tmp_path / "batch.csv"
        batch.write_text(text)
        return main(["predict", "--model", str(model_path), "--data", str(batch),
                     "--out", str(tmp_path / "preds.csv"), *flags])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2,3\n4,nan,6\n", "row 2, column 1: non-finite value 'nan'"),
            ("1,2,3\n\n4,5,-inf\n", "row 3, column 2: non-finite value '-inf'"),
            ("1,2,3\n4,5,oops\n", "row 2, column 2: not a number: 'oops'"),
            ("1,2,3\n4,5\n", "row 2 has 2 fields, expected 3"),
        ],
    )
    def test_bad_cell_or_row_is_data_error_naming_it(self, tmp_path, model_path, capsys, text, message):
        capsys.readouterr()
        assert self.predict(tmp_path, model_path, text) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "preds.csv").exists()

    def test_header_is_line_one_and_fixes_width(self, tmp_path, model_path, capsys):
        rows = "1,2,3\n4,5,6\n"
        assert self.predict(tmp_path, model_path, rows) == 0
        expected = (tmp_path / "preds.csv").read_bytes()
        assert self.predict(tmp_path, model_path, "f1,f2,f3\n" + rows, "--has-header") == 0
        assert (tmp_path / "preds.csv").read_bytes() == expected
        capsys.readouterr()
        assert self.predict(tmp_path, model_path, "f1,f2\n" + rows, "--has-header") == 2
        assert "row 2 has 3 fields, expected 2" in capsys.readouterr().err


    def test_each_row_scored_once(self, tmp_path, model_path, monkeypatch):
        import lpd.classifier as classifier
        from lpd.dataio import save_predictions

        batch = tmp_path / "batch.csv"
        rng = np.random.default_rng(1)
        batch.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                                 for row in rng.standard_normal((50, 3)) * 6))
        model = load_model(model_path)
        features = np.loadtxt(batch, delimiter=",")
        expected = tmp_path / "expected.csv"
        save_predictions(expected, classifier.predict(model, features),
                         classifier.decision_scores(model, features))

        calls = []
        real = classifier.decision_scores

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(classifier, "decision_scores", counted)
        monkeypatch.setattr(cli, "decision_scores", counted)
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(batch),
                     "--out", str(preds)]) == 0
        assert len(calls) == 1
        assert preds.read_bytes() == expected.read_bytes()


class TestCv:
    def test_stdout_table(self, tmp_path, capsys):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(2))
        code = main(["cv", "--data", str(data), "--folds", "2", "--grid-size", "3", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "lambda,correct,eligible,chosen"
        assert len(out.splitlines()) == 4


class TestSimulate:
    def test_thread_cap_env_does_not_change_output(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = [
            "simulate", "--model-id", "1", "--p", "15", "--n1", "25", "--n2", "25",
            "--s0", "3", "--reps", "3", "--seed", "4", "--methods", "lpd",
            "--folds", "2", "--grid-size", "4",
        ]
        monkeypatch.delenv("LPD_THREADS", raising=False)
        assert main(argv + ["--out", str(out1)]) == 0
        monkeypatch.setenv("LPD_THREADS", "4")
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_byte_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = [
            "simulate", "--model-id", "3", "--p", "25", "--n1", "30", "--n2", "30",
            "--s0", "4", "--reps", "2", "--seed", "7", "--methods", "lpd,oracle",
            "--folds", "2", "--grid-size", "4",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[0] == "section,name,mean,sd"


class TestScreen:
    def test_variance_and_tscreen_compose(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 20
        # col 0: tiny variance, col 1: huge variance, cols 2-4: unit noise, col 2 shifted
        cols = [
            rng.standard_normal(n) * 1e-4,
            rng.standard_normal(n) * 1e4,
            np.concatenate([rng.standard_normal(10) + 5, rng.standard_normal(10)]),
            rng.standard_normal(n),
            rng.standard_normal(n),
        ]
        features = np.column_stack(cols)
        lines = [
            ",".join((["A"] if i < 10 else ["B"]) + [repr(float(v)) for v in features[i]])
            for i in range(n)
        ]
        data = tmp_path / "wide.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "screened.csv"
        idx = tmp_path / "kept.csv"
        code = main(
            ["screen", "--data", str(data), "--var-min", "1e-2", "--var-max", "1e2",
             "--top-k", "1", "--out", str(out), "--indices-out", str(idx)]
        )
        assert code == 0
        screened = load_dataset(out)
        assert screened.p == 1
        # variance filter keeps cols 2,3,4; the t screen then picks the shifted one
        assert idx.read_text().splitlines()[1] == "0,2"

    def test_screen_train_predict_pipeline_on_original_width(self, tmp_path):
        """Models fit on screened data carry the index map and score
        original-width inputs directly."""
        rng = np.random.default_rng(9)
        n = 24
        informative = np.concatenate([rng.standard_normal(12) + 6, rng.standard_normal(12)])
        features = np.column_stack(
            [rng.standard_normal(n), informative, rng.standard_normal(n), rng.standard_normal(n)]
        )
        lines = [
            ",".join((["A"] if i < 12 else ["B"]) + [repr(float(v)) for v in features[i]])
            for i in range(n)
        ]
        data = tmp_path / "full.csv"
        data.write_text("\n".join(lines) + "\n")
        screened = tmp_path / "screened.csv"
        idx = tmp_path / "kept.csv"
        assert main(["screen", "--data", str(data), "--top-k", "2",
                     "--out", str(screened), "--indices-out", str(idx)]) == 0
        model_path = tmp_path / "model.json"
        assert main(["train", "--data", str(screened), "--lambda", "0.3",
                     "--indices", str(idx), "--out", str(model_path)]) == 0
        model = load_model(model_path)
        assert model.kept_indices is not None and model.p == 2
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--has-labels", "--out", str(preds)]) == 0
        rows = preds.read_text().splitlines()[1:]
        predicted = [int(r.split(",")[1]) for r in rows]
        assert predicted == [1] * 12 + [2] * 12

    def test_screen_requires_some_action(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_1d(data)
        assert main(["screen", "--data", str(data), "--out", str(tmp_path / "o.csv")]) == 1


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["train", "--nope"]) == 1

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            ["train", "--data", str(tmp_path / "absent.csv"), "--lambda", "0.5",
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 2

    def test_corrupt_model_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        z = tmp_path / "z.csv"
        z.write_text("1.0\n")
        assert main(["predict", "--model", str(bad), "--data", str(z), "--out", str(tmp_path / "p.csv")]) == 2

    def test_infeasible_solver_is_exit_3(self, tmp_path):
        # p > n with a zero ridge: singular pooled covariance, tiny lambda
        rng = np.random.default_rng(4)
        lines = []
        for cls in ("A", "A", "B", "B"):
            lines.append(",".join([cls] + [repr(float(v)) for v in rng.standard_normal(6)]))
        data = tmp_path / "thin.csv"
        data.write_text("\n".join(lines) + "\n")
        code = main(
            ["train", "--data", str(data), "--lambda", "1e-6", "--rho", "0",
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 3

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_bad_thread_cap_is_usage_error(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("LPD_THREADS", value)
        out = tmp_path / "r.csv"
        argv = ["simulate", "--model-id", "1", "--p", "10", "--reps", "1",
                "--methods", "oracle", "--out", str(out)]
        assert main(argv) == 1
        assert "LPD_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_s0_above_p_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        argv = ["simulate", "--model-id", "1", "--p", "5", "--s0", "10", "--reps", "1",
                "--methods", "oracle", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "lpd simulate: error: need 1 <= s0 <= p\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--folds", "1", "folds must be >= 2"),
        ("--grid-size", "1", "size must be >= 2"),
    ])
    def test_cv_flag_values_are_usage_errors(self, tmp_path, capsys, command, flag, value,
                                             message):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0))
        out = tmp_path / "out"
        argv = [command, "--data", str(data), flag, value, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"lpd {command}: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--folds", "1", "folds must be >= 2"),
        ("--grid-size", "1", "size must be >= 2"),
        ("--methods", "lpd,svm",
         "unknown methods: ['svm']; choose from "
         "('lpd', 'naive_bayes', 'glda', 'ofair', 'oracle')"),
    ])
    def test_simulate_replication_flags_are_usage_errors(self, tmp_path, monkeypatch, capsys,
                                                         flag, value, message):
        """Flags only the replications use are checked before any replication starts."""
        def no_replication(*args):
            raise AssertionError("a replication started")

        monkeypatch.setattr(simulation, "_run_replication", no_replication)
        out = tmp_path / "r.csv"
        argv = ["simulate", "--model-id", "1", "--p", "10", "--reps", "1", "--methods", "lpd",
                flag, value, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"lpd simulate: error: {message}\n"
        assert not out.exists()

    def test_value_error_inside_a_replication_is_not_a_usage_error(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("broken replication")

        monkeypatch.setattr(simulation, "_run_replication", broken)
        argv = ["simulate", "--model-id", "1", "--p", "10", "--reps", "1", "--methods", "lpd",
                "--out", str(tmp_path / "r.csv")]
        with pytest.raises(ValueError, match="broken replication"):
            main(argv)

    def test_thread_cap_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("LPD_THREADS", "64")
        assert cli._max_workers() == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
