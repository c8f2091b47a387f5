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

    def test_lambda_auto_cross_validates_at_the_given_rho(self, tmp_path):
        """train --rho X chooses lambda, and records cv_correct, from CV at ridge X."""
        from lpd.dataio import DataFileSchema
        from lpd.model_selection import CvPlan, cross_validate, default_lambda_grid
        from lpd.stats import compute_moments

        rng = np.random.default_rng(6)  # data on which CV at rho 2 and at the auto rho differ
        rows = np.vstack([rng.standard_normal((10, 8)) + 0.6, rng.standard_normal((10, 8))])
        data = tmp_path / "d.csv"
        data.write_text("".join(",".join([cls] + [repr(float(v)) for v in row]) + "\n"
                                for cls, row in zip("A" * 10 + "B" * 10, rows)))
        dataset = load_dataset(data, DataFileSchema())
        plan = CvPlan(folds=2, lambda_grid=default_lambda_grid(compute_moments(dataset), 5))
        at_auto, at_two = cross_validate(dataset, plan), cross_validate(dataset, plan, 2.0)
        assert at_auto.chosen_lambda != at_two.chosen_lambda

        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--folds", "2", "--grid-size", "5",
                     "--rho", "2", "--out", str(model_path)]) == 0
        model = load_model(model_path)
        assert model.ridge_rho == 2.0
        assert model.lam == at_two.chosen_lambda
        assert model.metadata["cv_correct"] == at_two.per_lambda_correct()[model.lam]

    def test_lambda_auto_model_is_a_path_vertex(self, tmp_path):
        """The final fit is the certified path vertex, as CV's fits are: beta has exact
        zeros, its support is beta != 0, and ||beta||_1 is the interior-point
        method's at the same lambda within the certificate."""
        from lpd.classifier import auto_ridge
        from lpd.dataio import DataFileSchema
        from lpd.l1solver import GAP_TOL, LpProblem, solve, support_mask
        from lpd.stats import compute_moments

        rng = np.random.default_rng(4)
        rows = np.vstack([rng.standard_normal((15, 40)), rng.standard_normal((15, 40))])
        rows[:15, :3] += 1.5
        data = tmp_path / "wide.csv"
        data.write_text("".join(",".join([cls] + [repr(float(v)) for v in row]) + "\n"
                                for cls, row in zip("A" * 15 + "B" * 15, rows)))
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--folds", "3", "--grid-size", "8",
                     "--out", str(model_path)]) == 0
        model = load_model(model_path)
        assert np.count_nonzero(model.beta == 0) > 0
        assert np.array_equal(support_mask(model.beta), model.beta != 0)

        moments = compute_moments(load_dataset(data, DataFileSchema()))
        assert model.ridge_rho == auto_ridge(moments.p, moments.n1 + moments.n2)
        ipm = solve(LpProblem(A=moments.sigma_hat, b=moments.delta_hat, lam=model.lam,
                              ridge_rho=model.ridge_rho, factor=moments.factor))
        l1 = np.abs(model.beta).sum()
        assert abs(l1 - ipm.objective) <= GAP_TOL * (1 + l1)
        assert model.metadata["duality_gap"] <= GAP_TOL

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


class TestModelFileThreshold:
    def test_threshold_is_honoured_with_ties_to_class_1(self, tmp_path):
        """Scores 0.25, 0.2, 1 and -1 against a threshold of 0.25 read from the file."""
        from lpd.classifier import LpdModel, predict
        from lpd.dataio import save_model

        model_path = tmp_path / "m.json"
        save_model(model_path, LpdModel(beta=[1.0, 0.0], mu_hat=[0.0, 0.0], threshold=0.25))
        assert '"threshold": 0.25,' in model_path.read_text()
        text = "0.25,5\n0.2,0\n1,0\n-1,0\n"
        rows = np.array([line.split(",") for line in text.split()], dtype=float)
        assert predict(load_model(model_path), rows).tolist() == [1, 2, 1, 2]

        batch, preds = tmp_path / "z.csv", tmp_path / "preds.csv"
        batch.write_text(text)
        assert main(["predict", "--model", str(model_path), "--data", str(batch),
                     "--out", str(preds)]) == 0
        classes = [line.split(",")[1] for line in preds.read_text().splitlines()[1:]]
        assert classes == ["1", "2", "1", "2"]


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

    def test_unwritable_index_map_leaves_no_screened_file(self, tmp_path, monkeypatch, capsys):
        """The error names the --indices-out path given, and --out is not left behind."""
        monkeypatch.chdir(tmp_path)
        write_separable(tmp_path / "sep.csv", np.random.default_rng(0), p=5)
        assert main(["screen", "--data", "sep.csv", "--top-k", "2", "--out", "s.csv",
                     "--indices-out", "nodir/k.csv"]) == 2
        assert capsys.readouterr().err == (
            "lpd: data error: [Errno 2] No such file or directory: 'nodir/k.csv'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sep.csv"]

    def test_index_map_that_cannot_be_renamed_into_place_leaves_no_new_file(self, tmp_path):
        """--indices-out names a directory: both files are staged, the rename fails,
        and the screened file renamed just before it is removed again."""
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0), p=5)
        (tmp_path / "k").mkdir()
        assert main(["screen", "--data", str(data), "--top-k", "2", "--out",
                     str(tmp_path / "s.csv"), "--indices-out", str(tmp_path / "k")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k", "sep.csv"]
        assert not any((tmp_path / "k").iterdir())

    def test_screen_requires_some_action(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_1d(data)
        assert main(["screen", "--data", str(data), "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--var-min", "1"], "--var-min and --var-max go together"),
        (["--var-max", "1", "--top-k", "1"], "--var-min and --var-max go together"),
        ([], "nothing to do; pass variance bounds and/or --top-k"),
    ])
    def test_screen_action_errors_are_one_line(self, tmp_path, capsys, flags, message):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0))
        out = tmp_path / "o.csv"
        assert main(["screen", "--data", str(data), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"lpd screen: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--var-min", "2", "--var-max", "1"], "var_min (2.0) must be < var_max (1.0)"),
        (["--var-min", "0", "--var-max", "1", "--scale", "-1"], "scale must be positive"),
        (["--top-k", "0"], "top_k must be >= 1"),
    ])
    def test_screen_flag_values_are_usage_errors(self, tmp_path, capsys, flags, message):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0))
        out = tmp_path / "o.csv"
        assert main(["screen", "--data", str(data), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"lpd screen: error: {message}\n"
        assert not out.exists()

    def test_negative_index_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0), p=2)
        idx = tmp_path / "kept.csv"
        idx.write_text("column,original_column\n0,-1\n1,3\n")
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--lambda", "0.5", "--indices", str(idx),
                     "--out", str(out)]) == 2
        assert "kept.csv: row 2: original column" in capsys.readouterr().err
        assert not out.exists()

    def test_index_map_of_other_length_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0), p=2)
        idx = tmp_path / "kept.csv"
        idx.write_text("column,original_column\n0,1\n1,3\n2,4\n")
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--lambda", "0.5", "--indices", str(idx),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"lpd: data error: {idx}: 3 indices but the model has 2 features\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("ids, position", [
        ("[0.7, 1.7]", 0), ("[0, 1.0]", 1), ('["0", 1]', 0), ("[true, 3]", 0),
    ])
    def test_non_integer_model_indices_are_data_error(self, tmp_path, capsys, ids, position):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0), p=2)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--lambda", "0.5", "--out", str(model)]) == 0
        model.write_text(model.read_text().replace('"kept_indices": null',
                                                   f'"kept_indices": {ids}'))
        preds = tmp_path / "preds.csv"
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--data", str(data), "--has-labels",
                     "--out", str(preds)]) == 2
        assert f"kept_indices[{position}] is not an integer" in capsys.readouterr().err
        assert not preds.exists()

    def test_unordered_model_indices_are_data_error(self, tmp_path, capsys):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0), p=2)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--lambda", "0.5", "--out", str(model)]) == 0
        text = model.read_text().replace('"kept_indices": null', '"kept_indices": [1, 0]')
        model.write_text(text)
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model), "--data", str(data), "--has-labels",
                     "--out", str(preds)]) == 2
        assert "kept_indices[1]" in capsys.readouterr().err
        assert not preds.exists()


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["train", "--nope"]) == 1

    def test_argparse_error_keeps_usage_line(self, capsys):
        assert main(["train", "--data", "d.csv", "--out", "m.json", "--folds", "z"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: lpd train ")
        assert lines[-1] == "lpd train: error: argument --folds: invalid int value: 'z'"

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_label_column_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0), p=3)
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--label-column", "9", "--lambda", "0.5",
                     "--out", str(out)]) == 2
        assert "has no label column 9" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("declared", ['"x"', "null", "[3]", "true", "3.0", "4", None])
    def test_malformed_model_p_is_data_error(self, tmp_path, capsys, declared):
        from lpd.classifier import LpdModel
        from lpd.dataio import save_model

        model_path = tmp_path / "m.json"
        save_model(model_path, LpdModel(beta=[1.0, 0.0, 2.0], mu_hat=[0.0, 0.0, 0.0]))
        text = model_path.read_text()
        assert '  "p": 3,\n' in text
        new = "" if declared is None else f'  "p": {declared},\n'
        model_path.write_text(text.replace('  "p": 3,\n', new))
        z = tmp_path / "z.csv"
        z.write_text("1,2,3\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(z),
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert "but beta has length 3" in capsys.readouterr().err

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

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_bad_thread_cap_message_is_one_line(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("LPD_THREADS", value)
        argv = ["simulate", "--model-id", "1", "--p", "10", "--reps", "1",
                "--methods", "oracle", "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"lpd simulate: error: LPD_THREADS must be a positive integer, got {value!r}\n"
        )

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

    @pytest.mark.parametrize("command", ["train", "cv", "predict", "screen"])
    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, tmp_path, capsys, command, delimiter):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0))
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--lambda", "0.5", "--out", str(model)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        extra = {"train": [], "cv": [], "predict": ["--model", str(model)],
                 "screen": ["--top-k", "1"]}[command]
        argv = [command, "--data", str(data), *extra, "--delimiter", delimiter, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"lpd {command}: error: delimiter must be one character, got {delimiter!r}\n"
        )
        assert not out.exists()

    def test_thread_cap_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("LPD_THREADS", "64")
        assert cli._max_workers() == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestUnreadableInputs:
    def test_non_utf8_data_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"caf\xe9,1,2\nB,3,4\ncaf\xe9,5,6\nB,7,8\n")
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--lambda", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"lpd: data error: {data}: not UTF-8 text (byte 0xe9 cannot be decoded)\n"
        )
        assert not out.exists()

    def test_model_indices_of_other_length_are_data_error(self, tmp_path, capsys):
        data = tmp_path / "sep.csv"
        write_separable(data, np.random.default_rng(0), p=5)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--lambda", "0.5", "--out", str(model)]) == 0
        model.write_text(model.read_text().replace('"kept_indices": null',
                                                   '"kept_indices": [0, 1, 3]'))
        preds = tmp_path / "preds.csv"
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--data", str(data), "--has-labels",
                     "--out", str(preds)]) == 2
        assert capsys.readouterr().err == (
            f"lpd: data error: {model}: malformed model payload: "
            "kept_indices has 3 ids for 5 features\n"
        )
        assert not preds.exists()


class TestScreenedFilesReadBack:
    @staticmethod
    def write_headered(path, rng, names=("A", "B"), n=40, p=8):
        """Rows alternate names[0], names[1], starting with names[0]; column 2 separates them."""
        labels = np.arange(n) % 2
        features = rng.standard_normal((n, p))
        features[:, 2] += 8.0 * (labels == 0)
        lines = ["label," + ",".join(f"g{j}" for j in range(p))]
        lines += [",".join([f'"{names[k]}"'] + [repr(float(v)) for v in row])
                  for k, row in zip(labels, features)]
        path.write_text("\n".join(lines) + "\n")
        return labels + 1

    def test_headered_screen_train_predict_keeps_rows_and_class_ids(self, tmp_path):
        data = tmp_path / "full.csv"
        classes = self.write_headered(data, np.random.default_rng(11))
        screened, idx = tmp_path / "screened.csv", tmp_path / "kept.csv"
        assert main(["screen", "--data", str(data), "--has-header", "--top-k", "3",
                     "--out", str(screened), "--indices-out", str(idx)]) == 0
        back = load_dataset(screened, cli.dataio.DataFileSchema(has_header=True))
        assert (back.n, back.p, back.label_names) == (40, 3, ("A", "B"))
        assert back.labels.tolist() == classes.tolist()
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(screened), "--has-header", "--indices", str(idx),
                     "--lambda", "auto", "--folds", "3", "--grid-size", "5",
                     "--out", str(model)]) == 0
        fitted = load_model(model)
        assert (fitted.metadata["n1"], fitted.metadata["n2"]) == (20, 20)
        assert 2 in fitted.kept_indices.tolist()
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model), "--data", str(data), "--has-labels",
                     "--has-header", "--out", str(preds)]) == 0
        rows = [r.split(",") for r in preds.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(40))
        assert [int(r[1]) for r in rows] == classes.tolist()

    def test_label_holding_the_delimiter_survives_screen(self, tmp_path):
        data = tmp_path / "graded.csv"
        self.write_headered(data, np.random.default_rng(12), names=("grade,1", "grade,2"), p=6)
        screened = tmp_path / "screened.csv"
        assert main(["screen", "--data", str(data), "--has-header", "--top-k", "3",
                     "--out", str(screened)]) == 0
        back = load_dataset(screened, cli.dataio.DataFileSchema(has_header=True))
        assert (back.n, back.p, back.label_names) == (40, 3, ("grade,1", "grade,2"))
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(screened), "--has-header", "--lambda", "auto",
                     "--folds", "3", "--grid-size", "5", "--out", str(model)]) == 0

    def test_label_column_past_the_kept_width_is_a_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        labels = np.arange(20) % 2 + 1
        data = tmp_path / "last.csv"
        data.write_text("".join(",".join([repr(float(v)) for v in rng.standard_normal(5)]
                                         + [str(k)]) + "\n" for k in labels))
        screened, idx = tmp_path / "s.csv", tmp_path / "kept.csv"
        assert main(["screen", "--data", str(data), "--label-column", "5", "--top-k", "2",
                     "--out", str(screened), "--indices-out", str(idx)]) == 1
        assert capsys.readouterr().err == (
            "lpd screen: error: label column 5 does not fit a file of 2 kept features; "
            "it must lie in 0..2\n")
        assert not screened.exists() and not idx.exists()
        assert main(["screen", "--data", str(data), "--label-column", "5", "--top-k", "5",
                     "--out", str(screened)]) == 0
        back = load_dataset(screened, cli.dataio.DataFileSchema(label_column=5))
        assert back.labels.tolist() == labels.tolist()


class TestSimulateRho:
    ARGV = ["simulate", "--p", "10", "--s0", "2", "--reps", "1", "--methods", "naive_bayes"]

    @pytest.mark.parametrize("model_id, rho, message", [
        ("1", "-0.2", "rho must lie in (-0.111111, 1) for model 1, p=10"),
        ("2", "0.3", "model 2 does not use rho"),
    ])
    def test_unusable_rho_is_a_usage_error(self, tmp_path, capsys, model_id, rho, message):
        out = tmp_path / "r.csv"
        argv = self.ARGV + ["--model-id", model_id, "--rho", rho, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"lpd simulate: error: {message}\n"
        assert not out.exists()

    def test_negative_rho_inside_the_bound_runs(self, tmp_path):
        out = tmp_path / "r.csv"
        argv = self.ARGV + ["--model-id", "1", "--rho", "-0.1", "--out", str(out)]
        assert main(argv) == 0
