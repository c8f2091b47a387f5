import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpd import dataio
from lpd.classifier import LpdModel, predict
from lpd.dataio import (
    DataFileSchema,
    fmt_float,
    load_dataset,
    load_model,
    save_cv_table,
    save_dataset,
    save_model,
    save_predictions,
    save_report,
)
from lpd.errors import NonFiniteValue, ParseError, RaggedRows, SchemaVersionMismatch
from lpd.stats import LabeledDataset


class TestFloatFormat:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for value in list(rng.standard_normal(200)) + [0.1, 1e-300, 1e300, -0.0]:
            assert float(fmt_float(value)) == float(value)


class TestSchema:
    @pytest.mark.parametrize("delimiter", ['"', "\n", "\r"])
    def test_delimiter_numpy_cannot_split_on_is_rejected(self, delimiter):
        with pytest.raises(ValueError, match="delimiter cannot be a quote or a line end"):
            DataFileSchema(delimiter=delimiter)

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", " ", "|", "'"])
    def test_other_one_character_delimiters_are_kept(self, delimiter):
        assert DataFileSchema(delimiter=delimiter).delimiter == delimiter


class TestLoadDataset:
    def test_label_mapping_first_seen(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("A,0.0\nA,2\nB,1.0\nB,3\n")
        data = load_dataset(path)
        assert data.labels.tolist() == [1, 1, 2, 2]
        assert data.label_names == ("A", "B")
        assert_allclose(data.features.ravel(), [0.0, 2.0, 1.0, 3.0])

    def test_label_column_position(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("1.0,x,2.0\n3.0,y,4.0\n")
        data = load_dataset(path, DataFileSchema(label_column=1))
        assert data.labels.tolist() == [1, 2]
        assert_allclose(data.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("label,f1\nA,1.5\nB,2.5\n")
        data = load_dataset(path, DataFileSchema(has_header=True))
        assert data.n == 2

    def test_ragged_row_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,1.0,2.0\nB,1.0\n")
        with pytest.raises(RaggedRows, match="row 2"):
            load_dataset(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,1.0\nB,oops\n")
        with pytest.raises(ParseError, match="row 2"):
            load_dataset(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,1.0\nB,nan\n")
        with pytest.raises(NonFiniteValue):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        data = LabeledDataset(
            rng.standard_normal((6, 4)),
            np.array([1, 2, 1, 2, 1, 2]),
            ("pos", "neg"),
        )
        path = tmp_path / "rt.csv"
        save_dataset(path, data)
        loaded = load_dataset(path)
        assert loaded.features.tobytes() == data.features.tobytes()
        assert loaded.labels.tolist() == data.labels.tolist()
        assert loaded.label_names == ("pos", "neg")


class TestLoadFeatures:
    def test_matches_load_dataset_and_float_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-8, 8, (40, 6))
        cells = [[repr(float(v)) if j % 2 else "%.17g" % v for j, v in enumerate(row)]
                 for row in values]
        plain = tmp_path / "plain.csv"
        plain.write_text("".join(",".join(row) + "\n" for row in cells))
        labeled = tmp_path / "labeled.csv"
        labeled.write_text(
            "".join(",".join(row[:2] + ["AB"[i % 2]] + row[2:]) + "\n" for i, row in enumerate(cells))
        )
        features = dataio._read_rows(plain, DataFileSchema(), None)[0]
        reference = np.asarray([[float(c) for c in row] for row in cells])
        assert features.dtype == np.float64
        assert features.tobytes() == reference.tobytes() == values.tobytes()
        assert load_dataset(labeled, DataFileSchema(label_column=2)).features.tobytes() == features.tobytes()

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("1.0,2.0\n3.0\n", RaggedRows, "row 2 has 1 fields, expected 2"),
            ("1.0,2.0\n3.0,x\n", ParseError, "row 2, column 1: not a number"),
            ("1.0,2.0\n\n3.0,inf\n", NonFiniteValue, "row 3, column 1: non-finite"),
            ("\n", ParseError, "no data rows"),
        ],
    )
    def test_same_errors_as_load_dataset(self, tmp_path, text, error, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(error, match=message):
            dataio._read_rows(path, DataFileSchema(), None)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("blank_lines", [0, 3])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_line_endings_and_blank_lines(self, tmp_path, newline, blank_lines, final_newline):
        rows = ["h1,h2", "1.5,2.5", *[""] * blank_lines, "-3,4e-2", "5,6"]
        text = newline.join(rows) + (newline if final_newline else "")
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        features = dataio._read_rows(path, DataFileSchema(has_header=True), None)[0]
        assert features.tolist() == [[1.5, 2.5], [-3.0, 0.04], [5.0, 6.0]]
        assert features.flags.owndata and features.flags.c_contiguous

    def test_label_column_ignored(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("h1,h2\n1.5,2.5\n")
        schema = DataFileSchema(label_column=1, has_header=True)
        features = dataio._read_rows(path, schema, None)[0]
        assert features.tolist() == [[1.5, 2.5]]


class TestModelPersistence:
    def model(self):
        return LpdModel(
            beta=np.array([0.1, -2.5, 0.0]),
            mu_hat=np.array([1.0, 2.0, 3.0]),
            threshold=0.25,
            lam=0.13,
            ridge_rho=0.107,
            kept_indices=np.array([0, 4, 9]),
            metadata={"method": "lpd", "seed": 7, "note": "fixture"},
        )

    def test_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(p1, self.model())
        save_model(p2, load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_fields(self, tmp_path):
        path = tmp_path / "m.json"
        original = self.model()
        save_model(path, original)
        loaded = load_model(path)
        assert_allclose(loaded.beta, original.beta)
        assert_allclose(loaded.mu_hat, original.mu_hat)
        assert loaded.threshold == original.threshold
        assert loaded.lam == original.lam
        assert loaded.ridge_rho == original.ridge_rho
        assert loaded.kept_indices.tolist() == [0, 4, 9]
        assert loaded.metadata["note"] == "fixture"

    def test_predictions_identical_after_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        model = LpdModel(beta=rng.standard_normal(5), mu_hat=rng.standard_normal(5))
        path = tmp_path / "m.json"
        save_model(path, model)
        loaded = load_model(path)
        points = rng.standard_normal((20, 5))
        assert predict(loaded, points).tolist() == predict(model, points).tolist()

    def test_corrupted_file_is_parse_error(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(path, self.model())
        path.write_text(path.read_text()[:40])
        with pytest.raises(ParseError):
            load_model(path)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(path, self.model())
        bumped = path.read_text().replace('"schema_version": 1', '"schema_version": 2')
        path.write_text(bumped)
        with pytest.raises(SchemaVersionMismatch):
            load_model(path)

    @pytest.mark.parametrize("ids, position", [("[-1, 4, 9]", 0), ("[0, 9, 4]", 2),
                                               ("[0, 4, 4]", 2)])
    def test_unordered_kept_indices_rejected(self, tmp_path, ids, position):
        path = tmp_path / "m.json"
        save_model(path, self.model())
        path.write_text(path.read_text().replace('"kept_indices": [0, 4, 9]',
                                                 f'"kept_indices": {ids}'))
        with pytest.raises(ParseError, match=rf"kept_indices\[{position}\]"):
            load_model(path)

    def test_no_kept_indices_round_trip(self, tmp_path):
        model = LpdModel(beta=[1.0], mu_hat=[0.0])
        path = tmp_path / "m.json"
        save_model(path, model)
        assert load_model(path).kept_indices is None


class TestIndexMaps:
    def test_round_trip(self, tmp_path):
        from lpd.dataio import load_indices, save_indices

        path = tmp_path / "idx.csv"
        save_indices(path, np.array([2, 7, 11]))
        assert load_indices(path).tolist() == [2, 7, 11]

    def test_out_of_order_rejected(self, tmp_path):
        from lpd.dataio import load_indices

        path = tmp_path / "idx.csv"
        path.write_text("column,original_column\n1,7\n0,2\n")
        with pytest.raises(ParseError):
            load_indices(path)

    @pytest.mark.parametrize("rows, bad_row", [
        ("0,-1\n1,3\n", 2),
        ("0,2\n1,2\n", 3),
        ("0,7\n1,2\n", 3),
    ])
    def test_original_ids_must_be_nonnegative_and_increasing(self, tmp_path, rows, bad_row):
        from lpd.dataio import load_indices

        path = tmp_path / "idx.csv"
        path.write_text("column,original_column\n" + rows)
        with pytest.raises(ParseError, match=f"row {bad_row}: original column"):
            load_indices(path)


class TestAtomicWrite:
    def test_failed_write_leaves_no_output_or_temp(self, tmp_path, monkeypatch):
        import lpd.dataio as dataio_mod

        target = tmp_path / "out.csv"

        def exploding_replace(src, dst):
            raise OSError("injected")

        monkeypatch.setattr(dataio_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            save_predictions(target, np.array([1]), np.array([0.5]))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestReportsAndTables:
    def test_predictions_written_in_blocks_match_one_text(self, tmp_path, monkeypatch):
        import lpd.dataio as dataio_mod

        rng = np.random.default_rng(3)
        scores = rng.standard_normal(11) * 10.0 ** rng.integers(-300, 300, 11)
        classes = np.where(scores >= 0, 1, 2)
        expected = dataio_mod._csv_text(("sample_index", "predicted_class", "score"),
                                        [(i, int(c), fmt_float(s))
                                         for i, (c, s) in enumerate(zip(classes, scores))])
        monkeypatch.setattr(dataio_mod, "_WRITE_CELLS", 12)  # blocks of 4 rows
        path = tmp_path / "preds.csv"
        save_predictions(path, classes.astype(np.int8), scores)
        assert path.read_bytes() == expected.encode()

    def test_failed_block_leaves_no_output(self, tmp_path):
        import lpd.dataio as dataio_mod

        def texts():
            yield "sample_index,predicted_class,score\n"
            raise OSError("injected")

        with pytest.raises(OSError):
            dataio_mod._atomic_write((tmp_path / "preds.csv", texts()))
        assert list(tmp_path.iterdir()) == []

    def test_predictions_layout(self, tmp_path):
        path = tmp_path / "preds.csv"
        save_predictions(path, np.array([1, 2]), np.array([0.5, -0.25]))
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_index,predicted_class,score"
        assert lines[1] == "0,1,0.5"
        assert lines[2] == "1,2,-0.25"

    def test_report_rows_fixed_order(self, tmp_path):
        from lpd.simulation import SimulationSpec, run_benchmark

        spec = SimulationSpec(model_id=1, p=8, n1=20, n2=20, s0=2, reps=2, seed=0)
        report = run_benchmark(spec, methods=("lpd", "oracle"), grid_size=4, cv_folds=2)
        path = tmp_path / "report.csv"
        save_report(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "section,name,mean,sd"
        sections = [line.split(",")[0] for line in lines[1:]]
        assert sections == ["error", "error", "support", "support", "support", "support",
                            "lambda", "lambda", "rate", "rate", "meta", "meta"]

    def test_cv_table_marks_choice(self, tmp_path):
        from lpd.model_selection import CvPlan, cross_validate

        rng = np.random.default_rng(3)
        data = LabeledDataset(
            np.vstack([rng.standard_normal((10, 2)) + 8, rng.standard_normal((10, 2))]),
            np.array([1] * 10 + [2] * 10),
        )
        result = cross_validate(data, CvPlan(folds=2, lambda_grid=[0.4, 0.2], seed=0))
        text = save_cv_table(None, result)
        lines = text.splitlines()
        assert lines[0] == "lambda,correct,eligible,chosen"
        assert sum(line.endswith(",yes") for line in lines[1:]) == 1


class TestNotUtf8:
    """A byte that does not decode as UTF-8 is a ParseError naming the file, in every reader."""

    MESSAGE = r"latin1\.\w+: not UTF-8 text \(byte 0xe9 cannot be decoded\)"

    def test_dataset(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"A,1,2\ncaf\xe9,3,4\n")
        with pytest.raises(ParseError, match=self.MESSAGE):
            load_dataset(path)
        with pytest.raises(ParseError, match=self.MESSAGE):
            dataio._read_rows(path, DataFileSchema(has_header=True), None)

    def test_model(self, tmp_path):
        path = tmp_path / "latin1.json"
        save_model(path, LpdModel(beta=[1.0], mu_hat=[0.0], metadata={"note": "cafe"}))
        path.write_bytes(path.read_bytes().replace(b"cafe", b"caf\xe9"))
        with pytest.raises(ParseError, match=self.MESSAGE):
            load_model(path)

    def test_index_map(self, tmp_path):
        from lpd.dataio import load_indices

        path = tmp_path / "latin1.csv"
        path.write_bytes(b"column,original_column\n0,2\n1,7\xe9\n")
        with pytest.raises(ParseError, match=self.MESSAGE):
            load_indices(path)


class TestLabelNames:
    @pytest.mark.parametrize("cell", ["1.5", "1_0"])  # read by np.loadtxt / by the exact reader
    def test_label_names_are_text(self, tmp_path, cell):
        path = tmp_path / "labels.csv"
        path.write_text(f"A,{cell}\nB,2\nA,3\n")
        names = load_dataset(path).label_names
        assert names == ("A", "B")
        assert all(type(name) is str for name in names)


class TestFieldSizeLimit:
    """A cell longer than the csv module's limit is a ParseError, not a traceback."""

    LONG = "1" + " " * 140_000
    MESSAGE = r"long\.csv: field larger than field limit"

    def test_dataset_with_a_bad_cell(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(f"A,{self.LONG},2\nB,nan,4\n")
        with pytest.raises(ParseError, match=self.MESSAGE):
            load_dataset(path)

    def test_header(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(f"label,{self.LONG}\nA,1\n")
        with pytest.raises(ParseError, match=self.MESSAGE):
            dataio._read_rows(path, DataFileSchema(has_header=True), None)

    def test_index_map(self, tmp_path):
        from lpd.dataio import load_indices

        path = tmp_path / "long.csv"
        path.write_text(f"column,original_column\n0,{self.LONG}\n")
        with pytest.raises(ParseError, match=self.MESSAGE):
            load_indices(path)


class TestModelIndexCount:
    @pytest.mark.parametrize("ids", ["[0, 4]", "[0, 4, 9, 12]", "[]"])
    def test_kept_indices_of_other_length_rejected(self, tmp_path, ids):
        path = tmp_path / "m.json"
        save_model(path, TestModelPersistence().model())
        path.write_text(path.read_text().replace('"kept_indices": [0, 4, 9]',
                                                 f'"kept_indices": {ids}'))
        with pytest.raises(ParseError, match=r"kept_indices has \d ids for 3 features"):
            load_model(path)
