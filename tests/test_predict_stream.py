"""`lpd predict` scores a file chunk by chunk and no process holds its rows.

`dataio.score_rows` parses each piece of a plain file in line-aligned chunks,
on forked workers when the file is cut, scores each chunk and lets it go. The
scores must be those of `decision_scores` on the rows `dataio._read_rows`
reads from the whole file, byte for byte, at one BLAS thread, so the
comparisons run in child processes on one BLAS thread (see
`TestBlockScoring` in test_classifier.py), where the pieces really go to
forked workers.
"""

import tracemalloc

import numpy as np
import pytest

from lpd import classifier, cli, dataio
from lpd.cli import main
from lpd.classifier import LpdModel, decision_scores
from lpd.dataio import DataFileSchema, save_model

from test_parallel import run_child
from test_reader_equivalence import cut_into_pieces, write

# Cases over n = 40..47 rows, 2 to 4 pieces and chunks of 3 or 5 lines, each
# with one of the 32 layouts: label none, first, middle or last; a header or
# not; a kept_indices model or not; LF lines, or CRLF lines each followed by
# three blank lines. Each case prints whether the streamed scores, and the
# predictions file of `lpd predict`, equal those of the whole batch; then the
# sizes of the pieces' last chunks, n mod 4 and where blank lines met a cut.
STREAMED = """
import itertools
import numpy as np
from lpd import dataio
from lpd.classifier import LpdModel, decision_scores
from lpd.cli import main
from lpd.dataio import DataFileSchema, load_dataset, save_model, score_rows

workdir = sys.argv[1]
rng = np.random.default_rng(19)
layouts = list(itertools.product((None, "first", "middle", "last"), (False, True), (False, True),
                                 ("\\n", "\\r\\n" * 4)))
base = list(itertools.product(range(40, 48), (2, 3, 4), (3, 5)))
last_chunks, residues, blank_cuts, results = set(), set(), set(), []
for case, ((n, pieces, chunk_lines), (where, header, kept, newline)) in enumerate(
        zip(base, itertools.cycle(layouts))):
    p = 5 if kept else 3  # a kept_indices model of 3 features scores rows of 5
    label = {None: None, "first": 0, "middle": 2, "last": p}[where]
    lines = []
    for i, row in enumerate(rng.standard_normal((n, p)) * 10):
        cells = ["%+.17e" % v for v in row]
        if label is not None:
            cells.insert(label, "ABC"[i % 3])
        lines.append(",".join(cells))
    if header:
        lines.insert(0, ",".join(f"h{j}" for j in range(p + (label is not None))))
    path = f"{workdir}/case{case}.csv"
    with open(path, "w", newline="") as handle:
        handle.write(newline.join(lines) + newline)
    schema = DataFileSchema(label_column=label or 0, has_header=header)
    model = LpdModel(beta=rng.standard_normal(3), mu_hat=rng.standard_normal(3),
                     kept_indices=[0, 2, 4] if kept else None)
    dataio.CHUNK_BYTES = chunk_lines * len(lines[-1])
    dataio.PIECE_BYTES = 1
    whole = (dataio._read_rows(path, schema, None)[0] if label is None
             else load_dataset(path, schema).features)
    expected = decision_scores(model, whole)
    streamed = score_rows(path, model, schema, label, pieces)
    # the predictions file, through the CLI, on as many pieces as it has workers
    model_path, out, reference = (f"{workdir}/{name}{case}" for name in ("model", "out", "ref"))
    save_model(model_path, model)
    dataio.save_predictions(reference, np.where(expected >= 0, 1, 2), expected)
    argv = ["predict", "--model", model_path, "--data", path, "--out", out,
            "--label-column", str(label or 0)] + ["--has-labels"] * (label is not None)
    code = main(argv + ["--has-header"] * header)
    same_file = code == 0 and open(out, "rb").read() == open(reference, "rb").read()
    results.append((case, streamed.tobytes() == expected.tobytes(), same_file, len(forks) > 0))
    forks.clear()
    plan = dataio._plan(path, schema, label, pieces)
    assert len(plan.lines) == pieces, (case, plan.lines)
    for index in range(pieces):
        sizes = [len(features) for features, _ in dataio._walk(plan, index, {})]
        last_chunks.add(sizes[-1] if sizes else 0)
    residues.add(n % 4)
    raw = open(path, "rb").read()
    for cut in plan.cuts[1:-1]:
        if raw[:cut].rstrip(b"\\n").rstrip(b"\\r").endswith(b"\\n"):
            blank_cuts.add("before")
        if raw[cut:cut + 1] in b"\\r\\n":
            blank_cuts.add("after")
for case, same_scores, same_file, forked in results:
    print(case, same_scores, same_file, forked)
print("last chunks", sorted(last_chunks))
print("residues", sorted(residues))
print("blank lines at cuts", sorted(blank_cuts))
"""


def test_streamed_scores_equal_the_whole_batch(tmp_path):
    lines = [line for line in run_child(STREAMED, tmp_path) if not line.startswith("wrote")]
    cases = [line.split() for line in lines[:-3]]
    assert len(cases) == 48
    assert [case for case in cases if case[1:3] != ["True", "True"]] == []
    assert all(forked == "True" for *_, forked in cases)  # the pieces ran on workers
    assert {"1", "2", "3"} <= set(lines[-3].split("[")[1].rstrip("]").split(", "))
    assert lines[-2] == "residues [0, 1, 2, 3]"
    assert lines[-1] == "blank lines at cuts ['after', 'before']"


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, LpdModel(beta=[1.0, -2.0], mu_hat=[0.5, 0.25]))
    return path


def batch_lines(n, labeled=False):
    return [("AB"[i % 2] + "," if labeled else "") + f"{i}.5,{-i}" for i in range(n)]


def predict(tmp_path, model_path, lines, *flags):
    data = write(tmp_path, ("\n".join(lines) + "\n").encode("latin-1"), "batch.csv")
    return data, main(["predict", "--model", str(model_path), "--data", str(data),
                       "--out", str(tmp_path / "preds.csv"), *flags])


@pytest.mark.parametrize("labeled", [False, True])
@pytest.mark.parametrize("fault, cell", [
    ("nan", "nan"), ("ragged", "1,2,3"), ("text", "oops"), ("not UTF-8", "caf\xe9")])
def test_error_in_the_last_piece(tmp_path, monkeypatch, capsys, model_path, labeled, fault,
                                 cell):
    """The error and exit code of the whole-file reader, and no predictions file."""
    lines = batch_lines(40, labeled)
    cells = lines[-2].split(",")
    cells[-1] = cell
    lines[-2] = ",".join(cells)
    data = write(tmp_path, ("\n".join(lines) + "\n").encode("latin-1"), "batch.csv")
    with pytest.raises(dataio.DataError) as exact:
        dataio._exact_rows(data, DataFileSchema(), 0 if labeled else None)
    counts = cut_into_pieces(monkeypatch, 60)
    monkeypatch.setattr(dataio, "CHUNK_BYTES", 30)
    monkeypatch.setattr(cli, "_max_workers", lambda: 3)
    capsys.readouterr()
    assert predict(tmp_path, model_path, lines, *["--has-labels"] * labeled)[1] == 2
    assert capsys.readouterr().err == f"lpd: data error: {exact.value}\n"
    assert counts and all(count == 3 for count in counts)
    assert not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("kept, message", [
    (None, "expected 2 features, got 3"),
    ([0, 3], "input has 3 features; kept indices reach 3"),
])
def test_batch_of_another_width_is_a_data_error_at_the_first_chunk(tmp_path, monkeypatch, capsys,
                                                                   kept, message):
    """Named with the file, and found before a bad cell in a later chunk is parsed."""
    model_path = tmp_path / "model.json"
    save_model(model_path, LpdModel(beta=[1.0, -2.0], mu_hat=[0.5, 0.25], kept_indices=kept))
    lines = [line + ",7" for line in batch_lines(40)]
    lines[-1] = "oops,1,2"
    monkeypatch.setattr(dataio, "CHUNK_BYTES", 50)
    capsys.readouterr()
    data, code = predict(tmp_path, model_path, lines)
    assert code == 2
    assert capsys.readouterr().err == f"lpd: data error: {data}: {message}\n"
    assert not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("threads", [1, 3])
def test_width_error_comes_before_a_bad_value_of_the_first_chunk(tmp_path, monkeypatch, capsys,
                                                                 model_path, threads):
    """The same error on one piece or three: the width is checked before the values."""
    lines = [line + ",7" for line in batch_lines(40)]
    lines[0] = "nan,1,7"
    counts = cut_into_pieces(monkeypatch, 60)
    monkeypatch.setattr(dataio, "CHUNK_BYTES", 30)
    monkeypatch.setattr(cli, "_max_workers", lambda: threads)
    capsys.readouterr()
    data, code = predict(tmp_path, model_path, lines)
    assert code == 2
    assert capsys.readouterr().err == f"lpd: data error: {data}: expected 2 features, got 3\n"
    assert counts == [threads]
    assert not (tmp_path / "preds.csv").exists()


def test_labeled_training_file_given_to_predict(tmp_path, capsys):
    """A 5-feature model and its 6-column labeled training file, without --has-labels."""
    train = tmp_path / "train.csv"
    rng = np.random.default_rng(4)
    train.write_text("".join(f"{1 + i % 2}," + ",".join(repr(float(v)) for v in row) + "\n"
                             for i, row in enumerate(rng.standard_normal((30, 5)))))
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(train), "--lambda", "0.5", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(train),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr().err == f"lpd: data error: {train}: expected 5 features, got 6\n"


def predict_peak(tmp_path, model_path, n):
    rng = np.random.default_rng(n)
    data = tmp_path / f"batch{n}.csv"
    data.write_text("".join(",".join(map(repr, row)) + "\n"
                            for row in rng.standard_normal((n, 8)).tolist()))
    out = tmp_path / f"preds{n}.csv"
    tracemalloc.start()
    try:
        code = main(["predict", "--model", str(model_path), "--data", str(data), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("pieces", [1, 3])
def test_traced_peak_grows_by_the_scores_at_most(tmp_path, monkeypatch, pieces):
    """From 4000 to 16000 rows of 8 features (64 bytes a row parsed) the peak grows by
    at most 17 bytes a row: the scores, their parts while they are joined, and a
    byte for each class. The rows are parsed, scored and let go a chunk at a time,
    and the file is written a block of rows at a time. Chunks and blocks are made
    small, so that each file has several of the same size."""
    model_path = tmp_path / "model.json"
    save_model(model_path, LpdModel(beta=np.arange(8.0), mu_hat=np.ones(8)))
    monkeypatch.setattr(dataio, "CHUNK_BYTES", 16 << 10)
    monkeypatch.setattr(dataio, "_WRITE_CELLS", 3000)
    if pieces > 1:
        cut_into_pieces(monkeypatch, 160 << 10)
        monkeypatch.setattr(cli, "_max_workers", lambda: pieces)
    small, large = (predict_peak(tmp_path, model_path, n) for n in (4000, 16000))
    assert large - small <= 17 * 12000


def test_predictions_written_a_block_at_a_time(tmp_path):
    """16000 rows of predictions are formatted and written a block of rows at a time."""
    rng = np.random.default_rng(3)
    classes, scores = rng.integers(1, 3, 16000), rng.standard_normal(16000)
    out = tmp_path / "preds.csv"
    tracemalloc.start()
    try:
        dataio.save_predictions(out, classes, scores)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = out.read_text().splitlines()
    assert len(lines) == 16001
    assert lines[-1] == f"15999,{classes[-1]},{dataio.fmt_float(scores[-1])}"
    assert peak < 512 << 10


def test_one_chunk_is_scored_by_one_product(tmp_path, model_path, monkeypatch):
    """The only piece holds its last chunk back, so a small file is one call."""
    calls = []

    def counted(model, rows):
        calls.append(len(rows))
        return decision_scores(model, rows)

    monkeypatch.setattr(classifier, "decision_scores", counted)
    assert predict(tmp_path, model_path, batch_lines(50))[1] == 0
    assert calls == [50]


@pytest.mark.parametrize("newline", ["\r", "\r\n\r"])
def test_records_ending_at_a_lone_carriage_return(tmp_path, model_path, newline):
    """Such a file is one piece, parsed whole."""
    data = write(tmp_path, newline.join(batch_lines(30)) + newline)
    plan = dataio._plan(data, DataFileSchema(), None, 4)
    assert plan.width is None and len(plan.lines) == 1
    model = dataio.load_model(model_path)
    expected = decision_scores(model, dataio._read_rows(data, DataFileSchema(), None)[0])
    scores = dataio.score_rows(data, model, max_workers=4)
    assert scores.tobytes() == expected.tobytes()
