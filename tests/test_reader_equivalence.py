"""The two dataset readers agree.

`load_dataset` and `load_features` read a file with one `np.loadtxt` pass
and hand whatever that pass does not accept to `dataio._exact_rows`, the
csv-module and `float()` reader that names errors. Whichever reads a file,
the result must be what `_exact_rows` alone gives: bit-identical arrays,
labels and label names, or the same error type and message. That holds too
when a large plain file is cut into pieces, one `np.loadtxt` pass each,
stitched into one array.
"""

import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpd import dataio, linalg
from lpd.dataio import DataFileSchema, load_dataset, load_features
from lpd.errors import NonFiniteValue
from lpd.stats import LabeledDataset

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def outcome(read):
    """What a read returns, as comparable values, or its error type and message."""
    try:
        value = read()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    if isinstance(value, LabeledDataset):
        return (*outcome(lambda: value.features), value.labels.dtype, value.labels.tolist(),
                value.label_names)
    return value.dtype, value.shape, value.flags.c_contiguous, value.tobytes()


def assert_same(path, schema, max_workers=1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        public = (outcome(lambda: load_dataset(path, schema, max_workers)),
                  outcome(lambda: load_features(path, schema, max_workers)))
    exact = (
        outcome(lambda: LabeledDataset(*dataio._exact_rows(path, schema, schema.label_column))),
        outcome(lambda: dataio._exact_rows(path, schema, None)[0]),
    )
    assert public == exact


def doubles(fmt):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-300, 300, (5, 3))
    return "".join(",".join(fmt(v) for v in row) + "\n" for row in values)


# name -> (file text or bytes, schema options, whether the np.loadtxt pass decides it:
# reads it, or names its first non-finite value without a second parse)
CASES = {
    "%.17g doubles": (doubles(lambda v: "%.17g" % v), {}, True),
    "repr doubles": (doubles(lambda v: repr(float(v))), {}, True),
    "%.6g doubles": (doubles(lambda v: "%.6g" % v), {}, True),
    "subnormals and signed zeros": ("5e-324,-0.0,0\n-2.2250738585072009e-308,0.0,-0\n", {}, True),
    "quoted cells": ('"A","1.5",-2\n"B",3,"4"\n', {}, True),
    "quoted label with a delimiter": ('"A,B",1\n"C ""D""",2\n', {}, True),
    "surrounding spaces": (" A , 1.5 ,-2 \nB,  3,4\t\n", {}, True),
    "CR line ends": ("A,1,2\rB,3,4\r", {}, True),
    "CRLF line ends": ("A,1,2\r\nB,3,4\r\n", {}, True),
    "blank lines": ("\nA,1,2\n\n\r\nB,3,4\n\n", {}, True),
    "header": ("label,f1,f2\nA,1,2\nB,3,4\n", {"has_header": True}, True),
    "header after a blank line 1": ("\nA,1,2\nB,3,4\n", {"has_header": True}, True),
    "header only": ("label,f1,f2\n", {"has_header": True}, False),
    "header of the wrong width": ("label,f1\nA,1,2\nB,3,4\n", {"has_header": True}, False),
    "header spanning two lines": ('f1,f2,"lab\n1,2,el"\n3,4,A\n',
                                  {"has_header": True, "label_column": 2}, True),
    "labeled row with one extra field": ("A,1,2\nB,3,4,5\n", {}, False),
    "short row": ("A,1,2\nB,3\n", {}, False),
    "empty file": ("", {}, False),
    "blank lines only": ("\n\r\n\n", {}, False),
    "whitespace-only line": ("A,1,2\n  \nB,3,4\n", {}, False),
    "empty cell": ("A,1,2\nB,,4\n", {}, False),
    "nan": ("A,1,2\nB,nan,4\n", {}, True),
    "inf": ("A,1,2\nB,3,-inf\n", {}, True),
    "1e400": ("A,1,2\nB,1e400,4\n", {}, True),
    "1_0": ("A,1_0,2\nB,3,4\n", {}, False),
    "arabic-indic digit": ("A,\u0661,2\nB,3,4\n", {}, False),
    "BOM": ("\ufeff1,2\n3,4\n", {"label_column": 1}, False),
    "non-latin1 label": ("\u0394,1,2\n\u03a3 ,3,4\n", {}, True),
    "BOM before the label": ("\ufeffA,1,2\nB,3,4\n", {}, True),
    "file separator byte": ("A,\x1c1,2\nB,3,4\n", {}, False),
    "CR inside a quoted label": ('"A\rB",1,2\n"C",3,4\n', {}, True),
    "label column past the row": ("1,2\n3,4\n", {"label_column": 2}, False),
    "negative label column": ("1,2\n3,4\n", {"label_column": -1}, False),
    "single column": ("A\nB\n", {}, True),
    "delimiter ;": ("A;1,5;2\nB;3;4\n", {"delimiter": ";"}, False),
    "delimiter ; well formed": ("A;1.5;2\nB;3;4\n", {"delimiter": ";"}, True),
    "delimiter tab": ("A\t1.5\t2\nB\t3\t 4\n", {"delimiter": "\t"}, True),
    "delimiter tab with a doubled tab": ("A\t1.5\t\t2\nB\t3\t4\t\n", {"delimiter": "\t"}, False),
    "not UTF-8": (b"caf\xe9,1,2\nB,3,4\n", {}, False),
}


def write(directory, content, name="data.csv"):
    path = Path(directory) / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return path


@pytest.mark.parametrize("name", CASES)
def test_named_case(tmp_path, name):
    content, options, fast = CASES[name]
    path = write(tmp_path, content)
    schema = DataFileSchema(**options)
    assert_same(path, schema)
    try:
        decided = dataio._loadtxt_rows(path, schema, schema.label_column) is not None
    except ValueError:
        decided = False
    except NonFiniteValue:
        decided = True
    assert decided == fast


@pytest.mark.parametrize("name", ["data.csv.gz", "data.bz2", "data.xz"])
def test_compressed_extension_is_read_as_text(tmp_path, name):
    """numpy, given a path, would decompress by extension; the file is plain text."""
    path = write(tmp_path, "A,1,2\nB,3,4\n", name)
    assert_same(path, DataFileSchema())
    assert load_dataset(path).features.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("layout", ["plain", "header", "blank lines"])
@pytest.mark.parametrize("where", [0, 3, 5])
@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_nonfinite_value_named_without_a_second_parse(tmp_path, monkeypatch, labeled, layout,
                                                      where, value):
    """The np.loadtxt pass reads the whole file; the first non-finite value is then
    named exactly as the exact reader names it, and the exact reader never runs."""
    rows = [["AB"[i % 2]] * labeled + [f"{i}.5", str(-i), "7e-3"] for i in range(6)]
    rows[where][labeled + where % 3] = value
    lines = [",".join(row) for row in rows]
    if layout == "header":
        lines.insert(0, ",".join(f"h{j}" for j in range(len(rows[0]))))
    elif layout == "blank lines":
        lines = [""] + [line for row in lines for line in (row, "", "")]
    path = write(tmp_path, "\n".join(lines) + "\n")
    schema = DataFileSchema(has_header=layout == "header")
    label_column = schema.label_column if labeled else None
    with pytest.raises(NonFiniteValue) as exact:
        dataio._exact_rows(path, schema, label_column)

    def second_parse(*args):
        raise AssertionError("the file was parsed twice")

    monkeypatch.setattr(dataio, "_exact_rows", second_parse)
    with pytest.raises(NonFiniteValue) as one_pass:
        if labeled:
            load_dataset(path, schema)
        else:
            load_features(path, schema)
    assert str(one_pass.value) == str(exact.value)
    assert f"non-finite value '{value}'" in str(one_pass.value)


TOKENS = ["nan", "-inf", "1e400", "1_0", "\u0661", "", "x", "\ufeff1", "  ", '"1"', ' "1"',
          "1 2", "\x1f1", "0x10", "1d5", "+.5", "5.", " 1", '"1\n"']


@st.composite
def tables(draw):
    """A well-formed labeled table, then at most one way of breaking it."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    n, p = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    fmt = draw(st.sampled_from(["%.17g", "%r", "%.6g"]))
    floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
    label_column = draw(st.integers(0, p))
    rows = []
    for _ in range(n):
        cells = [fmt % draw(floats) for _ in range(p)]
        cells = [draw(st.sampled_from([c, f'"{c}"', f" {c} "])) for c in cells]
        label = draw(st.sampled_from(["A", "B", " c ", '"d"', '"e;f"', "g h", '"i""j"']))
        rows.append(cells[:label_column] + [label] + cells[label_column:])
    lines = [delimiter.join(row) for row in rows]
    header = draw(st.sampled_from([None, p + 1, p, p + 2]))
    if header is not None:
        lines.insert(0, delimiter.join(f"h{j}" for j in range(header)))
    breakage = draw(st.sampled_from(["none", "token", "extra field", "blank", "spaces", "bom"]))
    row = draw(st.integers(int(header is not None), len(lines) - 1))
    if breakage == "token":
        cells = lines[row].split(delimiter)
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(TOKENS))
        lines[row] = delimiter.join(cells)
    elif breakage == "extra field":
        lines[row] += delimiter + "1"
    elif breakage in ("blank", "spaces"):
        lines.insert(row, "" if breakage == "blank" else " \t ")
    elif breakage == "bom":
        lines[0] = "\ufeff" + lines[0]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    schema = DataFileSchema(delimiter=delimiter, label_column=label_column,
                            has_header=header is not None)
    return text, schema


@SETTINGS
@given(tables())
def test_generated_tables(case):
    text, schema = case
    with tempfile.TemporaryDirectory() as directory:
        assert_same(write(directory, text), schema)


@SETTINGS
@given(
    st.text(alphabet=list('0123456789.-+eE,;\t "\r\nnaif_x\x00\x1c\ufeff\u0661'), max_size=40),
    st.sampled_from([",", ";", "\t"]),
    st.integers(-1, 3),
    st.booleans(),
)
def test_arbitrary_text(text, delimiter, label_column, has_header):
    schema = DataFileSchema(delimiter=delimiter, label_column=label_column, has_header=has_header)
    with tempfile.TemporaryDirectory() as directory:
        assert_same(write(directory, text), schema)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("where", [0, 4, 9])
def test_nonfinite_row_counted_in_plain_and_quoted_files(tmp_path, newline, quoted, where):
    """With a header and blank lines, the first non-finite value is named as the
    exact reader names it, whether the records before it are counted as lines (no
    quote character in the file) or walked by csv."""
    rows = [["AB"[i % 2], f"{i}.5", str(-i)] for i in range(10)]
    rows[where][1] = "nan"
    if quoted:
        rows[7][0] = '"B"'
    lines = ["label,x,y", ""] + [line for row in rows for line in (",".join(row), "")]
    path = write(tmp_path, newline.join(lines) + newline)
    schema = DataFileSchema(has_header=True)
    with pytest.raises(NonFiniteValue) as exact:
        dataio._exact_rows(path, schema, 0)
    with pytest.raises(NonFiniteValue) as one_pass:
        load_dataset(path, schema)
    assert str(one_pass.value) == str(exact.value)
    assert f"row {2 * where + 3}, column 1: non-finite value 'nan'" in str(one_pass.value)


def test_field_over_the_csv_limit_before_the_nonfinite_row(tmp_path):
    """A plain file's lines are only counted, but a field csv would refuse still raises."""
    path = write(tmp_path, "A,1,2\nB,3," + " " * 140_000 + "4\nA,nan,5\n")
    assert_same(path, DataFileSchema())


def cut_into_pieces(monkeypatch, piece_bytes):
    """Split files into pieces of at least ``piece_bytes``, parsed one after another in
    this process; returns the list of piece counts of the reads that follow."""
    counts = []

    def serial(fn, shared, count, max_workers):
        counts.append(count)
        return [fn(*shared, i) for i in range(count)]

    monkeypatch.setattr(dataio, "PIECE_BYTES", piece_bytes)
    monkeypatch.setattr(dataio, "map_tasks", serial)
    return counts


def split_rows(n, label_column, newline="\n", blank=False):
    """n labeled rows of two features; label C first appears in the last quarter."""
    lines = []
    for i in range(n):
        cells = [f"{i}.25", str(-3 * i)]
        cells.insert(label_column, "C" if i >= 3 * n // 4 else " AB"[1 + i % 2])
        lines += [",".join(cells)] + [""] * blank
    return newline.join(lines) + newline


@pytest.mark.parametrize("label_column", [0, 1, 2])
@pytest.mark.parametrize("newline, blank", [("\n", False), ("\r\n", True), ("\n", True)])
@pytest.mark.parametrize("piece_bytes", [23, 40, 61])
def test_split_read_stitches_pieces(tmp_path, monkeypatch, label_column, newline, blank,
                                    piece_bytes):
    """Label ids follow first-seen order across pieces, and blank lines and CRLF
    line ends may sit on either side of a cut."""
    path = write(tmp_path, split_rows(24, label_column, newline, blank))
    counts = cut_into_pieces(monkeypatch, piece_bytes)
    schema = DataFileSchema(label_column=label_column)
    assert_same(path, schema, max_workers=4)
    assert counts and all(count == 4 for count in counts)
    data = load_dataset(path, schema, 4)
    assert data.label_names == ("A", "B", "C") and data.labels[-1] == 3
    assert dataio._loadtxt_rows(path, schema, label_column, 4) is not None  # stitched


@pytest.mark.parametrize("text", [
    "label,x,y\n" + split_rows(20, 0),
    "label,x,y\r\n\r\n" + split_rows(20, 0, "\r\n", blank=True),
    split_rows(20, 0).rstrip("\n"),
    split_rows(20, 0, "\r\n").rstrip("\r\n"),
])
def test_split_read_header_and_last_line(tmp_path, monkeypatch, text):
    path = write(tmp_path, text)
    counts = cut_into_pieces(monkeypatch, 30)
    schema = DataFileSchema(has_header=text.startswith("label"))
    assert_same(path, schema, max_workers=3)
    assert counts and all(count == 3 for count in counts)
    assert dataio._loadtxt_rows(path, schema, 0, 3) is not None


@pytest.mark.parametrize("fault, message", [
    ("nan", "row 24, column 2: non-finite value 'nan'"),
    ("ragged", "row 24 has 4 fields, expected 3"),
    ("not UTF-8", "not UTF-8 text (byte 0xe9 cannot be decoded)"),
])
def test_split_read_error_in_the_last_piece(tmp_path, monkeypatch, fault, message):
    lines = split_rows(24, 0).splitlines()
    lines[-1] = {"nan": "A,1,nan", "ragged": "A,1,2,3", "not UTF-8": "caf\xe9,1,2"}[fault]
    path = write(tmp_path, ("\n".join(lines) + "\n").encode("latin-1"))
    counts = cut_into_pieces(monkeypatch, 40)
    assert_same(path, DataFileSchema(), max_workers=3)
    with pytest.raises(dataio.DataError) as error:
        load_dataset(path, DataFileSchema(), 3)
    assert str(error.value) == f"{path}: {message}"
    assert counts and all(count == 3 for count in counts)


@pytest.mark.parametrize("text", [
    split_rows(20, 0).replace("A,", '"A",', 1),  # a quote: a record may span lines
    ",".join(str(i) for i in range(300)) + "\n",  # one long line
    ",".join(str(i) for i in range(300)) + "\n" * 400,  # a slot per blank line: too large
])
def test_split_read_keeps_quoted_files_and_single_lines_whole(tmp_path, monkeypatch, text):
    path = write(tmp_path, text)
    counts = cut_into_pieces(monkeypatch, 10)
    assert_same(path, DataFileSchema(), max_workers=4)
    assert counts and all(count == 1 for count in counts)


def test_split_read_across_the_scan_chunks(tmp_path, monkeypatch):
    """Cut targets in several 1 MB scan chunks, in lines that straddle a chunk end."""
    rng = np.random.default_rng(5)
    lines = [",".join(["AB"[i % 2]] + [repr(float(v)) for v in rng.standard_normal(4000)])
             for i in range(20)]
    path = write(tmp_path, "\n".join(lines) + "\n")
    assert path.stat().st_size > 1 << 20
    counts = cut_into_pieces(monkeypatch, 150_000)
    assert_same(path, DataFileSchema(), max_workers=9)
    assert counts and all(count == 9 for count in counts)
    assert dataio._loadtxt_rows(path, DataFileSchema(), 0, 9) is not None


@pytest.mark.parametrize("label_column", [0, 1, 2, None])
@pytest.mark.parametrize("blank", [False, True])
@pytest.mark.parametrize("fault", [None, "nan"])
@pytest.mark.parametrize("max_workers", [1, 4])
def test_label_dropped_in_place_block_by_block(tmp_path, monkeypatch, label_column, blank, fault,
                                               max_workers):
    """Four-row blocks: each is checked and loses its label column, and the rest
    moves forward over the label cells and the empty slot rows that blank lines
    leave. At one worker the file is one piece; at four it is cut. With no label
    column the file holds only the two features."""
    lines = split_rows(40, label_column or 0, blank=blank).splitlines()
    if label_column is None:
        lines = [line.split(",", 1)[1] if line else line for line in lines]
    if fault:  # a feature of the fifth row from the end
        at = [i for i, line in enumerate(lines) if line][-5]
        cells = lines[at].split(",")
        cells[0 if label_column is None else (label_column + 1) % 3] = "nan"
        lines[at] = ",".join(cells)
    path = write(tmp_path, "\n".join(lines) + "\n")
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 100)  # 4 rows of 3 cells
    counts = cut_into_pieces(monkeypatch, 60)
    schema = DataFileSchema(label_column=label_column or 0)
    assert_same(path, schema, max_workers)
    assert counts and all(count == max_workers for count in counts)
    if not fault:
        features = (load_features(path, schema, max_workers) if label_column is None
                    else load_dataset(path, schema, max_workers).features)
        assert features.flags.c_contiguous
        assert features[:, 0].tolist() == [i + 0.25 for i in range(40)]
    if not fault and label_column is not None:
        data = load_dataset(path, schema, max_workers)
        assert data.label_names == ("A", "B", "C") and data.labels[-1] == 3


@pytest.mark.parametrize("split", [False, True])
def test_labeled_read_allocates_no_second_matrix(tmp_path, monkeypatch, split):
    """With the label in a middle column, a read's traced peak stays under
    one and a half feature matrices in one piece (the parsed array is one),
    and under one cut into eight (the rows go to an untraced shared mapping)."""
    rng = np.random.default_rng(8)
    n, p = 5000, 100
    rows = ["%.17g," * 50 % tuple(row[:50]) + "AB"[i % 2] + ",%.17g" * 50 % tuple(row[50:])
            for i, row in enumerate(rng.standard_normal((n, p)))]
    path = write(tmp_path, "\n".join(rows) + "\n")
    if split:
        cut_into_pieces(monkeypatch, path.stat().st_size // 8)
    tracemalloc.start()
    try:
        data = load_dataset(path, DataFileSchema(label_column=50), 8 if split else 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.features.shape == (n, p) and data.label_names == ("A", "B")
    assert peak < (1.0 if split else 1.5) * n * p * 8


@pytest.mark.parametrize("text", ["\n" * 200, "a,b\n" + "\r\n" * 100],
                         ids=["blank lines", "a header over blank lines"])
def test_split_read_of_blank_lines_has_no_rows(tmp_path, monkeypatch, text):
    """Slots sized by newlines, and every piece parses no row."""
    path = write(tmp_path, text)
    counts = cut_into_pieces(monkeypatch, 40)
    assert_same(path, DataFileSchema(has_header=text.startswith("a")), max_workers=4)
    assert counts and all(count == 4 for count in counts)
