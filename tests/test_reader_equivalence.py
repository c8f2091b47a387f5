"""The two dataset readers agree.

`load_dataset` and `load_features` read a file with one `np.loadtxt` pass
and hand whatever that pass does not accept to `dataio._exact_rows`, the
csv-module and `float()` reader that names errors. Whichever reads a file,
the result must be what `_exact_rows` alone gives: bit-identical arrays,
labels and label names, or the same error type and message.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpd import dataio
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


def assert_same(path, schema):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        public = (outcome(lambda: load_dataset(path, schema)),
                  outcome(lambda: load_features(path, schema)))
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
