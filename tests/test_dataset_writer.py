"""`save_dataset` writes what `load_dataset` reads back.

Rows go through the csv module, so a label holding the delimiter, `"` or a
line feed is quoted, and a file written with a header keeps every row.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpd import dataio
from lpd.dataio import DataFileSchema, load_dataset, save_dataset
from lpd.errors import DataError, ParseError
from lpd.stats import LabeledDataset

# Label characters: both delimiters a test file can meet, the quote, a line
# feed, spaces and non-ASCII letters. A carriage return is tested apart.
LABEL_TEXT = st.text(alphabet=',;\t" \nab1é中Ω', max_size=6).filter(lambda t: t == t.strip())


@st.composite
def datasets_and_schemas(draw):
    names = tuple(draw(st.lists(LABEL_TEXT, min_size=1, max_size=3, unique=True)))
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    features = np.array(draw(st.lists(finite, min_size=n * p, max_size=n * p))).reshape(n, p)
    # first-seen order on reading: class 1 is drawn first, then any id seen so far or the next one
    labels = [1]
    for _ in range(n - 1):
        labels.append(draw(st.integers(1, min(max(labels) + 1, len(names)))))
    names = names[: max(labels)]
    schema = DataFileSchema(
        delimiter=draw(st.sampled_from([",", ";", "\t"])),
        label_column=draw(st.sampled_from([0, p // 2, p])),  # first, middle or last
        has_header=draw(st.booleans()),
    )
    return LabeledDataset(features, labels, names), schema


@settings(max_examples=300, deadline=None, derandomize=True)
@given(datasets_and_schemas())
def test_save_then_load_is_identity(case):
    data, schema = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_dataset(path, data, schema)
        back = load_dataset(path, schema)
    assert back.features.tobytes() == data.features.tobytes()
    assert back.labels.tolist() == data.labels.tolist()
    assert back.label_names == data.label_names


def two_class(n=40, p=6, names=("grade,1", "grade,2"), seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2 + 1
    return LabeledDataset(rng.standard_normal((n, p)) + labels[:, None], labels, names)


def test_label_holding_the_delimiter_keeps_width_and_classes(tmp_path):
    path = tmp_path / "screened.csv"
    save_dataset(path, two_class(p=3))
    back = load_dataset(path)
    assert back.p == 3
    assert back.label_names == ("grade,1", "grade,2")
    assert path.read_text().splitlines()[0].startswith('"grade,1",')


def test_header_row_keeps_every_row_and_class_order(tmp_path):
    path = tmp_path / "screened.csv"
    schema = DataFileSchema(label_column=1, has_header=True)
    save_dataset(path, two_class(p=3, names=("A", "B")), schema)
    assert path.read_text().splitlines()[0] == "x0,label,x1,x2"
    back = load_dataset(path, schema)
    assert back.n == 40 and back.label_names == ("A", "B")
    with pytest.raises(ParseError, match="row 1, column 0: not a number: 'x0'"):
        load_dataset(path, DataFileSchema(label_column=1))


def test_ordinary_labels_are_written_unquoted(tmp_path):
    path = tmp_path / "plain.csv"
    data = LabeledDataset([[0.5, -0.0], [0.1, 2.0]], [1, 2], ("a b", "é"))
    save_dataset(path, data, DataFileSchema(delimiter=";"))
    assert path.read_text(encoding="utf-8") == "a b;0.5;-0\né;0.10000000000000001;2\n"


def test_written_in_blocks_as_in_one_text(tmp_path, monkeypatch):
    data = two_class(n=9, p=3, names=("a,b", 'say "x"'))
    schema = DataFileSchema(delimiter=";", label_column=2, has_header=True)
    save_dataset(tmp_path / "one.csv", data, schema)
    monkeypatch.setattr(dataio, "_WRITE_CELLS", 9)  # blocks of 2 rows
    save_dataset(tmp_path / "blocks.csv", data, schema)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_carriage_return_in_a_later_block_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_WRITE_CELLS", 9)  # the first block has only class 1 rows
    path = tmp_path / "cr.csv"
    data = LabeledDataset(np.ones((6, 2)), [1, 1, 1, 1, 2, 2], ("ok", "a\rb"))
    with pytest.raises(DataError, match=r"label 'a\\rb': a carriage return"):
        save_dataset(path, data, indices=(tmp_path / "kept.csv", [0, 1]))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["a\rb", "a\r\nb"])
def test_carriage_return_in_a_label_is_a_data_error(tmp_path, name):
    path = tmp_path / "cr.csv"
    with pytest.raises(DataError, match=r"label 'a\\r.*': a carriage return"):
        save_dataset(path, two_class(names=("ok", name)))
    assert not path.exists()


@pytest.mark.parametrize("label_column", [-1, 4])
def test_label_column_outside_0_to_p_is_refused(tmp_path, label_column):
    path = tmp_path / "wide_label.csv"
    with pytest.raises(ValueError, match=f"label column {label_column} does not fit a file "
                                         "of 3 kept features; it must lie in 0..3"):
        save_dataset(path, two_class(p=3), DataFileSchema(label_column=label_column))
    assert not path.exists()
