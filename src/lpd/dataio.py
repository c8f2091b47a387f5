"""File formats: CSV datasets, JSON model files, CSV reports.

All writers are deterministic (floats serialized with 17 significant
digits, fixed key/column order) and atomic: content is written to a
temporary file and renamed into place, so failures never leave partial
output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .classifier import LpdModel
from .errors import DataError, NonFiniteValue, ParseError, RaggedRows, SchemaVersionMismatch
from .stats import LabeledDataset

MODEL_SCHEMA_VERSION = 1
REPORT_HEADER = ("section", "name", "mean", "sd")


@dataclass
class DataFileSchema:
    """Layout of a delimited dataset file."""

    delimiter: str = ","
    label_column: int = 0
    has_header: bool = False

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")


def fmt_float(x) -> str:
    """17-significant-digit decimal form; lossless for binary64 round trips."""
    return "%.17g" % float(x)


def _atomic_write(*outputs):
    """Write each (path, text) pair to a temporary file, then rename them all into place.

    Every temporary file is written before the first rename, so a failed write
    leaves none of the outputs; if a rename fails, the outputs already renamed
    that did not exist before are removed. A failed write names the path given,
    not its temporary file.
    """
    staged, placed = [], []
    try:
        for path, text in outputs:
            path = os.fspath(path)
            staged.append((f"{path}.tmp.{os.getpid()}.{len(staged)}", path, os.path.exists(path)))
            try:
                with open(staged[-1][0], "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
        for tmp, path, existed in staged:
            os.replace(tmp, path)
            placed.append((path, existed))
    except BaseException:
        for tmp, _, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for path, existed in placed:
            if not existed:
                os.unlink(path)
        raise


def _cell_error(path, lineno, row, label_column):
    """The typed error for the first unreadable or non-finite cell of a row."""
    for col, cell in enumerate(row):
        if col == label_column:
            continue
        try:
            value = float(cell)
        except ValueError:
            return ParseError(f"{path}: row {lineno}, column {col}: not a number: {cell!r}")
        if not math.isfinite(value):
            return NonFiniteValue(f"{path}: row {lineno}, column {col}: non-finite value {cell!r}")
    raise AssertionError(f"{path}: row {lineno} parsed by numpy but not by float()")


@contextlib.contextmanager
def _text_errors(path):
    """Bytes that are not UTF-8, or a cell over csv's size limit, as a ParseError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParseError(f"{path}: not UTF-8 text (byte 0x{byte:02x} cannot be decoded)") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


def _read_rows(path, schema: DataFileSchema, label_column):
    """Parse a delimited dataset file into (features, label ids, label names).

    Blank lines are skipped; with ``schema.has_header`` line 1 is the
    header. The first row, header included, fixes the width. The label
    column's stripped text maps to ids 1, 2, ... in first-seen order. A file
    one ``np.loadtxt`` pass does not take goes to :func:`_exact_rows`: it names
    the error or reads what only ``float`` accepts (``1_0``), rounding alike.
    A file that pass reads whole but for a non-finite value is not parsed
    again: :func:`_nonfinite_error` names the value.
    """
    rows = None
    with contextlib.suppress(ValueError, csv.Error):
        rows = _loadtxt_rows(path, schema, label_column)
    return rows or _exact_rows(path, schema, label_column)


def _loadtxt_rows(path, schema: DataFileSchema, label_column):
    """:func:`_read_rows` by numpy's C parser, or None where the exact reader must decide."""
    if label_column is not None and label_column < 0:
        return None
    with open(path, "rb") as raw:  # numpy strips these bytes around a number; float() does not
        chunks = iter(lambda: raw.read(1 << 20), b"")
        if any(c in chunk for chunk in chunks for c in b"\x1c\x1d\x1e\x1f"):
            return None
    names: dict[str, int] = {}
    # Not `usecols`: it accepts a row with an extra field. The label column is dropped below.
    converters = {} if label_column is None else {
        label_column: lambda text: names.setdefault(text.strip(), len(names) + 1)}
    # numpy reads the lines of an open file as csv does; given a path it
    # would decompress by file extension and fetch URLs.
    with open(path, "r", encoding="utf-8", newline="") as handle, warnings.catch_warnings():
        header = next(csv.reader(handle, delimiter=schema.delimiter), []) if schema.has_header else []
        warnings.simplefilter("ignore", UserWarning)  # no data: checked below
        out = np.loadtxt(handle, delimiter=schema.delimiter, comments=None, quotechar='"',
                         ndmin=2, converters=converters, encoding="utf-8")
    if not out.size or (header and len(header) != out.shape[1]):
        return None
    bad_rows = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad_rows.size:
        raise _nonfinite_error(path, schema, label_column, int(bad_rows[0]))
    if label_column is None:
        return out, np.empty(0, dtype=int), ()
    return np.delete(out, label_column, axis=1), out[:, label_column].astype(int), tuple(names)


def _nonfinite_error(path, schema: DataFileSchema, label_column, index):
    """The error :func:`_exact_rows` raises when data row ``index`` (0-based) is the
    first with a non-finite value; the csv records before it are only counted."""
    with open(path, "r", encoding="utf-8", newline="") as handle, _text_errors(path):
        records = enumerate(csv.reader(handle, delimiter=schema.delimiter), start=1)
        data = ((lineno, row) for lineno, row in records
                if row and not (schema.has_header and lineno == 1))
        lineno, row = next(itertools.islice(data, index, None))
    return _cell_error(path, lineno, row, label_column)


def _exact_rows(path, schema: DataFileSchema, label_column):
    """:func:`_read_rows` by csv and ``float``, naming the bad line and column."""
    rows, width, labels, names = [], None, [], {}
    with open(path, "r", encoding="utf-8", newline="") as handle, _text_errors(path):
        for lineno, row in enumerate(csv.reader(handle, delimiter=schema.delimiter), start=1):
            if not row:
                continue
            if width is None:
                width = len(row)
                if schema.has_header and lineno == 1:
                    continue
            elif len(row) != width:
                raise RaggedRows(f"{path}: row {lineno} has {len(row)} fields, expected {width}")
            cells = row
            if label_column is not None:
                if not 0 <= label_column < len(row):
                    raise ParseError(f"{path}: row {lineno} has no label column {label_column}")
                labels.append(names.setdefault(row[label_column].strip(), len(names) + 1))
                cells = row[:label_column] + row[label_column + 1 :]
            try:  # one float64 array per row: 8 bytes a cell, not a Python float's 32
                rows.append(np.array(cells, dtype=float))
            except ValueError:
                raise _cell_error(path, lineno, row, label_column) from None
            if not np.isfinite(rows[-1]).all():
                raise _cell_error(path, lineno, row, label_column)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows), np.asarray(labels, dtype=int), tuple(names)


def load_dataset(path, schema: DataFileSchema | None = None) -> LabeledDataset:
    """Read a delimited file into a dataset.

    The label column may hold arbitrary text; labels are mapped to
    1, 2, ... in first-seen order and the mapping is kept on the dataset
    as ``label_names``. Rows of differing length and non-finite feature
    values are rejected with the offending row named.
    """
    schema = schema or DataFileSchema()
    return LabeledDataset(*_read_rows(path, schema, schema.label_column))


def load_features(path, schema: DataFileSchema | None = None) -> np.ndarray:
    """Read a features-only delimited file (no label column) as an (n, p)
    float64 array, under the same rules and errors as :func:`load_dataset`;
    ``schema.label_column`` is ignored."""
    return _read_rows(path, schema or DataFileSchema(), None)[0]


def save_dataset(path, dataset: LabeledDataset, schema: DataFileSchema | None = None,
                 indices=None):
    """Write a dataset in the layout :func:`load_dataset` reads, labels quoted where
    csv needs it; with ``schema.has_header`` line 1 is ``label``, ``x0``, ``x1``, ....
    ``indices``, a (path, kept indices) pair, adds the :func:`save_indices` map
    of a screened dataset: both files are written or neither.

    Raises ValueError, writing nothing, when ``schema.label_column`` does not
    lie in 0..p, so the label could not be read back at that column.
    """
    schema = schema or DataFileSchema()
    if not 0 <= schema.label_column <= dataset.p:
        raise ValueError(f"label column {schema.label_column} does not fit a file of "
                         f"{dataset.p} kept features; it must lie in 0..{dataset.p}")
    header = [f"x{j}" for j in range(dataset.p)]
    header.insert(schema.label_column, "label")
    rows = []
    for row, label in zip(dataset.features, dataset.labels):
        text = dataset.label_names[label - 1] if dataset.label_names else str(int(label))
        if "\r" in text:
            raise DataError(f"{path}: label {text!r}: a carriage return would not read back")
        rows.append([fmt_float(v) for v in row])
        rows[-1].insert(schema.label_column, text)
    outputs = [(path, _csv_text(header if schema.has_header else None, rows, schema.delimiter))]
    if indices is not None:
        outputs.append((indices[0], _indices_text(indices[1])))
    _atomic_write(*outputs)


def _json_value(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def save_model(path, model: LpdModel):
    """Persist a fitted model as line-oriented JSON.

    save -> load -> save is byte-identical: floats are emitted with 17
    significant digits and provenance keys are sorted.
    """
    fields = [
        ("schema_version", MODEL_SCHEMA_VERSION),
        ("p", model.p),
        ("beta", model.beta),
        ("mu_hat", model.mu_hat),
        ("threshold", float(model.threshold)),
        ("lambda", float(model.lam)),
        ("ridge_rho", float(model.ridge_rho)),
        ("kept_indices", model.kept_indices),
        ("provenance", model.metadata or {}),
    ]
    lines = ["{"]
    for i, (key, value) in enumerate(fields):
        comma = "," if i < len(fields) - 1 else ""
        lines.append(f'  "{key}": {_json_value(value)}{comma}')
    lines.append("}")
    _atomic_write((path, "\n".join(lines) + "\n"))


def load_model(path) -> LpdModel:
    """Read a model file; unknown schema versions are rejected explicitly."""
    with open(path, "r", encoding="utf-8") as handle, _text_errors(path):
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid model JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: model file must hold a JSON object")
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{path}: schema_version {version!r}; this build reads version {MODEL_SCHEMA_VERSION}"
        )
    try:
        model = LpdModel(
            beta=doc["beta"],
            mu_hat=doc["mu_hat"],
            threshold=float(doc["threshold"]),
            lam=float(doc["lambda"]),
            ridge_rho=float(doc["ridge_rho"]),
            kept_indices=doc.get("kept_indices"),
            metadata=dict(doc.get("provenance") or {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model payload: {exc}") from exc
    if int(doc.get("p", model.p)) != model.p:
        raise ParseError(f"{path}: declared p={doc.get('p')} but beta has length {model.p}")
    return model


def _csv_text(header, rows, delimiter=","):
    """A header row (none if None) and rows as CSV text, for every CSV this module writes."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def save_report(path, report):
    """Write an EvalReport as (section, name, mean, sd) CSV rows."""
    rows = [
        (section, name, fmt_float(mean), fmt_float(sd))
        for section, name, mean, sd in report.to_rows()
    ]
    _atomic_write((path, _csv_text(REPORT_HEADER, rows)))


def save_predictions(path, classes, scores):
    """Write per-sample predictions: index, class id, raw decision score."""
    rows = [
        (i, int(c), fmt_float(s))
        for i, (c, s) in enumerate(zip(np.atleast_1d(classes), np.atleast_1d(scores)))
    ]
    _atomic_write((path, _csv_text(("sample_index", "predicted_class", "score"), rows)))


def save_cv_table(path_or_none, result):
    """CV counts as CSV text; writes when a path is given, always returns the text."""
    rows = []
    for j, (lam, count) in enumerate(zip(result.lambda_grid, result.correct_counts)):
        eligible = "no" if j in result.failures else "yes"
        chosen = "yes" if float(lam) == result.chosen_lambda else "no"
        rows.append((fmt_float(lam), int(count), eligible, chosen))
    text = _csv_text(("lambda", "correct", "eligible", "chosen"), rows)
    if path_or_none is not None:
        _atomic_write((path_or_none, text))
    return text


def save_indices(path, kept_indices):
    """Map of screened column -> original column, as CSV."""
    _atomic_write((path, _indices_text(kept_indices)))


def _indices_text(kept_indices):
    rows = [(new, int(orig)) for new, orig in enumerate(kept_indices)]
    return _csv_text(("column", "original_column"), rows)


def load_indices(path) -> np.ndarray:
    """Read an index map written by :func:`save_indices`; returns the
    original-column ids in screened-column order, which must be >= 0 and
    strictly increasing."""
    pairs = []
    with open(path, "r", encoding="utf-8", newline="") as handle, _text_errors(path):
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                continue
            try:
                pairs.append((int(row[0]), int(row[1])))
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path}: row {lineno}: bad index pair {row!r}") from exc
    if not pairs:
        raise ParseError(f"{path}: no index rows")
    if [new for new, _ in pairs] != list(range(len(pairs))):
        raise ParseError(f"{path}: screened columns must be 0..{len(pairs) - 1} in order")
    original = np.asarray([orig for _, orig in pairs], dtype=int)
    bad = np.flatnonzero(np.diff(original, prepend=-1) <= 0)
    if bad.size:
        raise ParseError(f"{path}: row {bad[0] + 2}: original columns must be >= 0 and increasing")
    return original
