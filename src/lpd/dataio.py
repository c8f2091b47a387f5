"""File formats: CSV datasets, JSON model files, CSV reports.

All writers are deterministic (floats serialized with 17 significant
digits, fixed key/column order) and atomic: content is written to a
temporary file and renamed into place, so failures never leave partial
output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .classifier import LpdModel
from .errors import NonFiniteValue, ParseError, RaggedRows, SchemaVersionMismatch
from .stats import LabeledDataset

MODEL_SCHEMA_VERSION = 1
REPORT_HEADER = ("section", "name", "mean", "sd")


@dataclass
class DataFileSchema:
    """Layout of a delimited dataset file."""

    delimiter: str = ","
    label_column: int = 0
    has_header: bool = False


def fmt_float(x) -> str:
    """17-significant-digit decimal form; lossless for binary64 round trips."""
    return "%.17g" % float(x)


def _atomic_write(path, text):
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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


def _read_rows(path, schema: DataFileSchema, label_column):
    """Parse a delimited dataset file into a float64 feature matrix.

    Blank lines are skipped; with ``schema.has_header`` line 1 is the
    header. The first row, header included, fixes the width. When
    ``label_column`` is not None that column is taken out of every row and
    its stripped text returned in file order. Errors name the file line
    and the original column. Rows go straight into one matrix sized by the
    line count and shrunk in place, so no per-row buffers are left to free.
    """
    with open(path, "rb") as raw:  # line terminators + 1 bound the records
        chunks = iter(lambda: raw.read(1 << 20), b"")
        bound = 1 + sum(c.count(b"\n") + c.count(b"\r") for c in chunks)
    out, n, width, labels = None, 0, None, []
    with open(path, "r", encoding="utf-8", newline="") as handle:
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
                labels.append(row[label_column].strip())
                cells = row[:label_column] + row[label_column + 1 :]
            if out is None:
                out = np.empty((bound, len(cells)))
            try:
                out[n] = cells
            except ValueError:
                raise _cell_error(path, lineno, row, label_column) from None
            if not np.isfinite(out[n]).all():
                raise _cell_error(path, lineno, row, label_column)
            n += 1
    if not n:
        raise ParseError(f"{path}: no data rows")
    out.resize((n, out.shape[1]), refcheck=False)
    return out, labels


def load_dataset(path, schema: DataFileSchema | None = None) -> LabeledDataset:
    """Read a delimited file into a dataset.

    The label column may hold arbitrary text; labels are mapped to
    1, 2, ... in first-seen order and the mapping is kept on the dataset
    as ``label_names``. Rows of differing length and non-finite feature
    values are rejected with the offending row named.
    """
    schema = schema or DataFileSchema()
    features, raw_labels = _read_rows(path, schema, schema.label_column)
    label_ids: dict[str, int] = {}
    labels = [label_ids.setdefault(raw, len(label_ids) + 1) for raw in raw_labels]
    return LabeledDataset(features, np.asarray(labels), tuple(label_ids))


def load_features(path, schema: DataFileSchema | None = None) -> np.ndarray:
    """Read a features-only delimited file (no label column) as an (n, p)
    float64 array, under the same rules and errors as :func:`load_dataset`;
    ``schema.label_column`` is ignored."""
    features, _ = _read_rows(path, schema or DataFileSchema(), None)
    return features


def save_dataset(path, dataset: LabeledDataset, schema: DataFileSchema | None = None):
    """Write a dataset in the same layout :func:`load_dataset` reads."""
    schema = schema or DataFileSchema()
    names = dataset.label_names
    out = io.StringIO()
    for row, label in zip(dataset.features, dataset.labels):
        text = names[label - 1] if names else str(int(label))
        fields = [fmt_float(v) for v in row]
        fields.insert(schema.label_column, text)
        out.write(schema.delimiter.join(fields))
        out.write("\n")
    _atomic_write(path, out.getvalue())


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
        ("kept_indices", None if model.kept_indices is None else model.kept_indices),
        ("provenance", model.metadata or {}),
    ]
    lines = ["{"]
    for i, (key, value) in enumerate(fields):
        comma = "," if i < len(fields) - 1 else ""
        lines.append(f'  "{key}": {_json_value(value)}{comma}')
    lines.append("}")
    _atomic_write(path, "\n".join(lines) + "\n")


def load_model(path) -> LpdModel:
    """Read a model file; unknown schema versions are rejected explicitly."""
    with open(path, "r", encoding="utf-8") as handle:
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
        beta = np.asarray(doc["beta"], dtype=float)
        mu_hat = np.asarray(doc["mu_hat"], dtype=float)
        model = LpdModel(
            beta=beta,
            mu_hat=mu_hat,
            threshold=float(doc["threshold"]),
            lam=float(doc["lambda"]),
            ridge_rho=float(doc["ridge_rho"]),
            kept_indices=None if doc.get("kept_indices") is None else np.asarray(doc["kept_indices"], dtype=int),
            metadata=dict(doc.get("provenance") or {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model payload: {exc}") from exc
    if int(doc.get("p", model.p)) != model.p:
        raise ParseError(f"{path}: declared p={doc.get('p')} but beta has length {model.p}")
    return model


def _csv_text(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def save_report(path, report):
    """Write an EvalReport as (section, name, mean, sd) CSV rows."""
    rows = [
        (section, name, fmt_float(mean), fmt_float(sd))
        for section, name, mean, sd in report.to_rows()
    ]
    _atomic_write(path, _csv_text(REPORT_HEADER, rows))


def save_predictions(path, classes, scores):
    """Write per-sample predictions: index, class id, raw decision score."""
    rows = [
        (i, int(c), fmt_float(s))
        for i, (c, s) in enumerate(zip(np.atleast_1d(classes), np.atleast_1d(scores)))
    ]
    _atomic_write(path, _csv_text(("sample_index", "predicted_class", "score"), rows))


def save_cv_table(path_or_none, result):
    """CV counts as CSV text; writes when a path is given, always returns the text."""
    rows = []
    for j, (lam, count) in enumerate(zip(result.lambda_grid, result.correct_counts)):
        eligible = "no" if j in result.failures else "yes"
        chosen = "yes" if float(lam) == result.chosen_lambda else "no"
        rows.append((fmt_float(lam), int(count), eligible, chosen))
    text = _csv_text(("lambda", "correct", "eligible", "chosen"), rows)
    if path_or_none is not None:
        _atomic_write(path_or_none, text)
    return text


def save_indices(path, kept_indices):
    """Map of screened column -> original column, as CSV."""
    rows = [(new, int(orig)) for new, orig in enumerate(kept_indices)]
    _atomic_write(path, _csv_text(("column", "original_column"), rows))


def load_indices(path) -> np.ndarray:
    """Read an index map written by :func:`save_indices`; returns the
    original-column ids in screened-column order."""
    pairs = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
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
    return np.asarray([orig for _, orig in pairs], dtype=int)
