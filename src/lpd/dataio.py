"""File formats: CSV datasets, JSON model files, CSV reports.

All writers are deterministic (floats serialized with 17 significant
digits, fixed key/column order) and atomic: content is written to a
temporary file and renamed into place, so failures never leave partial
output.

Datasets are read by np.loadtxt. A file it does not take, or one that holds
a non-finite value, is read again by the csv module and ``float``, which
names the first fault, so every bad file is named one way. A plain
file (no quote character) of at least two :data:`PIECE_BYTES` is cut at
line ends into pieces, parsed on forked worker processes
(:func:`lpd.parallel.map_tasks`) in line-aligned chunks of about
:data:`CHUNK_BYTES`. The calling process finds the cuts in one scan of the
file, a block of at most 64 KB at a time. :func:`load_dataset` writes each
chunk's rows into its piece's slot of one shared array, and parses a file
of one piece whole. :func:`score_rows`, which ``lpd predict`` uses, reads
any plain file in chunks, scores each chunk's rows and lets them go, so no
process holds the rows it scores. A CSV file is written a block of about
:data:`_WRITE_CELLS` cells at a time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import classifier
from .classifier import LpdModel
from .errors import (DataError, DimensionMismatch, NonFiniteValue, ParseError, RaggedRows,
                     SchemaVersionMismatch)
from .linalg import row_blocks
from .parallel import map_tasks
from .stats import LabeledDataset

MODEL_SCHEMA_VERSION = 1
# A plain file is split only into pieces of at least this size, chosen when a
# worker pool's start-up and shutdown cost about 45 ms: np.loadtxt reads about
# 30 ms a MB (2 vCPUs), and a 4 MB file took 0.12 s either way, an 8 MB file
# 0.25 s whole and 0.19 s in two pieces. Forking two workers now costs about
# 5 ms (README), so smaller pieces might pay; the size has not been re-tuned.
PIECE_BYTES = 4 << 20
# A piece is parsed in line-aligned chunks of about this size, so that a
# worker holds a chunk's text and rows, not its piece's.
CHUNK_BYTES = 1 << 20
# :func:`_plan` scans a file in blocks of at most this size (or CHUNK_BYTES, if
# smaller): it keeps only a count and a few flags from each block.
_SCAN_BYTES = 1 << 16
REPORT_HEADER = ("section", "name", "mean", "sd")
_LONE_CR = re.compile(rb"\r(?!\n)")
# Cells of a CSV file formatted at a time: about 300 kB of Python strings.
_WRITE_CELLS = 1 << 12


@dataclass
class DataFileSchema:
    """Layout of a delimited dataset file."""

    delimiter: str = ","
    label_column: int = 0
    has_header: bool = False

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")
        if self.delimiter in '"\n\r':
            raise ValueError(f"delimiter cannot be a quote or a line end, got {self.delimiter!r}")


def fmt_float(x) -> str:
    """17-significant-digit decimal form; lossless for binary64 round trips."""
    return "%.17g" % float(x)


def _atomic_write(*outputs):
    """Write each (path, text) pair to a temporary file, then rename them all into place.
    A text is a string, or an iterable of strings written one after another.

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
                    handle.writelines([text] if isinstance(text, str) else text)
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


def _read_rows(path, schema: DataFileSchema, label_column, max_workers=1):
    """Parse a delimited dataset file into (features, label ids, label names).

    Blank lines are skipped; with ``schema.has_header`` line 1 is the
    header. The first row, header included, fixes the width. The label
    column's stripped text maps to ids 1, 2, ... in first-seen order. A file
    np.loadtxt does not take, or that holds a non-finite value, goes to
    :func:`_exact_rows`: it names the error or reads what only ``float``
    accepts (``1_0``), rounding alike. A large plain file is parsed in pieces
    on up to ``max_workers`` forked workers (:func:`_loadtxt_rows`).
    """
    rows = None
    with contextlib.suppress(ValueError, csv.Error):
        rows = _loadtxt_rows(path, schema, label_column, max_workers)
    return rows or _exact_rows(path, schema, label_column)


@dataclass
class _Plan:
    """How np.loadtxt reads a file: piece k is bytes ``cuts[k]:cuts[k + 1]``. With
    ``width``, the field count of the file's first nonblank line, every record is
    a line, piece k holds at most ``lines[k]`` rows and is parsed in line-aligned
    chunks; without it the file is one piece, parsed whole."""

    path: str
    schema: DataFileSchema
    label_column: int | None
    cuts: list
    lines: list
    width: int | None


def _plan(path, schema: DataFileSchema, label_column, max_workers=1):
    """The :class:`_Plan` of a file, or None where the exact reader must decide (a
    negative label column, or a byte numpy strips around a number and float() does not).

    A file with no quote, NUL or lone carriage return byte, so that a record
    is a line, has a width. If it is at least two :data:`PIECE_BYTES`, it is
    cut after newlines into up to ``max_workers`` pieces.
    """
    if label_column is not None and label_column < 0:
        return None
    stripped = quoted = lone_cr = False
    with open(path, "rb") as raw:
        size = os.fstat(raw.fileno()).st_size
        pieces = max(1, min(max_workers, size // PIECE_BYTES))
        targets = [size * k // pieces for k in range(1, pieces)]
        # the pieces' first bytes, and the newlines before each
        cuts, newlines, seen, offset, chunk = [0], [0], 0, 0, b""
        for chunk in iter(lambda: raw.read(min(CHUNK_BYTES, _SCAN_BYTES)), b""):
            if chunk.endswith(b"\r"):  # a CRLF pair stays in one block
                chunk += raw.read(1)
            # numpy strips these around a number; float() does not
            stripped = stripped or any(c in chunk for c in b"\x1c\x1d\x1e\x1f")
            quoted = quoted or any(c in chunk for c in b'"\x00')
            # a record may also end at a carriage return
            lone_cr = lone_cr or (b"\r" in chunk and _LONE_CR.search(chunk) is not None)
            while targets and (at := chunk.find(b"\n", max(targets[0] - offset, 0))) >= 0:
                cuts.append(offset + at + 1)
                newlines.append(seen + chunk.count(b"\n", 0, at + 1))
                targets = [t for t in targets if t >= cuts[-1]]
            seen, offset = seen + chunk.count(b"\n"), offset + len(chunk)
        last = chunk[-1:]
        if stripped:
            return None
        width = None
        if not (quoted or lone_cr):
            raw.seek(0)
            first = next((line for line in raw if line.strip(b"\r\n")), b"")
            width = first.count(schema.delimiter.encode()) + 1
    if cuts[-1] == offset > 0:  # a cut at the end of the file
        del cuts[-1], newlines[-1]
    if width is None:
        cuts, newlines = [0], [0]
    lines = np.diff(newlines + [seen])
    lines[0] -= schema.has_header  # line 1, the header, holds no row
    lines[-1] += last != b"\n"  # an unended last line is a row too
    return _Plan(os.fspath(path), schema, label_column, cuts + [offset], lines.tolist(), width)


def _walk(plan: _Plan, index, names, check=None):
    """Yield (features, label ids) for each line-aligned chunk of about
    :data:`CHUNK_BYTES` of piece ``index``, or for the whole piece without
    ``plan.width``, each parsed by one np.loadtxt call.

    ``check``, if given, is called with each chunk's feature count before any
    of its values is looked at. Then, row block by row block, the chunk's rows
    are checked for non-finite values, their label column is read and dropped,
    and the rest moves forward to follow the rows before. So the features are
    the front of the parsed array's own buffer, C-contiguous, and the ids, one
    array per block, number ``names``, the piece's label texts in first-seen
    order, from 1. Raises ValueError where np.loadtxt rejects a chunk, a
    chunk's rows are not as wide as the file's first row, or a block holds a
    non-finite value: then the exact reader names the fault.
    """
    label_column, delimiter = plan.label_column, plan.schema.delimiter
    # Not `usecols`: it accepts a row with an extra field.
    converters = {} if label_column is None else {
        label_column: lambda text: names.setdefault(text.strip(), len(names) + 1)}
    at, stop = plan.cuts[index], plan.cuts[index + 1]
    # numpy reads the lines of an open file as csv does; given a path it
    # would decompress by file extension and fetch URLs.
    with open(plan.path, "rb") as raw, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a chunk of blank lines holds no row
        raw.seek(at)
        while at < stop:
            header_next = plan.schema.has_header and at == 0
            if plan.width is None:
                source, at = raw, stop
            else:  # a chunk read whole, so that numpy stops at its end
                data = raw.read(min(CHUNK_BYTES, stop - at))
                if data[-1:] != b"\n":  # a piece ends at a line end or the file's end
                    data += raw.readline()
                source, at, data = io.BytesIO(data), at + len(data), None
            # A text handle on bytes parses faster than a StringIO of their text.
            handle = io.TextIOWrapper(source, encoding="utf-8", newline="")
            header = next(csv.reader(handle, delimiter=delimiter), []) if header_next else []
            rows = np.loadtxt(handle, delimiter=delimiter, comments=None, quotechar='"',
                              ndmin=2, converters=converters, encoding="utf-8")
            handle.close()  # lets go of the chunk's text before its rows are used
            if not len(rows):
                continue
            width = plan.width or len(header) or rows.shape[1]
            if rows.shape[1] != width:
                raise ValueError(f"rows of {rows.shape[1]} fields in a file of {width}")
            p = width - (label_column is not None)
            if check is not None:
                check(p)
            features = (rows if p == width
                        else rows.reshape(-1)[:len(rows) * p].reshape(len(rows), p))
            ids = []
            for first, end in row_blocks(len(rows), width):
                block = rows[first:end]
                if not np.isfinite(block).all():
                    raise ValueError("a non-finite value")
                if label_column is not None:
                    ids.append(block[:, label_column].astype(int))
                    block = np.delete(block, label_column, axis=1)
                # Never past this block's own rows. numpy copies a block that overlaps
                # its target through a temporary, and skips one that is its target.
                features[first:end] = block
            yield features, ids


class _Piece(NamedTuple):
    """What a piece's task returns: its row count, its label names in first-seen
    order and their ids per row, the rows it hands back rather than putting them
    in its slot or scoring them, and the scores of the rest, one array per
    product."""

    count: int
    names: tuple = ()
    ids: np.ndarray | None = None
    held: np.ndarray | None = None
    scores: tuple = ()


def _slots(plan: _Plan, width):
    """A shared buffer of a slot of ``plan.lines[k]`` rows of ``width`` floats for each
    piece k: (buffer, first row of each slot, width). Pages no row reaches cost nothing."""
    import mmap

    starts = np.concatenate([[0], np.cumsum(plan.lines)]).tolist()
    return mmap.mmap(-1, max(starts[-1] * width * 8, 1)), starts, width


def _slot(slots, index, rows):
    """Rows ``rows`` (a slice) of piece ``index``'s slot; ValueError past its end."""
    buffer, starts, width = slots
    grid = np.ndarray((starts[-1], width), dtype=float, buffer=buffer)
    slot = grid[starts[index]:starts[index + 1]]
    if rows.stop > len(slot):
        raise ValueError(f"piece {index} has more rows than its {len(slot)} lines")
    return slot[rows]


def _stitch(slots, pieces, rows):
    """The ``rows`` rows of the pieces in file order, C-contiguous: the front of the
    slots' buffer, where each piece's rows move forward, row block by row block, to
    follow the rows before. Without slots, the only piece's own rows."""
    if slots is None:
        return pieces[0].held
    buffer, starts, width = slots
    grid = np.ndarray((starts[-1], width), dtype=float, buffer=buffer)
    row = 0
    for start, piece in zip(starts, pieces):
        for first, stop in row_blocks(piece.count, width):
            grid[row + first:row + stop] = grid[start + first:start + stop]
        row += piece.count
    return grid[:rows]


def _loadtxt_rows(path, schema: DataFileSchema, label_column, max_workers=1):
    """:func:`_read_rows` by numpy's C parser, or None where the exact reader must decide.

    Each piece of the file's :func:`_plan` is one :func:`_load_piece` task on
    :func:`lpd.parallel.map_tasks`. Its lines bound its rows, so each task
    writes its rows, chunk by chunk, into its own slot of one shared array.
    A file of one piece, or one whose slots would outgrow it (a slot row per
    blank line), is parsed whole into its own array, as one chunk. A piece's
    label ids number its names from 1, and are renumbered in piece order,
    which keeps first-seen order.
    """
    plan = _plan(path, schema, label_column, max_workers)
    if plan is None:
        return None
    slots = None
    if len(plan.lines) > 1 and sum(plan.lines) * plan.width <= plan.cuts[-1]:
        slots = _slots(plan, plan.width - (label_column is not None))
    else:
        plan = replace(plan, cuts=[0, plan.cuts[-1]], lines=[sum(plan.lines)], width=None)
    pieces = map_tasks(_load_piece, (plan, slots), len(plan.lines), max_workers)
    rows = sum(piece.count for piece in pieces)
    if not rows:
        return None
    features = _stitch(slots, pieces, rows)
    if label_column is None:
        return features, np.empty(0, dtype=int), ()
    names: dict[str, int] = {}
    labels = []
    for piece in pieces:
        if piece.count:
            ids = np.array([0] + [names.setdefault(name, len(names) + 1) for name in piece.names])
            labels.append(ids[piece.ids])
    return features, np.concatenate(labels), tuple(names)


def _load_piece(plan: _Plan, slots, index):
    """Piece ``index`` read by :func:`_walk` into its slot of ``slots`` (a (buffer,
    first row of each slot, width) triple), or without slots into its own rows."""
    names: dict[str, int] = {}
    count, ids, rows = 0, [], None
    for features, chunk_ids in _walk(plan, index, names):
        if slots is None:
            rows = features
        else:
            _slot(slots, index, slice(count, count + len(features)))[:] = features
        count += len(features)
        ids += chunk_ids
    return _Piece(count, tuple(names), np.concatenate(ids) if ids else None, held=rows)


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


def load_dataset(path, schema: DataFileSchema | None = None, max_workers=1) -> LabeledDataset:
    """Read a delimited file into a dataset.

    The label column may hold arbitrary text; labels are mapped to
    1, 2, ... in first-seen order and the mapping is kept on the dataset
    as ``label_names``. Rows of differing length and non-finite feature
    values are rejected with the offending row named. A plain file (no
    quote character) of at least two :data:`PIECE_BYTES` is parsed in pieces
    on up to ``max_workers`` forked worker processes; the result does not
    depend on ``max_workers``.
    """
    schema = schema or DataFileSchema()
    return LabeledDataset(*_read_rows(path, schema, schema.label_column, max_workers))


def score_rows(path, model: LpdModel, schema: DataFileSchema | None = None, label_column=None,
               max_workers=1) -> np.ndarray:
    """:func:`~lpd.classifier.decision_scores` of ``model`` for the rows of a
    delimited file, with no process holding those rows.

    The rows are those :func:`_read_rows` reads from a features-only file, or
    with ``label_column`` the features of :func:`load_dataset`, under the same
    rules, errors and ``max_workers``. Each piece of the file's :func:`_plan` is one
    :func:`_score_piece` task on :func:`lpd.parallel.map_tasks`, which scores
    its chunks, lets them go and returns their scores. A file np.loadtxt does
    not take, or that holds a non-finite value, is read whole by
    :func:`_exact_rows`, which names the fault. Rows whose width does not fit
    ``model`` raise DataError naming the file: in a file np.loadtxt reads, at
    the first chunk, before any of its values is checked, so that the error
    does not depend on ``max_workers``; in any other file after the exact read.

    The scores are those of ``decision_scores`` on the whole batch, byte for
    byte, at one BLAS thread. There OpenBLAS rounds a row alike in any full
    group of 4 rows of a product, and a product's last n mod 4 rows alike for
    any n >= 2. So each product in a piece scores whole groups of 4, and the
    rows the pieces hold back are scored here in one product, which ends with
    the file's last rows: a piece of several holds its last 4 to 7 rows, the
    only piece its last chunk (so a file of one chunk is one product).
    """
    schema = schema or DataFileSchema()
    scores = None
    with contextlib.suppress(ValueError, csv.Error):
        scores = _loadtxt_scores(path, schema, label_column, model, max_workers)
    if scores is None:
        features = _exact_rows(path, schema, label_column)[0]
        _check_width(path, model, features.shape[1])
        scores = classifier.decision_scores(model, features)
    return scores


def _check_width(path, model: LpdModel, width):
    """DataError naming ``path`` when rows of ``width`` features do not fit ``model``."""
    try:
        model.columns(width)
    except DimensionMismatch as exc:
        raise DataError(f"{path}: {exc}") from None


def _loadtxt_scores(path, schema: DataFileSchema, label_column, model, max_workers):
    """:func:`score_rows` by numpy's C parser, or None where the exact reader must decide."""
    plan = _plan(path, schema, label_column, max_workers)
    if plan is None:
        return None
    pieces = map_tasks(_score_piece, (plan, model), len(plan.lines), max_workers)
    pieces = [piece for piece in pieces if piece.count]
    if not pieces:
        return None
    tails = classifier.decision_scores(model, np.concatenate([piece.held for piece in pieces]))
    parts = []
    for piece in pieces:  # a piece's scores, then those of the rows it held back
        parts += [*piece.scores, tails[:len(piece.held)]]
        tails = tails[len(piece.held):]
    return np.concatenate(parts)


def _score_piece(plan: _Plan, model, index):
    """Piece ``index`` read by :func:`_walk` and scored, but for the rows it holds back.

    Each chunk's rows, after those held back from the chunk before, are scored
    but for the last 4 to 7 of them (all of them, if fewer than 8), so that a
    product scores whole groups of 4 rows. The only piece of a file holds its
    last chunk back whole.
    """
    scores, held = [], None
    for features, _ in _walk(plan, index, {}, lambda p: _check_width(plan.path, model, p)):
        if held is not None:
            features = np.concatenate([_score_groups(model, held, scores), features])
        held = features
    if held is None:
        return _Piece(0)
    if len(plan.lines) > 1:
        held = _score_groups(model, held, scores).copy()  # not a view of the chunk's rows
    return _Piece(sum(map(len, scores)) + len(held), held=held, scores=tuple(scores))


def _score_groups(model, rows, scores):
    """Append the scores of all but the last 4 to 7 of ``rows`` (of none, if fewer
    than 8) to ``scores``; return the rows left."""
    cut = max(len(rows) - len(rows) % 4 - 4, 0)
    if cut:
        scores.append(classifier.decision_scores(model, rows[:cut]))
    return rows[cut:]


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

    def rows(start, stop):
        for row, label in zip(dataset.features[start:stop], dataset.labels[start:stop]):
            text = dataset.label_names[label - 1] if dataset.label_names else str(int(label))
            if "\r" in text:
                raise DataError(f"{path}: label {text!r}: a carriage return would not read back")
            cells = [fmt_float(v) for v in row]
            cells.insert(schema.label_column, text)
            yield cells

    outputs = [(path, _csv_texts(header if schema.has_header else None, rows, dataset.n,
                                 dataset.p + 1, schema.delimiter))]
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
    declared = doc.get("p")
    if isinstance(declared, bool) or not isinstance(declared, int) or declared != model.p:
        raise ParseError(f"{path}: declared p={declared!r} but beta has length {model.p}")
    return model


def _csv_text(header, rows, delimiter=","):
    """A header row (none if None) and rows as CSV text, for every CSV this module writes."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _csv_texts(header, rows, n, width, delimiter=","):
    """:func:`_csv_text` of a header and ``rows(start, stop)`` for rows 0..n-1 of
    ``width`` cells, made a block of about :data:`_WRITE_CELLS` cells at a time, so
    that a large file's text and cells are never all in memory."""
    yield _csv_text(header, (), delimiter)
    step = max(1, _WRITE_CELLS // width)
    for start in range(0, n, step):
        yield _csv_text(None, rows(start, min(start + step, n)), delimiter)


def save_report(path, report):
    """Write an EvalReport as (section, name, mean, sd) CSV rows."""
    rows = [
        (section, name, fmt_float(mean), fmt_float(sd))
        for section, name, mean, sd in report.to_rows()
    ]
    _atomic_write((path, _csv_text(REPORT_HEADER, rows)))


def save_predictions(path, classes, scores):
    """Write per-sample predictions: index, class id, raw decision score."""
    classes, scores = np.atleast_1d(classes), np.atleast_1d(scores)

    def rows(start, stop):
        return zip(range(start, stop), classes[start:stop].tolist(),
                   map(fmt_float, scores[start:stop]))

    header = ("sample_index", "predicted_class", "score")
    _atomic_write((path, _csv_texts(header, rows, len(scores), len(header))))


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
