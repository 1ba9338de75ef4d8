"""Flow tables, schemas, datasets, and CSV input/output.

A flow is one network flow summary (the BoT-IoT column vocabulary:
packet/byte counts, duration, per-direction rates, proto/state tokens, and
a binary attack label). Flows are loaded from CSV against a schema that
assigns each column a role and held column by column in a FlowTable;
cleaned, encoded tables are then assembled into a dense numeric Dataset
for the learning stages.

The writers and load_csv work through files CHUNK_ROWS rows at a time, so
their memory does not grow with the file. read_dataset_csv parses a whole
file with numpy.loadtxt, in C; a file it cannot parse, or whose cells
break a rule, is read again by the line-accurate reader, which also works
CHUNK_ROWS rows at a time and names the first offending line. A csv.Error
or a byte that is not UTF-8 is a LoadError naming its line.

Files of more than CHUNK_ROWS rows use both cores through _pool.fork_map.
The writers format contiguous ranges of whole chunks side by side, each
into its own file, and append the parts in order. read_dataset_csv cuts a
body in which every record is one physical line (no '"', no lone '\r')
into ranges of whole lines, which the workers parse into one shared
array; if a range fails, the file is parsed in one call as before. Either
way the bytes written and the values read do not depend on the cut.
"""

from __future__ import annotations

import csv
import io
import json
import math
import mmap
import os
import re
import shutil
import stat
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _pool
from .errors import LoadError, SchemaError

ROLES = ("numeric", "categorical", "label", "ignore")

# Canonical column order for the named record fields.
NAMED_FIELDS = (
    "pkts", "bytes", "dur", "proto", "state",
    "spkts", "dpkts", "sbytes", "dbytes",
    "rate", "srate", "drate",
)
COUNT_FIELDS = ("pkts", "bytes", "spkts", "dpkts", "sbytes", "dbytes")
NONNEGATIVE_FIELDS = COUNT_FIELDS + ("dur", "rate", "srate", "drate")
CATEGORICAL_FIELDS = ("proto", "state")
LABEL_FIELD = "attack"

# Rows the CSV readers and writers hold at a time.
CHUNK_ROWS = 8192


def _read_json(path: str, what: str, error: type[Exception]):
    """The JSON value in the file at path. A missing file, or one that is
    not UTF-8 JSON, raises error naming path and calling the file what."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{path}: {what} not found") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise error(f"{path}: {what} is not valid JSON: {exc}") from None


def _finite(value) -> bool:
    """Whether a value read from JSON is a finite number (a bool is not)."""
    return type(value) is int or type(value) is float and math.isfinite(value)


def _write_json(path: str, payload: dict, sort_keys: bool = True) -> None:
    """payload as indented JSON with a final newline, keys sorted unless
    their order is the format's; every JSON file botsift writes goes
    through here."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


@dataclass
class Schema:
    """Maps CSV column names to roles.

    roles: explicit column -> role assignments; exactly one column must
        carry the "label" role.
    default_role: role given to columns that appear in a file but are not
        listed in `roles`.
    """

    roles: dict[str, str]
    default_role: str = "ignore"

    def __post_init__(self) -> None:
        for col, role in self.roles.items():
            if role not in ROLES:
                raise SchemaError(f"column {col!r} has unknown role {role!r}")
        if self.default_role not in ROLES or self.default_role == "label":
            raise SchemaError(f"invalid default role {self.default_role!r}")
        labels = [c for c, r in self.roles.items() if r == "label"]
        if len(labels) != 1:
            raise SchemaError(f"schema must declare exactly one label column, found {labels}")

    @property
    def label_column(self) -> str:
        return next(c for c, r in self.roles.items() if r == "label")

    def role_of(self, column: str) -> str:
        return self.roles.get(column, self.default_role)

    def feature_columns(self) -> list[str]:
        return [c for c, r in self.roles.items() if r in ("numeric", "categorical")]

    @classmethod
    def from_json(cls, path: str) -> "Schema":
        raw = _read_json(path, "schema file", SchemaError)
        if not isinstance(raw, dict) or "roles" not in raw:
            raise SchemaError(f"schema file {path} must contain a 'roles' object")
        return cls(roles=dict(raw["roles"]), default_role=raw.get("default_role", "ignore"))

    def to_json(self, path: str) -> None:
        _write_json(path, {"roles": self.roles, "default_role": self.default_role})


def default_schema() -> Schema:
    """The bundled schema for the standard flow column vocabulary."""
    text = resources.files("botsift").joinpath("schemas/flow-default.json").read_text("utf-8")
    raw = json.loads(text)
    return Schema(roles=dict(raw["roles"]), default_role=raw.get("default_role", "ignore"))


@dataclass(frozen=True)
class FlowTable:
    """Flow rows held column by column.

    columns maps each feature column to an array with one entry per row:
    float64 with NaN where a numeric value is missing, or string tokens
    (proto/state as loaded) with "" where a token is missing. Named fields
    come first, in canonical order, then other columns in the order given.
    labels holds the 0/1 attack labels and lines the physical source line
    on which each row starts; lines defaults to the lines the rows take in
    write_records_csv output when no token holds a line break (2, 3, ...).
    Arrays are frozen, so tables can share columns.

    missing_counts is filled in by cleanse: for each enforced column, how
    many input rows had no value there (a row missing several values counts
    once in each of those columns).
    """

    columns: dict[str, np.ndarray]
    labels: np.ndarray
    lines: np.ndarray | None = None
    missing_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise LoadError("labels must be a 1-d array")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise LoadError("labels must be 0 or 1")
        rows = labels.shape[0]
        if self.lines is None:
            lines = np.arange(2, rows + 2, dtype=np.int64)
        else:
            lines = np.asarray(self.lines, dtype=np.int64)
        if lines.shape != (rows,):
            raise LoadError(f"{lines.size} line numbers for {rows} rows")
        order = ([c for c in NAMED_FIELDS if c in self.columns]
                 + [c for c in self.columns if c not in NAMED_FIELDS])
        columns = {name: _as_column(name, self.columns[name], rows)
                   for name in order}
        for array in (labels, lines, *columns.values()):
            array.setflags(write=False)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "missing_counts", dict(self.missing_counts))

    def __len__(self) -> int:
        return self.labels.shape[0]

    def present(self, name: str) -> np.ndarray:
        """Mask of the rows with a value in column name (none when absent)."""
        column = self.columns.get(name)
        if column is None:
            return np.zeros(len(self), dtype=bool)
        if column.dtype.kind == "U":
            return column != ""
        return ~np.isnan(column)

    def take(self, rows: np.ndarray) -> "FlowTable":
        """The rows an index array or boolean mask selects, in that order."""
        return FlowTable({name: column[rows] for name, column in self.columns.items()},
                         self.labels[rows], self.lines[rows])


def _as_column(name: str, values, rows: int) -> np.ndarray:
    """values as a float64 or string-token column of length rows."""
    column = np.asarray(values)
    if column.dtype.kind in "biuf":
        column = column.astype(np.float64, copy=False)
    elif column.dtype.kind != "U":
        raise LoadError(f"column {name!r} must hold numbers or string tokens")
    if column.shape != (rows,):
        raise LoadError(f"column {name!r} has shape {column.shape}, expected ({rows},)")
    return column


# --------------------------------------------------------------------------
# CSV reading


def _open_csv(path: str):
    try:
        return open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise LoadError(f"input file not found: {path}")


@contextmanager
def _csv_reader(path: str):
    """A csv.reader over path whose csv.Error (such as a cell over the
    csv module's field size limit) or undecodable byte is a LoadError
    naming the physical line."""
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise LoadError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise LoadError(f"{path}:{_undecodable_line(path)}: byte "
                            f"{byte:#04x} is not UTF-8 text") from None


def _undecodable_line(path: str) -> int:
    """The physical line of the first byte in path that is not UTF-8.

    The file is split after each b"\\n", which no multi-byte UTF-8
    sequence holds, so each piece decodes on its own as in the whole file.
    """
    line = 1
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return line + len(_LINE_BREAK_BYTES.findall(raw, 0, exc.start))
            line += len(_LINE_BREAK_BYTES.findall(raw))
    return line


def _read_header(reader, path: str) -> list[str]:
    try:
        return [h.strip() for h in next(reader)]
    except StopIteration:
        raise LoadError(f"{path}: file is empty")


# A line break inside a quoted cell, as the file's line iterator splits it.
_LINE_BREAK = re.compile(r"\r\n?|\n")
_LINE_BREAK_BYTES = re.compile(rb"\r\n?|\n")


def _row_chunks(reader, path: str, width: int):
    """Yield (rows, line numbers) for up to CHUNK_ROWS data rows at a time.

    A row's line number is the physical line of the file on which its
    record starts, so a quoted cell holding a line break moves every later
    row down. Blank lines are skipped. A row whose cell count is not the
    header's ends the read with a LoadError naming its line; the rows
    before it are yielded first, so a problem on an earlier line is
    reported first.
    """
    line = reader.line_num + 1
    while True:
        rows = list(islice(reader, CHUNK_ROWS))
        if not rows:
            return
        lines = np.arange(line, line + len(rows), dtype=np.int64)
        if reader.line_num != lines[-1]:  # a record spans several lines
            breaks = [sum(len(_LINE_BREAK.findall(cell)) for cell in row)
                      for row in rows[:-1]]
            lines[1:] += np.cumsum(breaks, dtype=np.int64)
        line = reader.line_num + 1
        if not all(rows):
            keep = [i for i, row in enumerate(rows) if row]
            rows, lines = [rows[i] for i in keep], lines[keep]
        widths = np.fromiter(map(len, rows), np.int64, len(rows))
        ragged = np.flatnonzero(widths != width)
        if ragged.size:
            first = ragged[0]
            if first:
                yield rows[:first], lines[:first]
            raise LoadError(f"{path}:{lines[first]}: row has {widths[first]} "
                            f"cells, header has {width}")
        if rows:
            yield rows, lines


def _raise_first(path: str, lines: np.ndarray,
                 checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    """Raise LoadError for the earliest row any check flags.

    checks pairs a mask of failing rows with the message for a row, in the
    order the checks apply within one row.
    """
    first = None
    for failing, describe in checks:
        hits = np.flatnonzero(failing)
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), describe)
    if first is not None:
        row, describe = first
        raise LoadError(f"{path}:{lines[row]}: {describe(row)}")


_FLAG_VALUES = {"0": 0, "1": 1}


def _parse_flags(cells: Iterable[str], count: int) -> np.ndarray:
    """0/1 cells (surrounding blanks ignored) as int64; -1 marks any other."""
    return np.fromiter(map(_FLAG_VALUES.get, map(str.strip, cells), repeat(-1)),
                       np.int64, count)


def _float_or_none(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _is_finite(cell: str) -> bool:
    value = _float_or_none(cell)
    return value is not None and math.isfinite(value)


def _parse_numeric(cells: Sequence[str]) -> np.ndarray:
    """Cells as float64; empty, unparseable or non-finite cells are NaN."""
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        values = np.array([_float_or_none(c) for c in cells], dtype=np.float64)
    values[~np.isfinite(values)] = np.nan
    return values


def load_csv(path: str, schema: Schema | None = None) -> FlowTable:
    """Load a flow CSV into a FlowTable.

    Columns are interpreted per the schema role map (bundled default when
    schema is None); columns whose role is "ignore" are not kept. Missing
    or unparseable numeric cells become NaN and are left for cleansing.
    Every row must have as many cells as the header, its label must be 0
    or 1, and its count, duration and rate fields must not be negative; the
    first line breaking a rule is named in the LoadError. Row order is
    preserved.
    """
    if schema is None:
        schema = default_schema()
    with _csv_reader(path) as reader:
        header = _read_header(reader, path)
        label = schema.label_column
        if label not in header:
            raise LoadError(
                f"{path}: header has no column {label!r} "
                f"(declared label column)")
        kept = [(j, name, schema.role_of(name)) for j, name in enumerate(header)
                if schema.role_of(name) in ("numeric", "categorical")]
        names = [name for _, name, _ in kept] + [label]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise LoadError(f"{path}: header repeats column {repeated[0]!r}")
        label_idx = header.index(label)

        parts: dict[str, list[np.ndarray]] = {name: [] for _, name, _ in kept}
        label_parts: list[np.ndarray] = []
        line_parts: list[np.ndarray] = []
        for rows, lines in _row_chunks(reader, path, len(header)):
            cells = list(zip(*rows))
            labels = _parse_flags(cells[label_idx], len(rows))
            checks = [(labels < 0, lambda i: (
                f"label column {label!r} has value {cells[label_idx][i]!r}, "
                f"expected 0 or 1"))]
            chunk: dict[str, np.ndarray] = {}
            for j, name, role in kept:
                if role == "categorical":
                    chunk[name] = np.array(list(map(str.strip, cells[j])), dtype=str)
                else:
                    chunk[name] = _parse_numeric(cells[j])
            for name in NONNEGATIVE_FIELDS:
                if name in chunk:
                    values = chunk[name]
                    checks.append((values < 0, lambda i, name=name, values=values: (
                        f"field {name!r} is negative ({float(values[i])!r})")))
            _raise_first(path, lines, checks)
            for name, values in chunk.items():
                parts[name].append(values)
            label_parts.append(labels)
            line_parts.append(lines)
    columns = {name: _concat(parts[name], np.float64 if role == "numeric" else str)
               for _, name, role in kept}
    return FlowTable(columns, _concat(label_parts, np.int64),
                     _concat(line_parts, np.int64))


def _concat(chunks: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.array([], dtype=dtype)


@dataclass(frozen=True)
class ClassSummary:
    """Per-class row counts and per-feature means.

    counts is (normal_count, botnet_count). means maps a class label that
    has at least one row to {feature: mean over rows where the value is
    present and numeric}; a class with no rows is absent from the map.
    """

    counts: tuple[int, int]
    means: dict[int, dict[str, float]]

    @property
    def total(self) -> int:
        return self.counts[0] + self.counts[1]


def class_summary(flows: FlowTable) -> ClassSummary:
    counts = np.bincount(flows.labels, minlength=2)
    means: dict[int, dict[str, float]] = {}
    for label in (0, 1):
        if not counts[label]:
            continue
        in_class = flows.labels == label
        means[label] = {}
        for name, column in flows.columns.items():
            if column.dtype.kind != "f":  # tokens have no mean
                continue
            values = column[in_class & ~np.isnan(column)]
            if values.size:
                # a running total in row order, not numpy's pairwise sum,
                # so the mean does not depend on the summation tree; adding
                # 0.0 makes an all-zero total +0.0, as a total started at 0.0
                total = np.add.accumulate(values)[-1] + 0.0
                means[label][name] = float(total) / values.size
    return ClassSummary(counts=(int(counts[0]), int(counts[1])), means=means)


@dataclass(frozen=True)
class Dataset:
    """Dense numeric design matrix with binary labels.

    Rows align between features and labels. Arrays are frozen after
    construction so a Dataset can be shared across threads safely.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise LoadError("features must be a 2-d array")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise LoadError(
                f"labels length {labels.shape} does not match {feats.shape[0]} rows")
        if len(self.feature_names) != feats.shape[1]:
            raise LoadError(
                f"{len(self.feature_names)} feature names for {feats.shape[1]} columns")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise LoadError("feature names must be unique")
        if feats.size and not np.isfinite(feats).all():
            raise LoadError("features contain NaN or infinite values; cleanse first")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise LoadError("labels must be 0 or 1")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def class_counts(self) -> tuple[int, int]:
        """(normal_count, botnet_count)."""
        botnet = int(np.count_nonzero(self.labels))
        return (self.n_rows - botnet, botnet)

    def take(self, indices: np.ndarray) -> "Dataset":
        """The rows an index array or boolean mask selects, in that order.

        A row subset of a valid Dataset is valid, so the checks of
        __post_init__ (finite features, 0/1 labels) are not run again.
        """
        subset = object.__new__(Dataset)
        for name, array in (("features", np.ascontiguousarray(self.features[indices])),
                            ("labels", self.labels[indices])):
            array.setflags(write=False)
            object.__setattr__(subset, name, array)
        object.__setattr__(subset, "feature_names", self.feature_names)
        return subset

    def with_columns(self, names: Sequence[str]) -> "Dataset":
        index = {n: i for i, n in enumerate(self.feature_names)}
        missing = [n for n in names if n not in index]
        if missing:
            raise LoadError(f"unknown feature columns: {missing}")
        cols = [index[n] for n in names]
        return Dataset(self.features[:, cols], self.labels, tuple(names))


def to_dataset(flows: FlowTable,
               features: Sequence[str] | None = None) -> Dataset:
    """Assemble a cleansed, encoded flow table into a Dataset.

    With features=None every numeric column with a value in every row is
    used, in table order. Token columns (proto/state before encoding) are
    skipped; encode first to include them.
    """
    if not len(flows):
        raise LoadError("cannot build a dataset from zero rows")
    if features is None:
        features = [name for name, column in flows.columns.items()
                    if column.dtype.kind == "f" and not np.isnan(column).any()]
    else:
        for name in features:
            column = flows.columns.get(name)
            if column is not None and column.dtype.kind == "f":
                bad = np.flatnonzero(np.isnan(column))
            else:
                bad = np.arange(len(flows))
            if bad.size:
                raise LoadError(
                    f"feature {name!r} is missing or non-numeric in "
                    f"{bad.size} rows (first at line {flows.lines[bad[0]]})")
    if not features:
        raise LoadError("no fully-populated numeric feature columns found")
    matrix = np.column_stack([flows.columns[name] for name in features])
    return Dataset(matrix, flows.labels, tuple(features))


# --------------------------------------------------------------------------
# CSV writing


# A cell holding one of these characters is quoted, as csv.writer quotes
# under its default dialect (QUOTE_MINIMAL, "\r\n" line ends).
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote(token: str) -> str:
    if _NEEDS_QUOTES.search(token):
        return '"' + token.replace('"', '""') + '"'
    return token


def _format_column(values: np.ndarray) -> list[str]:
    """CSV cells for one column.

    Tokens are written as they are, quoted where csv.writer would quote
    them. A float that is a whole number below 1e16 in magnitude is
    written as an integer, any other float by repr (the shortest string
    that reads back to the same value), and NaN, a missing value, as an
    empty cell.
    """
    if values.dtype.kind == "U":
        return list(map(_quote, values.tolist()))
    cells = list(map(repr, values.tolist()))
    whole = np.flatnonzero((np.trunc(values) == values) & (np.abs(values) < 1e16))
    for i, text in zip(whole.tolist(),
                       map(str, values[whole].astype(np.int64).tolist())):
        cells[i] = text
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def _write_chunks(path: str, header: list[str], rows: int,
                  chunk_columns: Callable[[slice], list[list[str]]]) -> None:
    """Write header, then the rows chunk_columns formats per CHUNK_ROWS slice.

    The cells come formatted, so rows are joined directly: the same bytes
    csv.writer would write, without its per-cell quoting checks. A file of
    more than CHUNK_ROWS rows is cut at chunk boundaries into up to
    _pool.WORKERS row ranges, formatted side by side: the first range is
    written to path after the header, each other one to a part file beside
    it, which is then appended to path. The part files are removed whether
    or not the write succeeds.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
    chunks = -(-rows // CHUNK_ROWS)
    count = max(1, min(_pool.WORKERS, chunks))
    bounds = [CHUNK_ROWS * (chunks * i // count) for i in range(count)] + [rows]
    parts: list[str] = []

    def write_range(i: int) -> None:
        with open(parts[i - 1] if i else path, "a", encoding="utf-8", newline="") as fh:
            for start in range(bounds[i], bounds[i + 1], CHUNK_ROWS):
                cells = chunk_columns(slice(start, min(start + CHUNK_ROWS, bounds[i + 1])))
                fh.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))

    try:
        for _ in range(1, count):
            fd, part = tempfile.mkstemp(".part", os.path.basename(path) + ".",
                                        os.path.dirname(os.path.abspath(path)))
            os.close(fd)
            parts.append(part)
        _pool.fork_map(write_range, range(count))
        with open(path, "ab") as out:
            for part in parts:
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, out)
    finally:
        for part in parts:
            os.remove(part)


def write_records_csv(flows: FlowTable, path: str) -> None:
    """Write a flow table to CSV. Values read back equal through load_csv."""
    def chunk(rows: slice) -> list[list[str]]:
        cells = [_format_column(column[rows]) for column in flows.columns.values()]
        cells.append(list(map(str, flows.labels[rows].tolist())))
        return cells

    _write_chunks(path, list(flows.columns) + [LABEL_FIELD], len(flows), chunk)


def write_dataset_csv(dataset: Dataset, path: str,
                      synthetic: np.ndarray | None = None) -> None:
    """Write a numeric dataset to CSV.

    synthetic, when given, is a 0/1 row flag column marking rows that were
    generated by resampling rather than observed; any other flag value is
    a LoadError, as read_dataset_csv would reject it.
    """
    header = list(dataset.feature_names) + [LABEL_FIELD]
    if synthetic is not None:
        if len(synthetic) != dataset.n_rows:
            raise LoadError("synthetic flag length does not match row count")
        synthetic = np.asarray(synthetic)
        bad = np.flatnonzero((synthetic != 0) & (synthetic != 1))
        if bad.size:
            raise LoadError(f"synthetic flag of row {bad[0]} is "
                            f"{synthetic[bad[0]].item()!r}, expected 0 or 1")
        synthetic = synthetic.astype(np.int64)
        header.append("synthetic")

    def chunk(rows: slice) -> list[list[str]]:
        block = dataset.features[rows]
        cells = [_format_column(block[:, j]) for j in range(dataset.n_features)]
        cells.append(list(map(str, dataset.labels[rows].tolist())))
        if synthetic is not None:
            cells.append(list(map(str, synthetic[rows].tolist())))
        return cells

    _write_chunks(path, header, dataset.n_rows, chunk)


def read_dataset_csv(path: str) -> tuple[Dataset, np.ndarray | None]:
    """Read a CSV written by write_dataset_csv.

    Returns (dataset, synthetic_flags_or_None). The column named `attack`
    is the label, `synthetic` is the optional 0/1 provenance flag, and
    every other cell must hold a finite number. Every row must have as many
    cells as the header; the first line breaking a rule is named in the
    LoadError.

    The path is chosen by the input alone. After csv.reader reads the
    header, a body in the writer's shape (cells numpy.loadtxt parses,
    labels and flags exactly "0" or "1", finite features, at least one
    feature column) is parsed whole in C. Any other file is read again,
    CHUNK_ROWS rows at a time, by the line-accurate reader: it returns the
    data when every cell is valid but unusual (such as "1_0", Unicode
    digits or a " 1 " label) and otherwise raises the LoadError naming the
    first offending line. One difference is known: a number in a cell
    longer than the csv module's field size limit (131,072 characters)
    reads in C, where the line reader raises a LoadError.
    """
    read = _read_dataset_whole(path)
    return read if read is not None else _read_dataset_lines(path)


def _dataset_columns(header: list[str]) -> tuple[int, int | None, list[int]]:
    """(label index, synthetic flag index or None, feature indices)."""
    label_idx = header.index(LABEL_FIELD)
    synth_idx = header.index("synthetic") if "synthetic" in header else None
    return (label_idx, synth_idx,
            [i for i in range(len(header)) if i not in (label_idx, synth_idx)])


def _flag_value(cell: str) -> int:
    """A label or flag cell that is exactly "0" or "1" as its value; -1
    marks any other, which _read_dataset_whole leaves to the line reader."""
    return _FLAG_VALUES.get(cell, -1)


def _read_dataset_whole(path: str) -> tuple[Dataset, np.ndarray | None] | None:
    """read_dataset_csv's result from numpy.loadtxt over the file body, or
    None when the file is not plainly in the writer's shape.

    The body is read into a structured array, one 8-byte field per column.
    A 2-d float64 read followed by a column copy was slower and, over a
    whole CLI session, left glibc's heap fragmented enough to raise the
    peak RSS by 1-9%. A body _body_ranges can cut is parsed range by range
    side by side; if any range fails, the body is parsed again in one call,
    so the result does not depend on the cut.
    """
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except (StopIteration, ValueError, csv.Error):
            return None
        if LABEL_FIELD not in header:
            return None
        label_idx, synth_idx, feat_idx = _dataset_columns(header)
        if not feat_idx:  # column_stack below needs a column
            return None
        flag_idx = [label_idx] + ([] if synth_idx is None else [synth_idx])
        dtype = np.dtype([(f"f{i}", "i8" if i in flag_idx else "f8")
                          for i in range(len(header))])
        converters = dict.fromkeys(flag_idx, _flag_value)
        body = _read_split(path, dtype, converters)
        if body is None:
            try:
                body = _loadtxt(fh, dtype, converters)
            except ValueError:
                return None
    labels = body[f"f{label_idx}"]
    flags = None if synth_idx is None else body[f"f{synth_idx}"]
    features = np.column_stack([body[f"f{i}"] for i in feat_idx])
    if ((labels < 0).any() or not np.isfinite(features).all()
            or (flags is not None and (flags < 0).any())):
        return None
    # copies, so the result holds no view into body
    dataset = Dataset(features, labels.copy(), tuple(header[i] for i in feat_idx))
    return dataset, None if flags is None else flags.copy()


def _loadtxt(source, dtype: np.dtype, converters: dict) -> np.ndarray:
    """The rows of source, text after the header, as a structured array."""
    with warnings.catch_warnings():
        # a body with no rows warns, and reads as zero rows
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, dtype=dtype, delimiter=",", quotechar='"',
                          comments=None, ndmin=1, converters=converters)


def _read_split(path: str, dtype: np.dtype, converters: dict) -> np.ndarray | None:
    """The body of the file at path parsed by _loadtxt over _body_ranges's
    ranges side by side, or None when the body is not cut or a range does
    not parse to one row per line (it raises, or holds a blank line).

    Each worker fills its rows of one array in an anonymous shared mapping,
    so no parsed rows pass through the pool's pipes.
    """
    ranges = _body_ranges(path, _pool.WORKERS)
    if ranges is None:
        return None
    firsts = np.cumsum([0] + [lines for _, _, lines in ranges]).tolist()
    body = np.frombuffer(mmap.mmap(-1, firsts[-1] * dtype.itemsize), dtype)

    def fill(i: int) -> bool:
        start, stop, lines = ranges[i]
        with open(path, "rb") as fh:
            fh.seek(start)
            text = fh.read(stop - start)
        try:
            rows = _loadtxt(io.StringIO(text.decode("utf-8")), dtype, converters)
        except ValueError:  # UnicodeDecodeError included
            return False
        if len(rows) != lines:
            return False
        body[firsts[i]:firsts[i + 1]] = rows
        return True

    return body if all(_pool.fork_map(fill, range(len(ranges)))) else None


# Bytes _body_ranges scans at a time.
_SCAN_BYTES = 1 << 20


def _body_ranges(path: str, parts: int) -> list[tuple[int, int, int]] | None:
    """(start, stop, lines) byte ranges that cut the body of the file at
    path, after its header line, into parts runs of whole lines.

    None when parts < 2 or when a record might span lines, which would
    make a range parse differently from the whole body: the file holds a
    '"' or a '\\r' outside '\\r\\n', or its last line has no '\\n'. None too
    for a body of no more than CHUNK_ROWS lines, which is not worth cutting.
    """
    if parts < 2:
        return None
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):  # a pipe cannot be read twice
            return None
        header = fh.readline()
        if not header.endswith(b"\n"):
            return None
        size = info.st_size
        bounds = [len(header)]
        for i in range(1, parts):
            fh.seek(max(bounds[-1], len(header) + (size - len(header)) * i // parts))
            fh.readline()
            bounds.append(fh.tell())
        bounds.append(size)
        # the scan runs in numpy, several times faster than bytes.count
        block = bytearray(_SCAN_BYTES)
        carriage_returns = crlf = 0
        last_cr = False
        counts = []
        fh.seek(0)
        for stop in bounds:
            lines = 0
            while fh.tell() < stop:
                read = fh.readinto(memoryview(block)[:min(_SCAN_BYTES, stop - fh.tell())])
                if not read:  # the file shrank under the scan
                    return None
                byte = np.frombuffer(block, np.uint8, read)
                if (byte == ord('"')).any():
                    return None
                cr, lf = byte == ord("\r"), byte == ord("\n")
                carriage_returns += np.count_nonzero(cr)
                crlf += np.count_nonzero(cr[:-1] & lf[1:]) + (last_cr and lf[0])
                last_cr, last_lf = cr[-1], lf[-1]
                lines += np.count_nonzero(lf)
            counts.append(int(lines))
    if carriage_returns != crlf or not last_lf or sum(counts[1:]) <= CHUNK_ROWS:
        return None
    return list(zip(bounds, bounds[1:], counts[1:]))


def _read_dataset_lines(path: str) -> tuple[Dataset, np.ndarray | None]:
    """read_dataset_csv over csv.reader, CHUNK_ROWS rows at a time, with
    each row's cells converted by float(); a LoadError names the first
    offending physical line."""
    with _csv_reader(path) as reader:
        header = _read_header(reader, path)
        if LABEL_FIELD not in header:
            raise LoadError(f"{path}: header has no {LABEL_FIELD!r} column")
        width = len(header)
        label_idx, synth_idx, feat_idx = _dataset_columns(header)
        feature_parts: list[np.ndarray] = []
        label_parts: list[np.ndarray] = []
        flag_parts: list[np.ndarray] = []
        for rows, lines in _row_chunks(reader, path, width):
            n = len(rows)
            try:
                values = np.fromiter(map(float, chain.from_iterable(rows)),
                                     np.float64, n * width).reshape(n, width)
            except ValueError:
                values = None
            labels = _parse_flags(map(itemgetter(label_idx), rows), n)
            checks = [(labels < 0, lambda i: (
                f"label value {rows[i][label_idx].strip()!r}"))]
            if values is None:  # some cell, maybe a label or flag, is no number
                bad = np.array([not all(_is_finite(row[j]) for j in feat_idx)
                                for row in rows], dtype=bool)
            else:
                bad = ~np.isfinite(values[:, feat_idx]).all(axis=1)

            def not_finite(i: int) -> str:
                cell = next(rows[i][j] for j in feat_idx if not _is_finite(rows[i][j]))
                return f"feature cell {cell!r} is not a finite number"

            checks.append((bad, not_finite))
            if synth_idx is not None:
                flags = _parse_flags(map(itemgetter(synth_idx), rows), n)
                checks.append((flags < 0, lambda i: (
                    f"synthetic flag {rows[i][synth_idx]!r}, expected 0 or 1")))
                flag_parts.append(flags)
            _raise_first(path, lines, checks)
            feature_parts.append(values[:, feat_idx])
            label_parts.append(labels)
    names = tuple(header[i] for i in feat_idx)
    matrix = (np.concatenate(feature_parts) if feature_parts
              else np.empty((0, len(names)), dtype=np.float64))
    dataset = Dataset(matrix, _concat(label_parts, np.int64), names)
    flags = _concat(flag_parts, np.int64) if synth_idx is not None else None
    return dataset, flags
