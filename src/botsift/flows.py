"""Flow tables, schemas, datasets, and CSV input/output.

A flow is one network flow summary (the BoT-IoT column vocabulary:
packet/byte counts, duration, per-direction rates, proto/state tokens, and
a binary attack label). Flows are loaded from CSV against a schema that
assigns each column a role and held column by column in a FlowTable;
cleaned, encoded tables are then assembled into a dense numeric Dataset
for the learning stages.

The writers work through files CHUNK_ROWS rows at a time, so their memory
does not grow with the file. The text of a chunk is computed in numpy by
_csvtext.chunk, under the cell rule README's "Data formats" states: a
float's shortest round-trip digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) in uint64 arithmetic, laid out as
repr lays them out.

load_csv and read_dataset_csv share one reading core. A CSV format gives,
for a header, the kind of each column (numeric: float64, NaN where a cell
is missing, unparseable or not finite; categorical: the stripped token;
flag: 0/1, -1 for any other cell; or ignore) and its rules in the order
they apply within a row: for a flow CSV (kinds by schema role, the label a
flag) the label, then each of NONNEGATIVE_FIELDS not negative; for a
dataset CSV (`attack` and `synthetic` flags, every other column numeric)
the label, then each feature in header order finite, then the synthetic
flag. A header without the label, repeating a column it reads, or with no
feature column (for a flow CSV, none the schema keeps) is a LoadError
naming the file, ahead of any fault in the rows, a byte that is not UTF-8
included.

Both writers keep a binary copy of what the parse of their CSV returns
beside it, at path + SIDECAR_SUFFIX, with the CSV's sha256. The readers
first read the whole file at once: from that copy while the CSV holds the
bytes it was made from, else, for a regular file whose every record is one
physical line (no '"', no control byte but line breaks, no line over the
csv field size limit, no empty cell), by numpy.loadtxt, in C, where no
token fills TOKEN_WIDTH characters. Either answer is kept by one rule: its
columns must pass the format's kinds and rules, as a parse's must. Any
other file, or one with an unusual cell (" 1 ", "1_0"), is read CHUNK_ROWS
rows at a time by the line reader under the same rules, which gives the
same values or names the first offending line, as it names that of a
csv.Error or a non-UTF-8 byte.

Files of more than CHUNK_ROWS rows use both cores through _pool.fork_map.
The writers format contiguous ranges of whole chunks side by side, each
into its own file, and append the parts in order. The readers parse ranges
of whole lines side by side into one shared array. Either way the bytes
written and the values read do not depend on the cut.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import mmap
import os
import re
import shutil
import tempfile
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from itertools import islice, repeat
from typing import Callable, Sequence

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
LABEL_FIELD = "attack"

# Rows the CSV readers and writers hold at a time.
CHUNK_ROWS = 8192

# Characters of a token load_csv parses in C; numpy.loadtxt cuts a longer
# token short without a word, so a file with one this long is read by line.
TOKEN_WIDTH = 16


def _read_json(path: str, what: str, error: type[Exception]):
    """The JSON value in the file at path. A file that is missing, cannot
    be read or is not UTF-8 JSON raises error naming path and calling the
    file what."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{path}: {what} not found") from None
    except OSError as exc:  # such as a directory
        raise error(f"{path}: {what} cannot be read: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise error(f"{path}: {what} is not valid JSON: {exc}") from None


def _finite(value) -> bool:
    """Whether a value read from JSON is a finite number (a bool is not)."""
    return type(value) is int or type(value) is float and math.isfinite(value)


# What a value read from JSON must be to fill a dataclass field, by the
# field's declared type: (what to call it in an error, test)
_ACCEPTS = {
    "str": ("a string", lambda v: type(v) is str),
    "bool": ("true or false", lambda v: type(v) is bool),
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", _finite),
    "tuple[str, ...]": ("a non-empty list of strings", lambda v: type(v) is list
                        and len(v) > 0 and all(type(s) is str for s in v)),
    "tuple[float, ...]": ("a list of finite numbers",
                          lambda v: type(v) is list and all(map(_finite, v))),
    "dict": ("a JSON object", lambda v: type(v) is dict),
    "MlpConfig": ("a JSON object", lambda v: type(v) is dict),
}


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

    @classmethod
    def from_json(cls, path: str) -> "Schema":
        """The schema in the JSON file at path, an object with a "roles"
        object and an optional "default_role". Any other shape or key, or a
        role that is not one of ROLES, is a SchemaError naming path."""
        raw = _read_json(path, "schema file", SchemaError)
        if not isinstance(raw, dict) or not isinstance(raw.get("roles"), dict):
            raise SchemaError(f"{path}: schema file must contain a 'roles' object")
        if unknown := sorted(raw.keys() - {"roles", "default_role"}):
            raise SchemaError(f"{path}: unknown schema key {unknown[0]!r}")
        try:
            return cls(roles=raw["roles"], default_role=raw.get("default_role", "ignore"))
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from None


def default_schema() -> Schema:
    """The bundled schema for the standard flow column vocabulary."""
    with resources.as_file(resources.files("botsift").joinpath(
            "schemas/flow-default.json")) as path:
        return Schema.from_json(str(path))


@dataclass(frozen=True)
class FlowTable:
    """Flow rows held column by column.

    columns maps each feature column to an array with one entry per row:
    float64 with NaN where a numeric value is missing, or string tokens
    (proto/state as loaded) with "" where a token is missing. Named fields
    come first, in canonical order, then other columns in the order given.
    labels holds the 0/1 attack labels. Arrays are frozen, so tables can
    share columns.

    missing_counts is filled in by cleanse: for each enforced column, how
    many input rows had no value there (a row missing several values counts
    once in each of those columns).
    """

    columns: dict[str, np.ndarray]
    labels: np.ndarray
    missing_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise LoadError("labels must be a 1-d array")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise LoadError("labels must be 0 or 1")
        rows = labels.shape[0]
        order = ([c for c in NAMED_FIELDS if c in self.columns]
                 + [c for c in self.columns if c not in NAMED_FIELDS])
        columns = {name: _as_column(name, self.columns[name], rows)
                   for name in order}
        for array in (labels, *columns.values()):
            array.setflags(write=False)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "missing_counts", dict(self.missing_counts))

    def __len__(self) -> int:
        return self.labels.shape[0]

    def present(self, name: str) -> np.ndarray:
        """Mask of the rows with a value in column name."""
        column = self.columns[name]
        return column != "" if column.dtype.kind == "U" else ~np.isnan(column)

    def take(self, rows: np.ndarray) -> "FlowTable":
        """The rows an index array or boolean mask selects, in that order."""
        return FlowTable({name: column[rows] for name, column in self.columns.items()},
                         self.labels[rows])


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


@contextmanager
def _csv_reader(path: str):
    """A csv.reader over path whose csv.Error (such as a cell over the
    csv module's field size limit) or undecodable byte is a LoadError
    naming the physical line, as a file that is missing or cannot be read
    is one naming path."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise LoadError(f"input file not found: {path}") from None
    except OSError as exc:  # such as a directory
        raise LoadError(f"{path}: input file cannot be read: {exc.strerror}") from None
    with fh:
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


# A rule of a CSV format: (column, the mask of the rows a parsed column
# fails, the message for a failing row given its cell).
_Rule = tuple[str, Callable[[np.ndarray], np.ndarray], Callable[[str], str]]


def _raise_first(path: str, lines: np.ndarray, rules: list[_Rule],
                 cells: dict[str, tuple[str, ...]], values: dict[str, np.ndarray]) -> None:
    """Raise LoadError for the earliest row of a chunk any rule flags; in
    one row the rules apply in their order."""
    first = None
    for name, fails, message in rules:
        hits = np.flatnonzero(fails(values[name]))
        if hits.size and (first is None or hits[0] < first[0]):
            first = (int(hits[0]), name, message)
    if first is not None:
        row, name, message = first
        raise LoadError(f"{path}:{lines[row]}: {message(cells[name][row])}")


def _negative(values: np.ndarray) -> np.ndarray:
    return values < 0


def _not_flag(values: np.ndarray) -> np.ndarray:
    return (values != 0) & (values != 1)


def _not_finite(values: np.ndarray) -> np.ndarray:
    return ~np.isfinite(values)


_FLAG_VALUES = {"0": 0, "1": 1}


def _parse_flags(cells: Sequence[str]) -> np.ndarray:
    """0/1 cells (surrounding blanks ignored) as int64; -1 marks any other."""
    return np.fromiter(map(_FLAG_VALUES.get, map(str.strip, cells), repeat(-1)),
                       np.int64, len(cells))


def _float_or_none(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _parse_numeric(cells: Sequence[str]) -> np.ndarray:
    """Cells as float64; empty, unparseable or non-finite cells are NaN."""
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        values = np.array([_float_or_none(c) for c in cells], dtype=np.float64)
    values[~np.isfinite(values)] = np.nan
    return values


def _parse_tokens(cells: Sequence[str]) -> np.ndarray:
    """Cells stripped of surrounding blanks, as wide as the longest."""
    return np.array(list(map(str.strip, cells)), dtype=str)


# Per column kind, a schema role but "flag" for the label: the line
# reader's parse of its cells, the dtype a read column of the kind has,
# and the type numpy.loadtxt parses it as in C ("U1" for an ignored
# column, whose cells are not kept).
_KINDS = {
    "numeric": (_parse_numeric, np.float64, "f8"),
    "categorical": (_parse_tokens, np.str_, f"U{TOKEN_WIDTH}"),
    "flag": (_parse_flags, np.int64, "i8"),
    "ignore": (None, None, "U1"),
}


def _layout(path: str, header: list[str], layout: Callable,
            *args) -> tuple[list[str], list[_Rule]]:
    """(kind per header column, rules) of a CSV format, as layout(path,
    header, *args) gives them; a header that repeats a column it reads is
    a LoadError."""
    kinds, rules = layout(path, header, *args)
    names = [name for name, kind in zip(header, kinds) if kind != "ignore"]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise LoadError(f"{path}: header repeats column {repeated[0]!r}")
    return kinds, rules


def _read_whole(path: str, layout: Callable, *args) -> dict[str, np.ndarray] | None:
    """The columns of a CSV format read by name from the whole file at
    once, as _checked keeps them: from its sidecar, else parsed in C. None,
    and the line reader reads the file, when neither is kept."""
    sidecar = _read_sidecar(path)
    columns = None if sidecar is None else _checked(
        path, sidecar[0]["header"], lambda kinds: _columns(sidecar[1]), layout, *args)
    del sidecar  # its arrays are not held through a parse
    if columns is not None:
        return columns
    cut = _body_ranges(path)
    return None if cut is None else _checked(
        path, cut[0], partial(_parse_columns, path, cut[1]), layout, *args)


def _checked(path: str, header: list[str], read: Callable, layout: Callable,
             *args) -> dict[str, np.ndarray] | None:
    """The columns of a CSV format read by name from read(kinds), an array
    per header column or None, where the header's layout holds, each
    column the format reads has its kind's dtype and no rule fails; else
    None."""
    try:
        kinds, rules = _layout(path, header, layout, *args)
    except LoadError:  # the line reader names it
        return None
    stored = read(kinds)
    if stored is None or not all(np.issubdtype(column.dtype, _KINDS[kind][1])
                                 for kind, column in zip(kinds, stored) if kind != "ignore"):
        return None
    columns = {name: column for name, kind, column in zip(header, kinds, stored)
               if kind != "ignore"}
    ruled: dict[Callable, list[np.ndarray]] = {}
    for name, fails, _ in rules:
        ruled.setdefault(fails, []).append(columns[name])
    return None if any(_any_fails(fails, ruled[fails]) for fails in ruled) else columns


def _any_fails(fails: Callable[[np.ndarray], np.ndarray], columns: list[np.ndarray]) -> bool:
    """Whether a rule fails on any row of these columns; on the matrix they
    are the columns of, such as a sidecar's features, in one pass."""
    matrix = columns[0].base
    if (matrix is not None and matrix.ndim == 2 and matrix.shape[1] == len(columns)
            and all(column.base is matrix for column in columns)):
        columns = [matrix]
    return any(fails(column).any() for column in columns)


def _parse_columns(path: str, ranges: list[tuple[int, int]],
                   kinds: list[str]) -> list[np.ndarray] | None:
    """The ranges of path parsed in C, a column per header column by its
    kind; an all-finite numeric column and a flag stay views into the
    parse buffer. None when _parse_ranges declines the file or a token
    fills its field."""
    body = _parse_ranges(path, ranges, [_KINDS[kind][2] for kind in kinds])
    if body is None:
        return None
    columns = []
    for j, kind in enumerate(kinds):
        values = body[f"f{j}"]
        if kind == "numeric" and not np.isfinite(values).all():
            values = np.where(np.isfinite(values), values, np.nan)
        elif kind == "categorical":
            if np.char.str_len(values).max(initial=0) >= TOKEN_WIDTH:
                return None
            values = _narrow_tokens(values)
        columns.append(values)
    return columns


def _narrow_tokens(values: np.ndarray) -> np.ndarray:
    """Tokens stripped as str.strip strips, as wide as the longest (at
    least one character), as the line reader's parse returns them."""
    values = np.char.strip(values)
    return values.astype(f"U{max(1, np.char.str_len(values).max(initial=0))}")


def _read_lines(path: str, layout: Callable, *args) -> dict[str, np.ndarray]:
    """The columns of a CSV format read by name, read by csv.reader
    CHUNK_ROWS rows at a time with each cell parsed by its column's kind;
    a LoadError names the first line a rule fails on."""
    with _csv_reader(path) as reader:
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise LoadError(f"{path}: file is empty")
        except UnicodeDecodeError:  # maybe a byte past the header
            _header_first(path, layout, *args)
            raise
        kinds, rules = _layout(path, header, layout, *args)
        read = {name: _KINDS[kind] for name, kind in zip(header, kinds)
                if kind != "ignore"}
        parts = {name: [np.array([], dtype)] for name, (_, dtype, _) in read.items()}
        for rows, lines in _row_chunks(reader, path, len(header)):
            cells = dict(zip(header, zip(*rows)))
            values = {name: parse(cells[name]) for name, (parse, _, _) in read.items()}
            _raise_first(path, lines, rules, cells, values)
            for name, column in values.items():
                parts[name].append(column)
    return {name: np.concatenate(chunks) for name, chunks in parts.items()}


def _header_first(path: str, layout: Callable, *args) -> None:
    """Raise the fault of path's header record, read on its own: decoding
    runs ahead of csv.reader, so a byte that is not UTF-8 past the record
    can stop its read. A bad byte or csv.Error in the record comes first."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        try:
            header = [name.strip() for name in next(csv.reader(fh))]
        except csv.Error:
            return
    if not re.search("[\udc80-\udcff]", "".join(header)):
        _layout(path, header, layout, *args)


def load_csv(path: str, schema: Schema | None = None) -> FlowTable:
    """Load a flow CSV into a FlowTable.

    Each column is read by its role, as listed in the schema or else its
    default_role (the bundled schema when schema is None): a numeric one as
    float64, a categorical one as tokens; an "ignore" one is not kept. This
    is the one place a schema applies: cleanse and encode read the table.
    Missing or unparseable numeric cells become NaN and are left for
    cleansing.
    Every row must have as many cells as the header, its label must be 0
    or 1, and its count, duration and rate fields must not be negative; the
    first line breaking a rule is named in the LoadError. Row order is
    preserved. The file is parsed in C or by line, or read from its
    sidecar, as the module docstring says; the result does not depend on
    which.
    """
    if schema is None:
        schema = default_schema()
    columns = _read_whole(path, _flow_layout, schema)
    return _load_csv_lines(path, schema) if columns is None else _flow_table(schema, columns)


def _flow_layout(path: str, header: list[str],
                 schema: Schema) -> tuple[list[str], list[_Rule]]:
    """A flow CSV's layout, as the module docstring gives it."""
    label = schema.label_column
    if label not in header:
        raise LoadError(f"{path}: header has no column {label!r} (declared label column)")
    kinds = ["flag" if role == "label" else role for role in map(schema.role_of, header)]
    if "numeric" not in kinds and "categorical" not in kinds:
        raise LoadError(f"{path}: header has no feature column the schema keeps")
    return kinds, [
        (label, _not_flag,
         lambda cell: f"label column {label!r} has value {cell!r}, expected 0 or 1"),
        *((name, _negative, lambda cell, name=name: f"field {name!r} is negative "
                                                    f"({float(cell)!r})")
          for name in NONNEGATIVE_FIELDS
          if name in header and schema.role_of(name) == "numeric")]


def _load_csv_lines(path: str, schema: Schema) -> FlowTable:
    """load_csv by line through csv.reader; a LoadError names the first bad line."""
    return _flow_table(schema, _read_lines(path, _flow_layout, schema))


def _flow_table(schema: Schema, columns: dict[str, np.ndarray]) -> FlowTable:
    labels = columns.pop(schema.label_column)
    # a column parsed in C, or a column of a sidecar's feature matrix, is
    # copied out of its buffer here
    return FlowTable({name: np.ascontiguousarray(c) for name, c in columns.items()},
                     np.ascontiguousarray(labels))


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


def _counts_json(counts: tuple[int, int]) -> dict[str, int]:
    """(normal, botnet) row counts as every JSON file botsift writes holds them."""
    return {"normal": counts[0], "botnet": counts[1]}


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


def to_dataset(flows: FlowTable) -> Dataset:
    """Assemble a cleansed, encoded flow table into a Dataset.

    Every numeric column with a value in every row is used, in table
    order. Token columns (proto/state before encoding) are skipped; encode
    first to include them.
    """
    if not len(flows):
        raise LoadError("cannot build a dataset from zero rows")
    features = [name for name, column in flows.columns.items()
                if column.dtype.kind == "f" and not np.isnan(column).any()]
    if not features:
        raise LoadError("no fully-populated numeric feature columns found")
    matrix = np.column_stack([flows.columns[name] for name in features])
    return Dataset(matrix, flows.labels, tuple(features))


# --------------------------------------------------------------------------
# CSV writing


def _write_chunks(path: str, header: list[str], rows: int,
                  columns: Callable[[slice], list[np.ndarray]]) -> None:
    """Write header, then the CSV text of rows rows, CHUNK_ROWS at a
    time: for each slice of them, that of columns(slice).

    Writing the header first removes path's sidecar, which no longer
    describes it. More than CHUNK_ROWS rows are cut at chunk boundaries
    into up to _pool.WORKERS ranges, written side by side: the first range
    to path, each other one to a part file beside it, which is then
    appended to path. The part files are removed whether or not the write
    succeeds.
    """
    # imported here, ahead of the fork, so that no worker compiles it
    from ._csvtext import chunk as text

    with suppress(OSError):
        os.remove(path + SIDECAR_SUFFIX)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
    chunks = -(-rows // CHUNK_ROWS)
    count = max(1, min(_pool.WORKERS, chunks))
    bounds = [CHUNK_ROWS * (chunks * i // count) for i in range(count)] + [rows]
    parts: list[str] = []

    def write_range(i: int) -> None:
        with open(parts[i - 1] if i else path, "ab") as fh:
            for start in range(bounds[i], bounds[i + 1], CHUNK_ROWS):
                part = slice(start, min(start + CHUNK_ROWS, bounds[i + 1]))
                fh.write(text(columns(part)))

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
    """Write a flow table to CSV. Values read back equal through load_csv.

    The CSV's sidecar (see the module docstring) is written after it,
    unless a column name would not read back as written: one with
    surrounding blanks, or one repeated (`attack` included).
    """
    header = list(flows.columns) + [LABEL_FIELD]
    columns = [*flows.columns.values(), flows.labels]
    _write_chunks(path, header, len(flows),
                  lambda rows: [column[rows] for column in columns])
    if len(set(header)) == len(header) and all(name == name.strip() for name in header):
        _write_sidecar(path, header, columns)


def write_dataset_csv(dataset: Dataset, path: str,
                      synthetic: np.ndarray | None = None) -> None:
    """Write a numeric dataset to CSV.

    synthetic, when given, is a 0/1 row flag column marking rows that were
    generated by resampling rather than observed; any other flag value is
    a LoadError, as read_dataset_csv would reject it. So is a dataset with
    no feature, or with one that read_dataset_csv would read back as a
    flag (`attack`, `synthetic`) or under another name (surrounding
    blanks), before any byte is written. The CSV's sidecar (see the module
    docstring) is written after it.
    """
    if not dataset.n_features:
        raise LoadError(f"{path}: dataset has no feature column")
    for name in dataset.feature_names:
        if name in (LABEL_FIELD, "synthetic"):
            raise LoadError(f"{path}: feature column {name!r} would read back as a flag")
        if name != name.strip():
            raise LoadError(f"{path}: feature column {name!r} would read back "
                            f"as {name.strip()!r}")
    header = list(dataset.feature_names) + [LABEL_FIELD]
    flags = []
    if synthetic is not None:
        if len(synthetic) != dataset.n_rows:
            raise LoadError("synthetic flag length does not match row count")
        synthetic = np.asarray(synthetic)
        bad = np.flatnonzero((synthetic != 0) & (synthetic != 1))
        if bad.size:
            raise LoadError(f"synthetic flag of row {bad[0]} is "
                            f"{synthetic[bad[0]].item()!r}, expected 0 or 1")
        flags.append(synthetic.astype(np.int64))
        header.append("synthetic")

    def columns(rows: slice) -> list[np.ndarray]:
        return [*dataset.features[rows].T, dataset.labels[rows], *(f[rows] for f in flags)]

    _write_chunks(path, header, dataset.n_rows, columns)
    _write_sidecar(path, header, [dataset.features, dataset.labels, *flags])


# The sidecar of a CSV: one JSON line (format version, the CSV's sha256,
# the row count, each array's dtype and shape past the rows, the widest
# cell or header name in characters, the CSV's header), then each array's
# rows in turn, as the parse returns them. A dataset's arrays are its
# features row by row as little-endian float64, its labels and any
# synthetic flags as little-endian int64; a flow table's are its columns,
# float64 or UTF-32 tokens, and its labels.
SIDECAR_SUFFIX = ".parsed"
_SIDECAR_VERSION = 3
_SIDECAR_DTYPE = re.compile(r"<f8|<i8|<U[1-9][0-9]*")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_SCAN_BYTES), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_sidecar(path: str, header: list[str], arrays: list[np.ndarray]) -> None:
    """Write the sidecar of the CSV just written at path: its header and
    arrays, one entry per CSV row, as the parse returns them. A float
    is stored plus 0.0 (-0.0 is written as the integer 0), any non-finite
    one as NaN; tokens stripped, as wide as the longest; integers as int64.
    It goes to a temporary file beside path, CHUNK_ROWS rows at a time,
    then is moved into place. A path that is not a regular file gets none,
    nor does a CSV with a header name or cell longer than
    csv.field_size_limit() characters, which the parse refuses; the widest
    is recorded, so that a reader under a lower limit parses instead. A
    sidecar that cannot be written is skipped, leaving the CSV to be parsed."""
    # a number's text is at most 24 characters
    width = int(max([*map(len, header), *(
        24 if a.dtype.kind != "U" else np.char.str_len(a).max(initial=0) for a in arrays)]))
    if not os.path.isfile(path) or width > csv.field_size_limit():
        return
    arrays = [_narrow_tokens(a) if a.dtype.kind == "U" else a for a in arrays]
    kinds = [f"<U{a.dtype.itemsize // 4}" if a.dtype.kind == "U"
             else "<f8" if a.dtype.kind == "f" else "<i8" for a in arrays]
    temp = f"{path}{SIDECAR_SUFFIX}.{os.getpid()}.tmp"
    try:
        with open(temp, "wb") as fh:
            fh.write(json.dumps({
                "version": _SIDECAR_VERSION, "sha256": _sha256(path), "rows": len(arrays[-1]),
                "arrays": [[kind, list(a.shape[1:])] for kind, a in zip(kinds, arrays)],
                "width": width, "header": header}).encode("utf-8") + b"\n")
            for kind, array in zip(kinds, arrays):
                for start in range(0, len(array), CHUNK_ROWS):
                    values = array[start:start + CHUNK_ROWS]
                    if kind == "<f8":
                        values = np.where(np.isfinite(values), values + 0.0, np.nan)
                    fh.write(np.ascontiguousarray(values, kind))
        os.replace(temp, path + SIDECAR_SUFFIX)
    except OSError:
        with suppress(OSError):
            os.remove(temp)


def _read_sidecar(path: str) -> tuple[dict, list[np.ndarray]] | None:
    """(meta, arrays) of the sidecar of the CSV at path: its JSON line and
    its arrays, while the CSV's bytes have the recorded sha256. None, and
    the CSV is parsed, when path is not a regular file or the sidecar is
    missing or unreadable, of another version, with a JSON line or payload
    length that does not fit, or with a cell or header name wider than
    csv.field_size_limit() now allows."""
    if not os.path.isfile(path):
        return None
    try:
        with open(path + SIDECAR_SUFFIX, "rb") as fh:
            meta = json.loads(fh.readline())
            count = meta["rows"]
            if (meta["version"] != _SIDECAR_VERSION or meta["width"] > csv.field_size_limit()
                    or not all(_SIDECAR_DTYPE.fullmatch(kind) and len(tail) <= 1
                               for kind, tail in meta["arrays"])):
                return None
            shapes = [(np.dtype(kind), tuple(tail)) for kind, tail in meta["arrays"]]
            sizes = [dtype.itemsize * math.prod(tail) for dtype, tail in shapes]
            if (sum(math.prod(tail) for _, tail in shapes) != len(meta["header"])
                    or os.fstat(fh.fileno()).st_size - fh.tell() != count * sum(sizes)
                    or meta["sha256"] != _sha256(path)):
                return None
            arrays = []
            for dtype, tail in shapes:
                # read straight into the arrays returned: read into an
                # anonymous mmap first, the CLI session's peak RSS rose
                array = np.empty((count, *tail), dtype)
                if fh.readinto(array) != array.nbytes:
                    return None
                arrays.append(array)
        return meta, arrays
    except (OSError, ValueError, KeyError, TypeError):  # JSON errors included
        return None


def _columns(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """A sidecar's arrays as the header columns they hold, in order; a 2-d
    array holds one column per entry of its rows."""
    return [column for array in arrays
            for column in (array.T if array.ndim == 2 else [array])]


def read_dataset_csv(path: str) -> tuple[Dataset, np.ndarray | None]:
    """Read a CSV written by write_dataset_csv.

    Returns (dataset, synthetic_flags_or_None). The column named `attack`
    is the label, `synthetic` is the optional 0/1 provenance flag, and
    every other column, at least one and none repeated, is a feature of
    finite numbers. Every row must have as many cells as the header; the
    first line breaking a rule is named in the LoadError. The file is
    parsed in C or by line, or read from its sidecar, as the module
    docstring says; the result does not depend on which.
    """
    columns = _read_whole(path, _dataset_layout)
    return _dataset(columns) if columns is not None else _read_dataset_lines(path)


def _dataset_layout(path: str, header: list[str]) -> tuple[list[str], list[_Rule]]:
    """A dataset CSV's layout, as the module docstring gives it."""
    if LABEL_FIELD not in header:
        raise LoadError(f"{path}: header has no {LABEL_FIELD!r} column")
    kinds = ["flag" if name in (LABEL_FIELD, "synthetic") else "numeric" for name in header]
    features = [name for name, kind in zip(header, kinds) if kind == "numeric"]
    if not features:
        raise LoadError(f"{path}: header has no feature column")
    rules: list[_Rule] = [(LABEL_FIELD, _not_flag,
                           lambda cell: f"label value {cell.strip()!r}")]
    rules += [(name, _not_finite, lambda cell: f"feature cell {cell!r} is not a finite number")
              for name in features]
    if "synthetic" in header:
        rules.append(("synthetic", _not_flag,
                      lambda cell: f"synthetic flag {cell!r}, expected 0 or 1"))
    return kinds, rules


def _read_dataset_lines(path: str) -> tuple[Dataset, np.ndarray | None]:
    """read_dataset_csv by line through csv.reader; a LoadError names the
    first offending physical line."""
    return _dataset(_read_lines(path, _dataset_layout))


def _dataset(columns: dict[str, np.ndarray]) -> tuple[Dataset, np.ndarray | None]:
    labels, flags = columns.pop(LABEL_FIELD), columns.pop("synthetic", None)
    features = list(columns.values())
    # a sidecar's features are the columns of its matrix, kept as it is
    matrix = features[0].base
    if matrix is None or matrix.shape != (len(labels), len(features)):
        matrix = np.column_stack(features)
    # the label and flag parsed in C are copied out of the parse buffer here
    dataset = Dataset(matrix, np.ascontiguousarray(labels), tuple(columns))
    return dataset, None if flags is None else np.ascontiguousarray(flags)


def _parse_ranges(path: str, ranges: list[tuple[int, int]],
                  types: list[str]) -> np.ndarray | None:
    """The ranges of the file at path parsed by numpy.loadtxt into field
    f{i} of type types[i] per header column i ("i8": a 0/1 flag, any other
    cell -1) of a structured array, or None when a range raises or parses
    to fewer rows than lines (a blank line). Every column is parsed, as
    loadtxt counts a row's cells only over the columns it parses. The ranges
    fill the array side by side through _pool.fork_map in an anonymous
    shared mapping, so no rows pass through the pool's pipes (sending them
    back left glibc's heap fragmented)."""
    dtype = np.dtype([(f"f{i}", kind) for i, kind in enumerate(types)])
    converters = {i: lambda cell: _FLAG_VALUES.get(cell, -1)
                  for i, kind in enumerate(types) if kind == "i8"}
    firsts = np.cumsum([0] + [lines for _, lines in ranges]).tolist()
    # a mapping cannot be empty, so a body of no rows maps one spare byte
    body = np.frombuffer(mmap.mmap(-1, max(1, firsts[-1] * dtype.itemsize)),
                         dtype, firsts[-1])

    def fill(i: int) -> bool:
        start, lines = ranges[i]
        with open(path, "rb") as fh, warnings.catch_warnings():
            # a range with no rows warns, and reads as zero rows
            warnings.simplefilter("ignore", UserWarning)
            fh.seek(start)
            try:
                rows = np.loadtxt(islice(fh, lines), dtype=dtype, delimiter=",",
                                  quotechar='"', comments=None, ndmin=1,
                                  converters=converters, encoding="utf-8")
            except ValueError:  # UnicodeDecodeError included
                return False
        if len(rows) != lines:
            return False
        body[firsts[i]:firsts[i + 1]] = rows
        return True

    return body if all(_pool.fork_map(fill, range(len(ranges)))) else None


# Bytes _body_ranges scans at a time.
_SCAN_BYTES = 1 << 20


def _body_ranges(path: str) -> tuple[list[str], list[tuple[int, int]]] | None:
    """(header names, (start offset, line count) per range) of the file at
    path. The names are its first line split at commas. The ranges cut the
    body after it into runs of whole lines: one run for a body of up to
    CHUNK_ROWS lines, else up to _pool.WORKERS runs.

    None for a path that is not a regular file, which is then not opened
    (opening and closing a pipe can end its writer's stream), for a file
    with an empty cell (a missing value: no parse is spent on it), and when
    a record might not be one physical line that csv.reader reads as
    numpy.loadtxt does: the file is empty or holds a '"', a control byte
    but '\\r\\n' and '\\n' (loadtxt reads "\\x1c1" as 1.0, float() not) or a
    line (with its line break) over csv.field_size_limit() bytes, its last
    line has no '\\n', or its header is not UTF-8.
    """
    if not os.path.isfile(path):
        return None
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.readline()
        bounds = [len(head)]
        for i in range(1, _pool.WORKERS):
            fh.seek(max(bounds[-1], len(head) + (size - len(head)) * i // _pool.WORKERS))
            fh.readline()
            bounds.append(fh.tell())
        bounds.append(size)
        # the scan runs in numpy, several times faster than bytes.count
        block = bytearray(_SCAN_BYTES)
        carriage_returns = crlf = controls = last = 0
        last_lf = -1
        counts = []
        fh.seek(0)
        for stop in bounds:
            lines = 0
            while (offset := fh.tell()) < stop:
                read = fh.readinto(memoryview(block)[:min(_SCAN_BYTES, stop - offset)])
                if not read:  # the file shrank under the scan
                    return None
                byte = np.frombuffer(block, np.uint8, read)
                if (byte == ord('"')).any():
                    return None
                controls += np.count_nonzero(byte < 0x20)
                comma, cr, lf = byte == ord(","), byte == ord("\r"), byte == ord("\n")
                carriage_returns += np.count_nonzero(cr)
                crlf += np.count_nonzero(cr[:-1] & lf[1:]) + (last == ord("\r") and lf[0])
                # an empty cell: a ',' before a ',' or a line break, or after a '\n'
                cell_end = comma | cr | lf
                if ((comma[:-1] & cell_end[1:]).any() or (lf[:-1] & comma[1:]).any()
                        or last == ord(",") and cell_end[0] or last == ord("\n") and comma[0]):
                    return None
                last = byte[-1]
                ends = np.flatnonzero(lf) + offset
                if ends.size:
                    if np.diff(ends, prepend=last_lf).max() > limit:
                        return None
                    last_lf, lines = ends[-1], lines + ends.size
            counts.append(int(lines))
    if (carriage_returns != crlf or controls != carriage_returns + sum(counts)
            or not head or last_lf != size - 1):
        return None
    try:
        header = [name.strip() for name in head.decode("utf-8").split(",")]
    except UnicodeDecodeError:
        return None
    body = counts[1:]
    if sum(body) <= CHUNK_ROWS:
        return header, [(bounds[0], sum(body))]
    return header, list(zip(bounds, body))
