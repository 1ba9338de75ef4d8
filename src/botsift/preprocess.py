"""Cleansing, categorical encoding, and min-max normalization.

The three stages run in that order: drop rows with missing values, map
proto/state tokens to integer codes, then scale every feature column to
[0, 1]. Encoding and scaling are fit/apply pairs; only the encoding is
written out (EncodingMap.to_json), as a record of the codes a run used.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import CleanseError, EncodingError, SchemaError
from .flows import CATEGORICAL_FIELDS, Dataset, FlowTable, Schema, _write_json

# First code assigned per categorical column. proto codes count up from 1,
# state codes from 10, so the two code ranges cannot be confused in output.
_CODE_START = {"proto": 1, "state": 10}


def cleanse(flows: FlowTable, schema: Schema | None = None) -> FlowTable:
    """Drop rows with a missing value in any enforced column.

    Enforced columns are the columns (the schema's feature columns, when
    a schema is given) that carry at least one value somewhere in the data
    (a column absent from the file, or empty in every row, is not
    enforced). Relative row order is preserved. Labels are validated at
    load time and are always present. The returned table's missing_counts
    gives, per enforced column, how many input rows had no value there.
    """
    enforced = [c for c in flows.columns if flows.present(c).any()]
    if schema is not None:
        enforced = [c for c in schema.feature_columns() if c in enforced]
    keep = np.ones(len(flows), dtype=bool)
    missing: dict[str, int] = {}
    for column in enforced:
        present = flows.present(column)
        missing[column] = len(flows) - int(np.count_nonzero(present))
        keep &= present
    if len(flows) and not keep.any():
        raise CleanseError(
            f"cleansing removed all {len(flows)} rows "
            f"(enforced columns: {enforced})")
    return dataclasses.replace(flows.take(keep), missing_counts=missing)


@dataclass
class EncodingMap:
    """Token -> integer code tables for categorical columns.

    Codes are assigned in order of first appearance; proto codes start at
    1 and state codes at 10.
    """

    proto_codes: dict[str, int] = field(default_factory=dict)
    state_codes: dict[str, int] = field(default_factory=dict)
    extra_codes: dict[str, dict[str, int]] = field(default_factory=dict)

    def codes_for(self, column: str) -> dict[str, int]:
        if column == "proto":
            return self.proto_codes
        if column == "state":
            return self.state_codes
        return self.extra_codes.setdefault(column, {})

    def to_json(self, path: str) -> None:
        _write_json(path, {**self.extra_codes, "proto": self.proto_codes,
                           "state": self.state_codes})


def _categorical_columns(flows: FlowTable, schema: Schema | None) -> list[str]:
    if schema is not None:
        declared = {c for c, r in schema.roles.items() if r == "categorical"}
        return [c for c in flows.columns if c in declared]
    return [c for c, column in flows.columns.items()
            if c in CATEGORICAL_FIELDS or column.dtype.kind == "U"]


def fit_encoding(flows: FlowTable, schema: Schema | None = None) -> EncodingMap:
    """Assign integer codes to categorical tokens by first appearance."""
    mapping = EncodingMap()
    for column in _categorical_columns(flows, schema):
        codes = mapping.codes_for(column)
        tokens = flows.columns[column]
        if tokens.dtype.kind != "U":
            continue
        distinct, first = np.unique(tokens[tokens != ""], return_index=True)
        start = _CODE_START.get(column, 1)
        for code, token in enumerate(distinct[np.argsort(first)].tolist(), start):
            codes[token] = code
    return mapping


def apply_encoding(flows: FlowTable, mapping: EncodingMap) -> FlowTable:
    """Replace categorical tokens with their codes; returns a new table.

    A token with no code in the map is an error naming the line, column
    and token, so encodings fitted on one split never silently mislabel
    another. Missing tokens stay missing (NaN).
    """
    known = {**mapping.extra_codes, "proto": mapping.proto_codes,
             "state": mapping.state_codes}
    columns = dict(flows.columns)
    for column, codes in known.items():
        tokens = columns.get(column)
        if tokens is None or tokens.dtype.kind != "U":
            continue
        distinct, inverse = np.unique(tokens, return_inverse=True)
        distinct = distinct.tolist()
        unknown = [t != "" and t not in codes for t in distinct]
        if any(unknown):
            row = int(np.flatnonzero(np.asarray(unknown)[inverse])[0])
            raise EncodingError(
                f"line {flows.lines[row]}: column {column!r} has unknown "
                f"token {distinct[inverse[row]]!r}")
        lookup = np.array([float(codes[t]) if t else np.nan for t in distinct],
                          dtype=np.float64)
        columns[column] = lookup[inverse]
    return FlowTable(columns, flows.labels, flows.lines)


@dataclass
class ScalerParams:
    """Per-feature min/max fitted on one dataset."""

    feature_names: tuple[str, ...]
    minima: np.ndarray
    maxima: np.ndarray


def fit_scaler(dataset: Dataset) -> ScalerParams:
    if dataset.n_rows == 0:
        raise SchemaError("cannot fit a scaler on an empty dataset")
    return ScalerParams(
        feature_names=dataset.feature_names,
        minima=dataset.features.min(axis=0),
        maxima=dataset.features.max(axis=0),
    )


def apply_scaler(dataset: Dataset, params: ScalerParams) -> Dataset:
    """Scale each feature to [0, 1] as (x - min) / (max - min).

    A constant fitted column maps to 0. Values outside the fitted range
    (possible when applying train-fitted params to test data) are clamped
    into [0, 1].
    """
    if params.feature_names != dataset.feature_names:
        raise SchemaError(
            f"scaler was fitted on columns {params.feature_names}, "
            f"dataset has {dataset.feature_names}")
    span = params.maxima - params.minima
    constant = span == 0
    safe_span = np.where(constant, 1.0, span)
    scaled = (dataset.features - params.minima) / safe_span
    scaled[:, constant] = 0.0
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return Dataset(scaled, dataset.labels, dataset.feature_names)
