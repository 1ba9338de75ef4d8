"""Cleansing, categorical encoding, and min-max normalization.

The three stages run in that order: drop rows with missing values, map
proto/state tokens to integer codes, then scale every feature column to
[0, 1]. Encoding and scaling are fit/apply pairs whose fitted parameters
serialize to JSON so a pipeline can be re-applied to new data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CleanseError, EncodingError, LoadError, SchemaError
from .flows import (CATEGORICAL_FIELDS, Dataset, FlowTable, Schema, _finite,
                    _read_json, _write_json)

# First code assigned per categorical column. proto codes count up from 1,
# state codes from 10, so the two code ranges cannot be confused in output.
_CODE_START = {"proto": 1, "state": 10}


def cleanse(flows: FlowTable,
            schema: Schema | None = None,
            columns: Sequence[str] | None = None) -> FlowTable:
    """Drop rows with a missing value in any enforced column.

    Enforced columns are `columns` when given, otherwise all schema-declared
    feature columns that carry at least one value somewhere in the data
    (a column absent from the file, or empty in every row, is not
    enforced). Relative row order is preserved. Labels are validated at
    load time and are always present. The returned table's missing_counts
    gives, per enforced column, how many input rows had no value there.
    """
    if columns is None:
        observed = [c for c in flows.columns if flows.present(c).any()]
        if schema is not None:
            enforced = [c for c in schema.feature_columns() if c in observed]
        else:
            enforced = observed
    else:
        enforced = list(columns)
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
        payload = {"proto": self.proto_codes, "state": self.state_codes}
        payload.update(self.extra_codes)
        _write_json(path, payload)

    @classmethod
    def from_json(cls, path: str) -> "EncodingMap":
        """The map to_json wrote: an object mapping each column to an
        object of token -> integer code. Anything else is a LoadError
        naming the path and the key."""
        payload = _json_object(path, "encoding file")
        for column, codes in payload.items():
            if not isinstance(codes, dict):
                raise LoadError(f"{path}: key {column!r} must hold an object "
                                f"of token codes")
            for token, code in codes.items():
                if type(code) is not int:
                    raise LoadError(f"{path}: key {column!r}: code of token "
                                    f"{token!r} is {code!r}, not an integer")
        proto = payload.pop("proto", {})
        state = payload.pop("state", {})
        return cls(proto_codes=proto, state_codes=state, extra_codes=payload)


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
    known = dict(mapping.extra_codes)
    known["proto"] = mapping.proto_codes
    known["state"] = mapping.state_codes
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

    def to_json(self, path: str) -> None:
        payload = {
            "features": list(self.feature_names),
            "min": [float(v) for v in self.minima],
            "max": [float(v) for v in self.maxima],
        }
        _write_json(path, payload, sort_keys=False)

    @classmethod
    def from_json(cls, path: str) -> "ScalerParams":
        """The parameters to_json wrote: "features" (names), "min" and
        "max" (one finite number per feature). Anything else is a LoadError
        naming the path and the key."""
        payload = _json_object(path, "scaler file")
        for key in ("features", "min", "max"):
            if key not in payload:
                raise LoadError(f"{path}: key {key!r} is missing")
            if type(payload[key]) is not list:
                raise LoadError(f"{path}: key {key!r} must hold a list")
        names = payload["features"]
        if not all(type(name) is str for name in names):
            raise LoadError(f"{path}: key 'features' must list names")
        for key in ("min", "max"):
            values = payload[key]
            if len(values) != len(names):
                raise LoadError(f"{path}: key {key!r} has {len(values)} values "
                                f"for {len(names)} features")
            if not all(map(_finite, values)):
                raise LoadError(f"{path}: key {key!r} must hold finite numbers")
        return cls(feature_names=tuple(names),
                   minima=np.array(payload["min"], dtype=np.float64),
                   maxima=np.array(payload["max"], dtype=np.float64))


def _json_object(path: str, what: str) -> dict:
    payload = _read_json(path, what, LoadError)
    if not isinstance(payload, dict):
        raise LoadError(f"{path}: {what} must hold a JSON object")
    return payload


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
