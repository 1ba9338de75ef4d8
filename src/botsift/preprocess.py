"""Cleansing, categorical encoding, and min-max normalization.

The three stages run in that order: drop rows with missing values, map
tokens to integer codes, then scale every feature column to [0, 1]. They
read the table, not a schema: load_csv has already kept the columns a
schema keeps, numeric ones as float64 and categorical ones as tokens.
Scaling is a fit/apply pair; encoding is one step whose code tables a
run records (ingest writes them to encoding.json).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CleanseError, LoadError, SchemaError
from .flows import Dataset, FlowTable

# First code assigned per token column. proto codes count up from 1,
# state codes from 10, so the two code ranges cannot be confused in output;
# any other token column counts up from 1.
_CODE_START = {"proto": 1, "state": 10}


def cleanse(flows: FlowTable) -> FlowTable:
    """Drop rows with a missing value in any enforced column.

    Enforced columns are the columns that carry at least one value
    somewhere in the data (a column empty in every row is not enforced);
    in a table from load_csv, that is any column the schema keeps, listed
    or by default_role. Relative row order is preserved. Labels are
    validated at load time and are always present. The returned table's
    missing_counts gives, per enforced column, how many input rows had no
    value there.
    """
    enforced = [c for c in flows.columns if flows.present(c).any()]
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
    # columns are frozen, so a table that loses no row shares them
    kept = flows if keep.all() else flows.take(keep)
    return replace(kept, missing_counts=missing)


def encode(flows: FlowTable) -> tuple[FlowTable, dict[str, dict[str, int]]]:
    """Replace every token column's tokens with integer codes.

    Returns the encoded table and the code tables, token -> code per token
    column, with proto and state always present. Codes go by first
    appearance from _CODE_START; a missing token ("") stays missing (NaN).
    """
    columns = dict(flows.columns)
    codes: dict[str, dict[str, int]] = {name: {} for name in _CODE_START}
    for name, tokens in flows.columns.items():
        if tokens.dtype.kind != "U":
            continue
        distinct, first, inverse = np.unique(tokens, return_index=True,
                                             return_inverse=True)
        order = np.argsort(first)
        order = order[distinct[order] != ""]  # a missing token gets no code
        start = _CODE_START.get(name, 1)
        assigned = np.arange(start, start + len(order))
        lookup = np.full(len(distinct), np.nan)
        lookup[order] = assigned
        codes[name] = dict(zip(distinct[order].tolist(), assigned.tolist()))
        columns[name] = lookup[inverse]
    return replace(flows, columns=columns), codes


@dataclass
class ScalerParams:
    """Per-feature min/max fitted on one dataset."""

    feature_names: tuple[str, ...]
    minima: np.ndarray
    maxima: np.ndarray


def fit_scaler(dataset: Dataset) -> ScalerParams:
    if dataset.n_rows == 0:
        raise LoadError("cannot fit a scaler on an empty dataset")
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
    scaled = dataset.features - params.minima
    scaled /= safe_span
    scaled[:, constant] = 0.0
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return Dataset(scaled, dataset.labels, dataset.feature_names)
