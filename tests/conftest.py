import os

import numpy as np
import pytest

from botsift import Dataset, FlowTable, LoadError
from botsift.flows import SIDECAR_SUFFIX


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_dataset(X, y, names=None) -> Dataset:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if names is None:
        names = tuple(f"f{i}" for i in range(X.shape[1]))
    return Dataset(X, np.asarray(y, dtype=np.int64), tuple(names))


def make_flows(rows) -> FlowTable:
    """A FlowTable from row dicts: column values (None where missing) and
    the attack label. A row without a column has no value there; a column
    holding any string is a token column."""
    names = list(dict.fromkeys(k for row in rows for k in row if k != "attack"))
    columns = {}
    for name in names:
        values = [row.get(name) for row in rows]
        if any(isinstance(v, str) for v in values):
            columns[name] = np.array(["" if v is None else v for v in values], dtype=str)
        else:
            columns[name] = np.array(values, dtype=np.float64)  # None -> NaN
    return FlowTable(columns, [row["attack"] for row in rows])


def drop_sidecar(path) -> None:
    """Remove the sidecar write_dataset_csv keeps beside the CSV at path,
    so that a read of path parses it."""
    os.remove(str(path) + SIDECAR_SUFFIX)


def table_bytes(table):
    """A flow table's columns (names, dtypes, values) and labels as bytes."""
    return ([(name, column.dtype.str, column.tobytes())
             for name, column in table.columns.items()],
            table.labels.tobytes())


def read_outcome(read, path):
    """What read returns for path, as bytes, or the LoadError it raises."""
    try:
        result = read(path)
    except LoadError as exc:
        return str(exc)
    if isinstance(result, FlowTable):
        return table_bytes(result)
    dataset, flags = result
    return (dataset.feature_names, dataset.features.tobytes(),
            dataset.labels.tobytes(), None if flags is None else flags.tobytes())
