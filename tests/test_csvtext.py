"""The CSV text _csvtext.chunk computes in numpy, against the cell rule
applied one value at a time (conftest.reference_cell, csv.writer).

numpy array arithmetic wraps without a word, but scalar arithmetic only
warns on overflow, so CI runs this file with -W error::RuntimeWarning."""

import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botsift import Dataset, FlowTable, _csvtext, _pool, write_dataset_csv, write_records_csv
from botsift.flows import CHUNK_ROWS

from conftest import reference_bytes, reference_cell


def cells(values: np.ndarray) -> list[str]:
    """chunk's cells of one column."""
    return _csvtext.chunk([values]).decode("utf-8").split("\r\n")[:-1]


def expected(values: np.ndarray) -> list[str]:
    """The cells of a float64 column, one value at a time; NaN is missing."""
    return [reference_cell(None if math.isnan(v) else v) for v in values.tolist()]


def neighbours(values) -> np.ndarray:
    """values, each with the doubles just below and above it."""
    values = np.asarray(values, np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)])


# The fixed sweep: each group of values where a layout or a table entry changes.
SWEEP = {
    "powers of two": neighbours([2.0 ** e for e in range(-1074, 1024)]),
    "powers of ten": neighbours([float(f"1e{k}") for k in range(-323, 309)]),
    "subnormals": np.array([5e-324, 8e-323, 1e-322, 2.2250738585072009e-308,
                            np.nextafter(2.2250738585072014e-308, 0)]),
    "zeros, infinities and NaN": np.array([0.0, -0.0, np.inf, -np.inf, np.nan]),
    "1e16": neighbours([1e16, -1e16]),
    "2**53": neighbours([2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 1]),
    "1e-4 and 1e-5": neighbours([1e-4, 1e-5, 9.999e-5, 1.5e-5, 0.00012, 0.000099]),
    "largest": np.array([1.7976931348623157e308, np.nextafter(1.7976931348623157e308, 0)]),
}


@pytest.mark.parametrize("group", list(SWEEP))
def test_the_sweep_is_written_as_repr_writes_it(group):
    values = np.concatenate([SWEEP[group], -SWEEP[group]])
    assert cells(values) == expected(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@example([0x7FF0000000000001, 0xFFF8000000000000, 0x0000000000000001, 0x8000000000000000])
def test_any_bit_pattern_is_written_as_repr_writes_it(patterns):
    # signalling NaNs included: no arithmetic on them may warn
    values = np.array(patterns, np.uint64).view(np.float64)
    assert cells(values) == expected(values)


def test_random_bit_patterns_by_the_thousand():
    values = np.random.default_rng(29).integers(
        0, 2 ** 64, 100_000, np.uint64, endpoint=False).view(np.float64)
    assert cells(values) == expected(values)


def test_int64_cells_are_their_digits():
    values = np.array([0, 1, -1, 7, -123456789, 2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1,
                       10 ** 16, 10 ** 17 + 3, 2 ** 63 - 1, -(2 ** 63)], np.int64)
    assert cells(values) == [str(v) for v in values.tolist()]


# One value of each layout: whole numbers, positional with and without
# leading zeros, exponent form with one, two and three exponent digits
# and one or more digits, subnormal and special values.
LAYOUTS = [0.0, -0.0, 7.0, -42.0, 123456789012345.0, 9999999999999998.0, 1.5, -0.25,
           123.456, -98765.4321, 1234567890123456.8, 0.001234, -0.000999, 0.1,
           1e-05, -2.5e-07, 1.2345e+100, -1e+16, 1.7976931348623157e+308,
           2.2250738585072014e-308, -1e-100, 3.14e-250, 5e-324, -8e-323]


def test_one_chunk_holds_every_layout_next_to_every_other():
    # each column runs through the layouts at its own pace, so that every
    # layout meets every other in the cells before and after it
    rows = len(LAYOUTS) ** 2
    columns = [np.array([LAYOUTS[i % len(LAYOUTS)] for i in range(rows)]),
               np.array([LAYOUTS[i // len(LAYOUTS)] for i in range(rows)]),
               np.array([LAYOUTS[(i * 7) % len(LAYOUTS)] for i in range(rows)]),
               np.array(["tcp", 'a"b', "x,y", "", "é"] * (rows // 5) + ["udp"] * (rows % 5)),
               np.arange(rows) % 2]
    text = reference_bytes(["x", "y", "z", "proto", "attack"], [
        [reference_cell(v) for v in row[:4]] + [str(row[4])]
        for row in zip(*(column.tolist() for column in columns))])
    assert _csvtext.chunk(columns) == text[len(b"x,y,z,proto,attack\r\n"):]


@pytest.mark.parametrize("rows", [CHUNK_ROWS - 1, 2 * CHUNK_ROWS + 1])
def test_the_writers_lay_out_every_layout_across_chunks(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(_pool, "WORKERS", 2)
    layouts = LAYOUTS + [np.inf, -np.inf, np.nan]
    x = np.array([layouts[i % len(layouts)] for i in range(rows)])
    finite = np.where(np.isfinite(x), x, 2.5)
    labels = np.arange(rows) % 2
    path = str(tmp_path / "data.csv")
    write_records_csv(FlowTable({"x": x, "y": -finite[::-1]}, labels), path)
    with open(path, "rb") as fh:
        assert fh.read() == reference_bytes(
            ["x", "y", "attack"],
            [[reference_cell(None if math.isnan(a) else a), reference_cell(b), str(y)]
             for a, b, y in zip(x.tolist(), (-finite[::-1]).tolist(), labels.tolist())])
    write_dataset_csv(Dataset(np.column_stack([finite, finite[::-1]]), labels, ("a", "b")),
                      path, synthetic=labels[::-1])
    with open(path, "rb") as fh:
        assert fh.read() == reference_bytes(
            ["a", "b", "attack", "synthetic"],
            [[reference_cell(a), reference_cell(b), str(y), str(f)] for a, b, y, f in
             zip(finite.tolist(), finite[::-1].tolist(), labels.tolist(),
                 labels[::-1].tolist())])
    assert sorted(os.listdir(tmp_path)) == ["data.csv", "data.csv.parsed"]
