"""Loading, schemas, class summaries, and CSV round-trips."""

import csv
import io
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botsift import (Dataset, FlowTable, LoadError, Schema, SchemaError,
                     class_summary, default_schema, load_csv,
                     read_dataset_csv, to_dataset, write_dataset_csv,
                     write_records_csv)
from botsift import _pool, flows
from botsift.flows import CHUNK_ROWS

from conftest import make_dataset, make_flows


def write(tmp_path, text, name="flows.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSchema:
    def test_exactly_one_label_required(self):
        with pytest.raises(SchemaError):
            Schema(roles={"pkts": "numeric"})
        with pytest.raises(SchemaError):
            Schema(roles={"a": "label", "b": "label"})

    def test_unknown_role_rejected(self):
        with pytest.raises(SchemaError):
            Schema(roles={"attack": "label", "pkts": "gauge"})

    def test_default_schema_covers_named_fields(self):
        schema = default_schema()
        assert schema.label_column == "attack"
        assert schema.role_of("proto") == "categorical"
        assert schema.role_of("rate") == "numeric"
        assert schema.role_of("never-seen-column") == "ignore"

    def test_round_trips_through_json(self, tmp_path):
        schema = Schema(roles={"attack": "label", "pkts": "numeric"},
                        default_role="numeric")
        path = str(tmp_path / "schema.json")
        schema.to_json(path)
        again = Schema.from_json(path)
        assert again.roles == schema.roles
        assert again.default_role == "numeric"


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = write(tmp_path, "pkts,proto,attack\n10,tcp,0\n20,udp,1\n30,tcp,1\n")
        flows = load_csv(path)
        assert len(flows) == 3
        assert flows.columns["pkts"].tolist() == [10.0, 20.0, 30.0]
        assert flows.columns["proto"].tolist() == ["tcp", "udp", "tcp"]
        assert flows.labels.tolist() == [0, 1, 1]

    def test_missing_cells_become_none(self, tmp_path):
        path = write(tmp_path, "pkts,dur,attack\n10,,0\n,2.5,1\njunk,3.5,1\n")
        flows = load_csv(path)
        assert np.isnan(flows.columns["dur"][0])
        assert np.isnan(flows.columns["pkts"][1])
        assert np.isnan(flows.columns["pkts"][2])  # unparseable numeric = missing

    def test_row_order_preserved(self, tmp_path):
        path = write(tmp_path, "pkts,attack\n" +
                     "".join(f"{i},{i % 2}\n" for i in range(50)))
        flows = load_csv(path)
        assert flows.columns["pkts"].tolist() == [float(i) for i in range(50)]

    def test_missing_file(self):
        with pytest.raises(LoadError, match="not found"):
            load_csv("/nonexistent/flows.csv")

    def test_header_without_label_column(self, tmp_path):
        path = write(tmp_path, "pkts,proto\n10,tcp\n")
        with pytest.raises(LoadError, match="attack"):
            load_csv(path)

    def test_label_outside_01(self, tmp_path):
        path = write(tmp_path, "pkts,attack\n10,2\n")
        with pytest.raises(LoadError, match="label"):
            load_csv(path)
        path = write(tmp_path, "pkts,attack\n10,\n", name="empty_label.csv")
        with pytest.raises(LoadError, match="label"):
            load_csv(path)

    def test_negative_count_rejected(self, tmp_path):
        path = write(tmp_path, "pkts,attack\n-3,0\n")
        with pytest.raises(LoadError, match="negative"):
            load_csv(path)

    def test_undeclared_columns_ignored_by_default(self, tmp_path):
        path = write(tmp_path, "pkts,flowid,attack\n10,abc,0\n")
        flows = load_csv(path)
        assert list(flows.columns) == ["pkts"]

    def test_declared_extra_column_is_kept(self, tmp_path):
        schema = Schema(roles={"attack": "label", "pkts": "numeric",
                               "ttl": "numeric"})
        path = write(tmp_path, "pkts,ttl,attack\n10,64,0\n")
        flows = load_csv(path, schema)
        assert flows.columns["ttl"].tolist() == [64.0]


    def test_short_row_is_an_error_naming_its_line(self, tmp_path):
        # a short row never reaches its label cell; it must not load as
        # normal traffic
        path = write(tmp_path, "pkts,dur,attack\n3,1\n")
        with pytest.raises(LoadError, match=r"flows\.csv:2: row has 2 cells, header has 3"):
            load_csv(path)

    def test_surplus_cells_are_an_error_naming_their_line(self, tmp_path):
        path = write(tmp_path, "pkts,dur,attack\n1,2,0\n1,2,0,99\n")
        with pytest.raises(LoadError, match=r"flows\.csv:3: row has 4 cells"):
            load_csv(path)

    def test_first_offending_line_is_named(self, tmp_path):
        label_first = write(tmp_path, "pkts,attack\n1,0\n2,7\n3\n",
                            name="label_first.csv")
        with pytest.raises(LoadError, match=r"label_first\.csv:3: label"):
            load_csv(label_first)
        ragged_first = write(tmp_path, "pkts,attack\n1,0\n3\n2,7\n-1,0\n",
                             name="ragged_first.csv")
        with pytest.raises(LoadError, match=r"ragged_first\.csv:3: row has 1 cells"):
            load_csv(ragged_first)
        # a negative value on line 2 comes before a bad label on line 3,
        # though labels are checked first within a line
        mixed = write(tmp_path, "pkts,dur,attack\n1,-2,0\n-1,1,5\n-1,1,5\n",
                      name="mixed.csv")
        with pytest.raises(LoadError, match=r"mixed\.csv:2: field 'dur' is negative"):
            load_csv(mixed)
        same_line = write(tmp_path, "pkts,dur,attack\n1,2,0\n-1,1,5\n",
                          name="same_line.csv")
        with pytest.raises(LoadError, match=r"same_line\.csv:3: label column 'attack'"):
            load_csv(same_line)

    def test_line_numbers_run_across_chunks_and_blank_lines(self, tmp_path):
        rows = [f"{i},0" for i in range(CHUNK_ROWS + 10)]
        rows[5] = ""  # a blank line is skipped but keeps its line number
        rows[CHUNK_ROWS + 3] = "-4,0"
        path = write(tmp_path, "pkts,attack\n" + "\n".join(rows) + "\n")
        with pytest.raises(LoadError, match=rf":{CHUNK_ROWS + 5}: field 'pkts' is negative"):
            load_csv(path)
        rows[CHUNK_ROWS + 3] = "4,0"
        flows = load_csv(write(tmp_path, "pkts,attack\n" + "\n".join(rows) + "\n",
                               name="fine.csv"))
        assert len(flows) == CHUNK_ROWS + 9
        assert flows.lines[:6].tolist() == [2, 3, 4, 5, 6, 8]
        assert flows.lines[-1] == CHUNK_ROWS + 11

    def test_lines_after_a_quoted_line_break_are_physical(self, tmp_path):
        # the bad label sits on physical line 4, the third CSV record
        path = write(tmp_path, 'pkts,proto,attack\n1,"a\nb",0\n2,tcp,7\n')
        with pytest.raises(LoadError, match=r"flows\.csv:4: label column 'attack'"):
            load_csv(path)
        fine = write(tmp_path, 'pkts,"pr\noto",attack\n1,"a\r\nb\rc",0\n\n2,tcp,1\n'
                     '3,"\n\n",0\n4,udp,1\n', name="fine.csv")
        schema = Schema({"pkts": "numeric", "pr\noto": "categorical",
                         "attack": "label"})
        flows = load_csv(fine, schema)
        assert flows.lines.tolist() == [3, 7, 8, 11]

    def test_quoted_line_breaks_across_a_chunk_boundary(self, tmp_path):
        rows = [f"{i},x,0" for i in range(CHUNK_ROWS + 3)]
        rows[CHUNK_ROWS - 1] = '1,"x\ny",0'  # the last record of the first chunk
        rows[CHUNK_ROWS + 1] = "1,x,9"
        path = write(tmp_path, "pkts,proto,attack\n" + "\n".join(rows) + "\n")
        with pytest.raises(LoadError, match=rf":{CHUNK_ROWS + 4}: label column"):
            load_csv(path)

    def test_a_cell_over_the_field_limit_names_its_line(self, tmp_path):
        path = write(tmp_path, 'pkts,proto,attack\n1,tcp,0\n2,"' + "x" * 200_000
                     + '",1\n')
        with pytest.raises(LoadError, match=r"flows\.csv:3: field larger than field limit"):
            load_csv(path)

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_bytes(b"pkts,proto,attack\n1,tcp,0\n2,\"a\r\nb\",1\n3,\xff,0\n")
        with pytest.raises(LoadError, match=r"flows\.csv:5: byte 0xff is not UTF-8"):
            load_csv(str(path))

    def test_repeated_header_column_rejected(self, tmp_path):
        path = write(tmp_path, "pkts,pkts,attack\n1,2,0\n")
        with pytest.raises(LoadError, match="repeats column 'pkts'"):
            load_csv(path)


class TestReadDatasetCsv:
    @pytest.mark.parametrize("text, message", [
        ("a,b,attack\n1,0\n", r"data\.csv:2: row has 2 cells, header has 3"),
        ("a,attack,synthetic\n1,0,x\n", r"data\.csv:2: synthetic flag 'x'"),
        ("a,attack\n1,0\n1,2\n", r"data\.csv:3: label value '2'"),
        ("a,attack\n1,0\noops,1\n", r"data\.csv:3: feature cell 'oops' is not a finite"),
        ("a,b,attack\n1,2,0\n1,nan,1\n", r"data\.csv:3: feature cell 'nan' is not a finite"),
        ("a,attack\n1,0\ninf,1\noops,0\n", r"data\.csv:3: feature cell 'inf'"),
        ("a,attack\n1,0\n2,1,5\n", r"data\.csv:3: row has 3 cells"),
    ])
    def test_bad_rows_name_file_and_line(self, tmp_path, text, message):
        path = write(tmp_path, text, name="data.csv")
        with pytest.raises(LoadError, match=message):
            read_dataset_csv(path)

    def test_flag_on_an_earlier_line_than_a_label_is_named(self, tmp_path):
        path = write(tmp_path, "a,attack,synthetic\n1,0,x\n1,5,0\n", name="data.csv")
        with pytest.raises(LoadError, match=r"data\.csv:2: synthetic flag 'x'"):
            read_dataset_csv(path)

    def test_lines_after_a_quoted_line_break_are_physical(self, tmp_path):
        path = write(tmp_path, 'a,attack\n"1\n",0\n2,x\n', name="data.csv")
        with pytest.raises(LoadError, match=r"data\.csv:4: label value 'x'"):
            read_dataset_csv(path)

    def test_label_on_an_earlier_line_than_a_short_row_is_named(self, tmp_path):
        path = write(tmp_path, "a,attack\n1,3\n2\n", name="data.csv")
        with pytest.raises(LoadError, match=r"data\.csv:2: label value '3'"):
            read_dataset_csv(path)

    def test_a_cell_over_the_field_limit_names_its_line(self, tmp_path):
        path = write(tmp_path, 'a,attack\n1,0\n"' + "9" * 200_000 + '",1\n',
                     name="data.csv")
        with pytest.raises(LoadError, match=r"data\.csv:3: field larger than field limit"):
            read_dataset_csv(path)

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        # past the text layer's first 8 KB read, with line breaks of every kind
        body = "".join(f"{i},0\r\n" for i in range(2000)) + "1,0\r2,1\n3,\xff\n"
        path = tmp_path / "data.csv"
        path.write_bytes(("a,attack\n" + body).encode("latin-1"))
        with pytest.raises(LoadError, match=r"data\.csv:2004: byte 0xff is not UTF-8"):
            read_dataset_csv(str(path))


class TestClassSummary:
    def test_counts_and_means(self):
        flows = make_flows([
            dict(pkts=10.0, attack=0),
            dict(pkts=20.0, attack=0),
            dict(pkts=100.0, attack=1),
        ])
        summary = class_summary(flows)
        assert summary.counts == (2, 1)
        assert summary.means[0]["pkts"] == 15.0
        assert summary.means[1]["pkts"] == 100.0

    def test_means_skip_missing_values(self):
        flows = make_flows([
            dict(pkts=10.0, dur=None, attack=0),
            dict(pkts=30.0, dur=4.0, attack=0),
        ])
        summary = class_summary(flows)
        assert summary.means[0]["pkts"] == 20.0
        assert summary.means[0]["dur"] == 4.0

    def test_means_sum_in_row_order(self, rng):
        # the running total of a row loop, not a pairwise sum: the two
        # differ in the last bits on values like these
        values = rng.lognormal(0.0, 4.0, 5000)
        values[::7] = np.nan
        summary = class_summary(FlowTable({"pkts": values},
                                          np.zeros(values.size, dtype=np.int64)))
        total, n = 0.0, 0
        for v in values.tolist():
            if v == v:  # not NaN
                total += v
                n += 1
        assert summary.means[0]["pkts"] == total / n
        assert float(np.sum(values[~np.isnan(values)])) / n != total / n

    def test_empty_class_absent_not_zero(self):
        flows = make_flows([dict(pkts=5.0, attack=1)])
        summary = class_summary(flows)
        assert summary.counts == (0, 1)
        assert 0 not in summary.means
        assert summary.means[1]["pkts"] == 5.0


class TestDataset:
    def test_validates_alignment(self):
        with pytest.raises(LoadError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), ("a", "b"))

    def test_rejects_nan(self):
        with pytest.raises(LoadError, match="NaN|cleanse"):
            make_dataset([[1.0], [np.nan]], [0, 1])

    def test_rejects_bad_labels(self):
        with pytest.raises(LoadError):
            make_dataset([[1.0], [2.0]], [0, 2])

    def test_rejects_duplicate_names(self):
        with pytest.raises(LoadError):
            make_dataset([[1.0, 2.0]], [0], names=("a", "a"))

    def test_class_counts(self):
        ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 1])
        assert ds.class_counts == (1, 2)

    def test_arrays_are_frozen(self):
        ds = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_take_selects_rows_into_frozen_arrays(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [0, 1, 1],
                          names=("a", "b"))
        for rows in (np.array([2, 0]), np.array([True, False, True]), slice(None, None, 2)):
            subset = ds.take(rows)
            assert np.array_equal(subset.features, ds.features[rows])
            assert np.array_equal(subset.labels, ds.labels[rows])
            assert subset.feature_names == ("a", "b")
            assert subset.features.flags.c_contiguous
            for array in (subset.features, subset.labels):
                assert not array.flags.writeable
        with pytest.raises(IndexError):
            ds.take(np.array([3]))

    def test_to_dataset_uses_fully_numeric_columns(self):
        flows = make_flows([
            dict(pkts=1.0, proto="tcp", dur=2.0, attack=0),
            dict(pkts=3.0, proto="udp", dur=None, attack=1),
        ])
        ds = to_dataset(flows)
        # proto is a token and dur has a gap; only pkts qualifies
        assert ds.feature_names == ("pkts",)

    def test_to_dataset_explicit_missing_feature_errors(self):
        flows = make_flows([dict(pkts=1.0, attack=0)])
        with pytest.raises(LoadError, match="dur"):
            to_dataset(flows, features=["dur"])


class TestCsvRoundTrip:
    def test_records_round_trip_counts_and_means(self, tmp_path, rng):
        rows = []
        for i in range(200):
            rows.append(dict(
                pkts=float(rng.integers(1, 1000)),
                dur=float(rng.random() * 37.5),
                rate=float(rng.lognormal(2.0, 1.5)),
                proto=str(rng.choice(["tcp", "udp", "icmp"])),
                attack=int(rng.integers(0, 2)),
            ))
        flows = make_flows(rows)
        path = str(tmp_path / "out.csv")
        write_records_csv(flows, path)
        again = load_csv(path)
        before, after = class_summary(flows), class_summary(again)
        assert before.counts == after.counts
        assert before.means == after.means  # exact, not approximate

    def test_dataset_round_trip_is_exact(self, tmp_path, rng):
        ds = make_dataset(rng.lognormal(0, 3, (100, 4)), rng.integers(0, 2, 100))
        path = str(tmp_path / "data.csv")
        write_dataset_csv(ds, path)
        again, flags = read_dataset_csv(path)
        assert flags is None
        assert again.feature_names == ds.feature_names
        assert np.array_equal(again.features, ds.features)
        assert np.array_equal(again.labels, ds.labels)

    def test_synthetic_flag_column(self, tmp_path):
        ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 1])
        path = str(tmp_path / "flagged.csv")
        write_dataset_csv(ds, path, synthetic=np.array([0, 0, 1]))
        again, flags = read_dataset_csv(path)
        assert list(flags) == [0, 0, 1]
        assert np.array_equal(again.features, ds.features)

    @pytest.mark.parametrize("flags", [[0, 0.7, 1], [0, 2, 1], [0, -1, 1],
                                       [0, np.nan, 1]])
    def test_writer_rejects_flags_other_than_0_and_1(self, tmp_path, flags):
        ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 1])
        path = str(tmp_path / "flagged.csv")
        with pytest.raises(LoadError, match="synthetic flag of row 1"):
            write_dataset_csv(ds, path, synthetic=np.array(flags))
        write_dataset_csv(ds, path, synthetic=np.array([0.0, 1.0, True]))
        assert list(read_dataset_csv(path)[1]) == [0, 1, 1]


# ---------------------------------------------------------------------------
# Round trips and byte-level format, across the chunk boundaries

ROW_COUNTS = (0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1)
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e16 - 2.0,
                  1e16, 1e16 + 2.0, -1e16 + 2.0, -1e16, 2.0 ** 60, 1.5, -7.0)
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(-2 ** 62, 2 ** 62).map(float))
tokens = st.text(alphabet='ab ,"\n', min_size=1, max_size=5).filter(
    lambda t: t == t.strip())


def cycled(values, rows):
    """values repeated in order until there are rows of them."""
    return [values[i % len(values)] for i in range(rows)]


def reference_cell(value) -> str:
    """A value as a CSV cell, one value at a time (the writers' rule)."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def reference_bytes(header, rows) -> bytes:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


# Edits to one cell of write_dataset_csv output, each valid or not.
CELL_MUTATIONS = (
    lambda c: f" {c} ", lambda c: f'"{c}"', lambda c: f'" {c} "',
    lambda c: f'"{c}\n"', lambda c: f'"{c}\r\n"', lambda c: f'"\n{c}"',
    lambda c: c + "#", lambda c: "#" + c, lambda c: f'"#{c}"', lambda c: c + "\x00",
    lambda c: c + "_0", lambda c: "-" + c, lambda c: f'"{c},"',
    lambda c: "1.0", lambda c: "2", lambda c: " 1 ", lambda c: '" 1 "',
    lambda c: "1_0", lambda c: "\uff11", lambda c: "\u0661", lambda c: "\u00a01",
    lambda c: "nan", lambda c: "inf", lambda c: "-inf", lambda c: "1e400",
    lambda c: "", lambda c: '""', lambda c: "x", lambda c: "0", lambda c: "1",
)
# Edits to one data line, as the lines that replace it.
LINE_MUTATIONS = (
    lambda line: [line, ""], lambda line: ["", line], lambda line: [line, " "],
    lambda line: [line + ",1"], lambda line: [line.rsplit(",", 1)[0]],
    lambda line: [line, "#" + line], lambda line: [line[:1] + "\r" + line[1:]],
    lambda line: [],
)


def read_outcome(read, path):
    """What read returns for path, as bytes, or the LoadError it raises."""
    try:
        dataset, flags = read(path)
    except LoadError as exc:
        return str(exc)
    return (dataset.feature_names, dataset.features.tobytes(),
            dataset.labels.tobytes(), None if flags is None else flags.tobytes())


class TestCsvProperties:
    @settings(max_examples=25, deadline=None)
    @given(rows=st.sampled_from(ROW_COUNTS),
           values=st.lists(st.tuples(finite_floats, finite_floats),
                           min_size=1, max_size=8),
           labels=st.lists(st.integers(0, 1), min_size=1, max_size=8),
           flags=st.one_of(st.none(),
                           st.lists(st.integers(0, 1), min_size=1, max_size=8)))
    def test_dataset_round_trip(self, rows, values, labels, flags):
        X = np.array(cycled(values, rows), dtype=np.float64).reshape(rows, 2)
        y = np.array(cycled(labels, rows), dtype=np.int64)
        synthetic = None if flags is None else np.array(cycled(flags, rows))
        ds = Dataset(X, y, ("a", "b"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            write_dataset_csv(ds, path, synthetic=synthetic)
            with open(path, "rb") as fh:
                written = fh.read()
            again, again_flags = read_dataset_csv(path)
        header = ["a", "b", "attack"] + ([] if flags is None else ["synthetic"])
        expected = [[reference_cell(float(v)) for v in X[i]] + [str(y[i])]
                    + ([] if flags is None else [str(synthetic[i])])
                    for i in range(rows)]
        assert written == reference_bytes(header, expected)
        assert again.feature_names == ("a", "b")
        # values read back equal; the one thing not kept is the sign of a
        # zero, since -0.0 is written as the integer 0
        assert np.array_equal(again.features, X)
        assert np.array_equal(again.labels, y)
        if flags is None:
            assert again_flags is None
        else:
            assert np.array_equal(again_flags, synthetic)

    @settings(max_examples=25, deadline=None)
    @given(rows=st.sampled_from(ROW_COUNTS),
           values=st.lists(st.tuples(
               st.one_of(st.none(), finite_floats.map(abs)),
               st.one_of(st.none(), finite_floats),
               st.one_of(st.none(), tokens),
               st.integers(0, 1)), min_size=1, max_size=8))
    def test_records_round_trip(self, rows, values):
        # pkts is a named count (never negative); x is a schema-declared
        # extra column, so negative values are allowed there
        schema = Schema(roles={"attack": "label", "pkts": "numeric",
                               "x": "numeric", "proto": "categorical"})
        table = cycled(values, rows)
        flows = FlowTable(
            {"x": np.array([r[1] for r in table], dtype=np.float64),  # None -> NaN
             "pkts": np.array([r[0] for r in table], dtype=np.float64),
             "proto": np.array([r[2] or "" for r in table], dtype=str)},
            [r[3] for r in table])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "flows.csv")
            write_records_csv(flows, path)
            with open(path, "rb") as fh:
                written = fh.read()
            again = load_csv(path, schema)
        assert list(flows.columns) == ["pkts", "proto", "x"]
        expected = [[reference_cell(r[0]), reference_cell(r[2]),
                     reference_cell(r[1]), str(r[3])] for r in table]
        assert written == reference_bytes(["pkts", "proto", "x", "attack"], expected)
        assert list(again.columns) == ["pkts", "proto", "x"]
        for name in ("pkts", "x"):
            assert np.array_equal(again.columns[name], flows.columns[name],
                                  equal_nan=True)
        assert again.columns["proto"].tolist() == flows.columns["proto"].tolist()
        assert np.array_equal(again.labels, flows.labels)
        # a row's line is the physical line its record starts on, after the
        # line breaks written inside earlier quoted tokens
        spans = [1 + (r[2] or "").count("\n") for r in table]
        assert np.array_equal(again.lines, 2 + np.cumsum([0] + spans)[:-1])


class TestWholeFileReader:
    """read_dataset_csv parses a file whole with numpy.loadtxt and defers
    any file it doubts to the line-accurate reader."""

    @pytest.mark.parametrize("rows", [1, CHUNK_ROWS, CHUNK_ROWS + 1])
    @pytest.mark.parametrize("flagged", [False, True])
    def test_writer_output_never_defers(self, tmp_path, monkeypatch, rng,
                                        rows, flagged):
        def deferred(path):
            raise AssertionError(f"{path} was left to the line reader")

        monkeypatch.setattr(flows, "_read_dataset_lines", deferred)
        X = rng.lognormal(0.0, 6.0, (rows, 3)) * rng.choice([-1.0, 1.0], (rows, 3))
        X[::3, 1] = np.round(X[::3, 1])
        X[:len(SPECIAL_FLOATS), 2] = SPECIAL_FLOATS[:rows]
        ds = Dataset(X, rng.integers(0, 2, rows), ("a", "b", "c"))
        synthetic = rng.integers(0, 2, rows) if flagged else None
        path = str(tmp_path / "data.csv")
        write_dataset_csv(ds, path, synthetic=synthetic)
        again, flags = read_dataset_csv(path)
        assert again.feature_names == ds.feature_names
        # -0.0 is written as 0, so compare with it as +0.0
        assert again.features.tobytes() == (ds.features + 0.0).tobytes()
        assert np.array_equal(again.labels, ds.labels)
        if flagged:
            assert np.array_equal(flags, synthetic)
        else:
            assert flags is None

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 5), flagged=st.booleans(),
           header_break=st.booleans(), line_end=st.sampled_from(["\n", "\r\n"]),
           cells=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99),
                                    st.sampled_from(CELL_MUTATIONS)), max_size=4),
           lines=st.lists(st.tuples(st.integers(0, 99),
                                    st.sampled_from(LINE_MUTATIONS)), max_size=2))
    # the one row a cell too long, so no row is ragged against another
    @example(rows=1, flagged=False, header_break=False, line_end="\n", cells=[],
             lines=[(0, LINE_MUTATIONS[3])])
    def test_matches_the_line_reader(self, rows, flagged, header_break, line_end,
                                     cells, lines):
        rng = np.random.default_rng(rows)
        ds = Dataset(rng.lognormal(0.0, 3.0, (rows, 2)), rng.integers(0, 2, rows),
                     ("a", "b\nc" if header_break else "b"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            write_dataset_csv(ds, path, rng.integers(0, 2, rows) if flagged else None)
            with open(path, encoding="utf-8", newline="") as fh:
                header, *body = fh.read().split("\r\n")[:-1]
            table = [row.split(",") for row in body]
            for row, col, mutate in cells:
                row = table[row % rows]
                row[col % len(row)] = mutate(row[col % len(row)])
            body = [",".join(row) for row in table]
            for row, mutate in lines:
                if body:
                    row %= len(body)
                    body[row:row + 1] = mutate(body[row])
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(line_end.join([header] + body) + line_end)
            assert read_outcome(read_dataset_csv, path) == read_outcome(
                flows._read_dataset_lines, path)


# Edits to one line of the second range of a split body, each with what
# the split reader's ranges report: None when the body is not cut, else
# whether each range parsed to one row per line.
SPLIT_MUTATIONS = {
    "none": (lambda line: [line], [True, True]),
    "blank line": (lambda line: [line, ""], [True, False]),
    "quote": (lambda line: ['"' + line.replace(",", '",', 1)], None),
    "lone CR": (lambda line: [line[:1] + "\r" + line[1:]], None),
    "ragged row": (lambda line: [line + ",1"], [True, False]),
    "bad label": (lambda line: [re.sub(r",\d,(\d)$", r",2,\1", line)], [True, True]),
    "nan": (lambda line: ["nan" + line[line.index(","):]], [True, True]),
}


class TestSplitIo:
    """Files of more than CHUNK_ROWS rows are read and written in ranges
    on _pool.WORKERS processes, with the same results as in one."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(_pool, "WORKERS", 2)

    @pytest.mark.parametrize("rows", [2 * CHUNK_ROWS - 1, 2 * CHUNK_ROWS + 1])
    @pytest.mark.parametrize("line_end", ["\r\n", "\n"])
    @pytest.mark.parametrize("mutation", list(SPLIT_MUTATIONS))
    def test_split_reader_matches_one_call(self, tmp_path, monkeypatch, rng,
                                           rows, line_end, mutation):
        mutate, cut = SPLIT_MUTATIONS[mutation]
        ds = Dataset(rng.lognormal(0.0, 3.0, (rows, 2)), rng.integers(0, 2, rows),
                     ("a", "b"))
        path = str(tmp_path / "data.csv")
        write_dataset_csv(ds, path, rng.integers(0, 2, rows))
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\r\n")[:-1]
        lines[-3:-2] = mutate(lines[-3])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(line_end.join(lines) + line_end)

        fork_map = _pool.fork_map
        outcomes = []

        def recorded(fn, items):
            outcomes.append(fork_map(fn, items))
            return outcomes[-1]

        monkeypatch.setattr(_pool, "fork_map", recorded)
        split = read_outcome(read_dataset_csv, path)
        assert outcomes == ([] if cut is None else [cut])
        monkeypatch.setattr(_pool, "WORKERS", 1)
        assert split == read_outcome(read_dataset_csv, path)
        assert split == read_outcome(flows._read_dataset_lines, path)
        if mutation == "none":
            assert split[1] == (ds.features + 0.0).tobytes()

    @pytest.mark.parametrize("rows", [CHUNK_ROWS + 1, 2 * CHUNK_ROWS - 1,
                                      2 * CHUNK_ROWS, 2 * CHUNK_ROWS + 1])
    def test_writers_match_csv_writer(self, tmp_path, rows):
        values = cycled([1.5, -0.0, 1e16, 2.0 ** 60, 5e-324, 7.0, -3.25], rows)
        labels = cycled([0, 1, 1], rows)
        ds = Dataset(np.array(values).reshape(rows, 1), labels, ("a",))
        path = str(tmp_path / "data.csv")
        write_dataset_csv(ds, path, synthetic=np.array(labels[::-1]))
        with open(path, "rb") as fh:
            assert fh.read() == reference_bytes(
                ["a", "attack", "synthetic"],
                [[reference_cell(v), str(y), str(f)]
                 for v, y, f in zip(values, labels, labels[::-1])])
        tokens = cycled(["tcp", 'a"b', "x,y", "line\nbreak", ""], rows)
        table = FlowTable({"pkts": np.abs(values),
                           "proto": np.array(tokens)}, labels)
        write_records_csv(table, path)
        with open(path, "rb") as fh:
            assert fh.read() == reference_bytes(
                ["pkts", "proto", "attack"],
                [[reference_cell(abs(v)), t, str(y)]
                 for v, t, y in zip(values, tokens, labels)])
        assert os.listdir(tmp_path) == ["data.csv"]

    @pytest.mark.parametrize("failure, error", [("dies", BrokenProcessPool),
                                                ("raises", OSError)])
    def test_no_part_file_is_left_when_a_worker_fails(self, tmp_path, monkeypatch,
                                                      failure, error):
        parent = os.getpid()
        format_column = flows._format_column

        def failing(values):
            if os.getpid() != parent:
                if failure == "dies":
                    os._exit(1)
                raise OSError("disk full")
            return format_column(values)

        monkeypatch.setattr(flows, "_format_column", failing)
        ds = Dataset(np.ones((2 * CHUNK_ROWS, 1)), np.zeros(2 * CHUNK_ROWS), ("a",))
        with pytest.raises(error):
            write_dataset_csv(ds, str(tmp_path / "data.csv"))
        assert os.listdir(tmp_path) == ["data.csv"]

    def test_small_files_do_not_import_multiprocessing(self, tmp_path):
        src = os.path.dirname(os.path.dirname(flows.__file__))
        code = (
            "import sys, numpy as np, botsift._pool as pool\n"
            "from botsift import Dataset, read_dataset_csv, write_dataset_csv\n"
            "pool.WORKERS = 2\n"
            "for rows in (CHUNK, CHUNK + 1):\n"
            "    ds = Dataset(np.ones((rows, 1)), np.zeros(rows), ('a',))\n"
            "    write_dataset_csv(ds, PATH)\n"
            "    read_dataset_csv(PATH)\n"
            "    print('multiprocessing' in sys.modules)\n"
        ).replace("CHUNK", str(CHUNK_ROWS)).replace("PATH", repr(str(tmp_path / "d.csv")))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True"]
