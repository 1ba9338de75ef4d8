"""Loading, schemas, class summaries, and CSV round-trips."""

import csv
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botsift import (Dataset, FlowTable, LoadError, Schema, SchemaError,
                     class_summary, default_schema, load_csv,
                     read_dataset_csv, to_dataset, write_dataset_csv,
                     write_records_csv)
from botsift import _csvtext, _pool, flows
from botsift.flows import CHUNK_ROWS

from conftest import (drop_sidecar, make_dataset, make_flows, read_outcome,
                      reference_bytes, reference_cell, table_bytes)


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

    @pytest.mark.parametrize("read", [load_csv, read_dataset_csv])
    def test_a_directory_is_a_load_error_naming_it(self, tmp_path, read):
        with pytest.raises(LoadError) as raised:
            read(str(tmp_path))
        assert str(raised.value) == f"{tmp_path}: input file cannot be read: Is a directory"

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
        # a bad row in each of the first six records, and in the last one
        for row, line in [(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (6, 8),
                          (CHUNK_ROWS + 9, CHUNK_ROWS + 11)]:
            bad = rows.copy()
            bad[row] = "-4,0"
            path = write(tmp_path, "pkts,attack\n" + "\n".join(bad) + "\n",
                         name="bad.csv")
            with pytest.raises(LoadError, match=rf"bad\.csv:{line}: field 'pkts'"):
                load_csv(path)

    def test_lines_after_a_quoted_line_break_are_physical(self, tmp_path):
        # the bad label sits on physical line 4, the third CSV record
        path = write(tmp_path, 'pkts,proto,attack\n1,"a\nb",0\n2,tcp,7\n')
        with pytest.raises(LoadError, match=r"flows\.csv:4: label column 'attack'"):
            load_csv(path)
        records = ['1,"a\r\nb\rc",0', "", "2,tcp,1", '3,"\n\n",0', "4,udp,1"]
        schema = Schema({"pkts": "numeric", "pr\noto": "categorical",
                         "attack": "label"})
        fine = write(tmp_path, 'pkts,"pr\noto",attack\n' + "\n".join(records) + "\n",
                     name="fine.csv")
        assert len(load_csv(fine, schema)) == 4
        # a bad label in each record in turn names the line the record starts on
        for record, line in zip([0, 2, 3, 4], [3, 7, 8, 11]):
            bad = records.copy()
            bad[record] = bad[record][:-1] + "7"
            path = write(tmp_path, 'pkts,"pr\noto",attack\n' + "\n".join(bad) + "\n",
                         name="bad.csv")
            with pytest.raises(LoadError, match=rf"bad\.csv:{line}: label column"):
                load_csv(path, schema)

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

    @pytest.mark.parametrize("text", ["pkts,attack\n-3,0\n", 'pkts,attack\n"-3",0\n'])
    def test_a_count_declared_categorical_holds_tokens(self, tmp_path, text):
        # only numbers can be negative; a token column is not checked
        schema = Schema(roles={"attack": "label", "pkts": "categorical"})
        assert load_csv(write(tmp_path, text), schema).columns["pkts"].tolist() == ["-3"]


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

    def test_present_marks_rows_with_a_value(self):
        flows = make_flows([dict(pkts=1.0, proto="tcp", attack=0),
                            dict(pkts=None, proto=None, attack=1),
                            dict(pkts=0.0, proto="", attack=1)])
        assert flows.present("pkts").tolist() == [True, False, True]
        assert flows.present("proto").tolist() == [True, False, False]


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

    @pytest.mark.parametrize("names, message", [
        (("pkts", "synthetic"), "feature column 'synthetic' would read back as a flag"),
        (("attack",), "feature column 'attack' would read back as a flag"),
        ((" a",), "feature column ' a' would read back as 'a'"),
        (("a", "a\t"), r"feature column 'a\\t' would read back as 'a'"),
        ((), "dataset has no feature column"),
    ])
    def test_writer_refuses_what_would_not_read_back(self, tmp_path, names, message):
        ds = Dataset(np.ones((4, len(names))), [0, 1, 1, 0], names)
        with pytest.raises(LoadError, match=rf"data\.csv: {message}"):
            write_dataset_csv(ds, str(tmp_path / "data.csv"))
        assert os.listdir(tmp_path) == []


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
    lambda c: "-1", lambda c: "\x1c" + c, lambda c: c + "\x1f", lambda c: c + "\x00 ",
    # tokens below, at and over the whole-file reader's field width
    lambda c: "x" * (flows.TOKEN_WIDTH - 1), lambda c: "x" * flows.TOKEN_WIDTH,
    lambda c: " " + "x" * (flows.TOKEN_WIDTH - 2) + " ",
    lambda c: "é" * (flows.TOKEN_WIDTH + 3),
)
# Edits to one data line, as the lines that replace it.
LINE_MUTATIONS = (
    lambda line: [line, ""], lambda line: ["", line], lambda line: [line, " "],
    lambda line: [line + ",1"], lambda line: [line.rsplit(",", 1)[0]],
    lambda line: [line, "#" + line], lambda line: [line[:1] + "\r" + line[1:]],
    lambda line: [],
)


# A flow CSV's columns as write_records_csv orders them, read under this
# schema: two numbers (x may be negative), a token column and a column the
# schema leaves to the default role, "ignore".
RECORDS_SCHEMA = Schema(roles={"attack": "label", "pkts": "numeric",
                               "proto": "categorical", "x": "numeric"})
RECORD_TOKENS = ("tcp", "ipv6-icmp", "é", "udp", "y" * (flows.TOKEN_WIDTH - 1))


def records_table(rng, rows: int, x: str = "x") -> FlowTable:
    """rows flows with every value present: lognormal counts, signed x
    values (the special floats first) and tokens in the junk column too."""
    values = rng.lognormal(0.0, 6.0, (rows, 2)) * [1.0, -1.0]
    values[::3, 1] = np.round(values[::3, 1])
    values[:len(SPECIAL_FLOATS), 1] = SPECIAL_FLOATS[:rows]
    tokens = np.array(cycled(RECORD_TOKENS, rows))
    return FlowTable({"pkts": values[:, 0], "proto": tokens, x: values[:, 1],
                      "junk": tokens[::-1]}, rng.integers(0, 2, rows))


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
            drop_sidecar(path)
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
        # line breaks written inside earlier quoted tokens: a negative pkts
        # is named there in the second row, the first of the second chunk
        # and the last, whose line sums every earlier row's span
        spans = [1 + (r[2] or "").count("\n") for r in table]
        lines = 2 + np.cumsum([0] + spans)[:-1]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.csv")
            for row in sorted({1, CHUNK_ROWS, rows - 1} & set(range(rows))):
                line = lines[row]
                pkts = flows.columns["pkts"].copy()
                pkts[row] = -1.0
                write_records_csv(FlowTable({**flows.columns, "pkts": pkts},
                                            flows.labels), path)
                with pytest.raises(LoadError, match=rf"bad\.csv:{line}: field 'pkts'"):
                    load_csv(path, schema)


# Draws of a small file and of edits to its cells and lines.
MUTATION_DRAWS = dict(
    rows=st.integers(1, 5), header_break=st.booleans(),
    line_end=st.sampled_from(["\n", "\r\n"]),
    cells=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99),
                             st.sampled_from(CELL_MUTATIONS)), max_size=4),
    lines=st.lists(st.tuples(st.integers(0, 99), st.sampled_from(LINE_MUTATIONS)),
                   max_size=2))


def mutate_csv(path: str, rows: int, line_end: str, cells, lines) -> None:
    """Rewrite a CSV the writers wrote with the drawn edits to its cells and
    lines, its lines ending in line_end."""
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


class TestWholeFileReader:
    """read_dataset_csv and load_csv parse a file whole with numpy.loadtxt
    and defer any file they doubt to their line-accurate readers."""

    @pytest.mark.parametrize("rows", [1, CHUNK_ROWS, CHUNK_ROWS + 1])
    @pytest.mark.parametrize("output", ["dataset", "flagged dataset", "records"])
    def test_writer_output_never_defers(self, tmp_path, monkeypatch, rng,
                                        rows, output):
        def deferred(path, *args):
            raise AssertionError(f"{path} was left to the line reader")

        monkeypatch.setattr(_pool, "WORKERS", 2)  # so CHUNK_ROWS + 1 rows are split
        monkeypatch.setattr(flows, "_read_dataset_lines", deferred)
        monkeypatch.setattr(flows, "_load_csv_lines", deferred)
        path = str(tmp_path / "data.csv")
        if output == "records":
            table = records_table(rng, rows)
            write_records_csv(table, path)
            drop_sidecar(path)
            # -0.0 is written as 0, so compare with it as +0.0; the junk
            # column has the default role, "ignore"
            want = FlowTable({name: column + 0.0 if column.dtype.kind == "f" else column
                              for name, column in table.columns.items() if name != "junk"},
                             table.labels)
            assert table_bytes(load_csv(path, RECORDS_SCHEMA)) == table_bytes(want)
            return
        X = rng.lognormal(0.0, 6.0, (rows, 3)) * rng.choice([-1.0, 1.0], (rows, 3))
        X[::3, 1] = np.round(X[::3, 1])
        X[:len(SPECIAL_FLOATS), 2] = SPECIAL_FLOATS[:rows]
        ds = Dataset(X, rng.integers(0, 2, rows), ("a", "b", "c"))
        flagged = output == "flagged dataset"
        synthetic = rng.integers(0, 2, rows) if flagged else None
        write_dataset_csv(ds, path, synthetic=synthetic)
        drop_sidecar(path)
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
    @given(flagged=st.booleans(), **MUTATION_DRAWS)
    # the one row a cell too long, so no row is ragged against another
    @example(rows=1, flagged=False, header_break=False, line_end="\n",
             cells=[], lines=[(0, LINE_MUTATIONS[3])])
    # "\x1c1": a label the line reader strips and float() refuses, and a
    # feature loadtxt would read as 1.0
    @example(rows=1, flagged=False, header_break=False, line_end="\n",
             cells=[(0, 2, lambda c: "\x1c" + c)], lines=[])
    @example(rows=1, flagged=False, header_break=False, line_end="\n",
             cells=[(0, 0, lambda c: "\x1c" + c)], lines=[])
    def test_matches_the_line_reader(self, rows, flagged, header_break,
                                     line_end, cells, lines):
        """read_dataset_csv gives what its line reader gives, the same
        values or the same error."""
        rng = np.random.default_rng(rows)
        ds = Dataset(rng.lognormal(0.0, 3.0, (rows, 2)), rng.integers(0, 2, rows),
                     ("a", "b\nc" if header_break else "b"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            write_dataset_csv(ds, path, rng.integers(0, 2, rows) if flagged else None)
            drop_sidecar(path)
            mutate_csv(path, rows, line_end, cells, lines)
            assert (read_outcome(read_dataset_csv, path)
                    == read_outcome(flows._read_dataset_lines, path))

    @settings(max_examples=300, deadline=None)
    @given(**MUTATION_DRAWS)
    @example(rows=5, header_break=False, line_end="\r\n", cells=[], lines=[])
    def test_load_csv_matches_the_line_reader(self, rows, header_break, line_end,
                                              cells, lines):
        """load_csv gives what its line reader gives, the same table or the
        same error."""
        x = "x\ny" if header_break else "x"
        schema = Schema({**RECORDS_SCHEMA.roles, x: "numeric"})
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            write_records_csv(records_table(np.random.default_rng(rows), rows, x), path)
            mutate_csv(path, rows, line_end, cells, lines)
            assert (read_outcome(partial(load_csv, schema=schema), path)
                    == read_outcome(partial(flows._load_csv_lines, schema=schema), path))

    @pytest.mark.parametrize("scan_bytes", [1, 2, 3, 5, 1 << 20])
    def test_an_empty_cell_declines_before_the_parse(self, tmp_path, monkeypatch,
                                                     scan_bytes):
        # each edit empties one cell, at each place a scan block may cut it
        monkeypatch.setattr(flows, "_SCAN_BYTES", scan_bytes)
        path = str(tmp_path / "data.csv")
        body = ["pkts,proto,attack", "1.5,tcp,0", "2,udp,1"]
        for line_end in ("\n", "\r\n"):
            with open(path, "w", newline="") as fh:
                fh.write(line_end.join(body) + line_end)
            assert flows._body_ranges(path) is not None
            for row, col in [(r, c) for r in (1, 2) for c in range(3)]:
                cells = [line.split(",") for line in body]
                cells[row][col] = ""
                with open(path, "w", newline="") as fh:
                    fh.write(line_end.join(map(",".join, cells)) + line_end)
                assert flows._body_ranges(path) is None, (row, col, line_end)

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
        drop_sidecar(path)
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

    @pytest.mark.parametrize("kind", ["dataset", "records"])
    def test_three_workers_match_one(self, tmp_path, monkeypatch, rng, kind):
        # three chunks: at three workers a write and a C parse each run
        # three ranges on three processes at most, and give the bytes and
        # values they give in one
        def deferred(path, *args):
            raise AssertionError(f"{path} was left to the line reader")

        monkeypatch.setattr(flows, "_read_dataset_lines", deferred)
        monkeypatch.setattr(flows, "_load_csv_lines", deferred)
        rows = 2 * CHUNK_ROWS + 1
        table = records_table(rng, rows)
        ds = Dataset(np.column_stack([table.columns["pkts"], table.columns["x"]]),
                     table.labels, ("pkts", "x"))
        flags = rng.integers(0, 2, rows)
        fork_map, calls = _pool.fork_map, []

        def recorded(fn, items):
            pid_dir = tmp_path / f"pids{len(calls)}"
            pid_dir.mkdir()
            calls.append((len(items), pid_dir))

            def call(item):
                (pid_dir / str(os.getpid())).touch()
                return fn(item)
            return fork_map(call, items)

        monkeypatch.setattr(_pool, "fork_map", recorded)
        outcomes = {}
        for workers in (3, 1):
            monkeypatch.setattr(_pool, "WORKERS", workers)
            path = str(tmp_path / f"{workers}.csv")
            if kind == "dataset":
                write_dataset_csv(ds, path, synthetic=flags)
                read = read_dataset_csv
            else:
                write_records_csv(table, path)
                read = partial(load_csv, schema=RECORDS_SCHEMA)
            drop_sidecar(path)
            with open(path, "rb") as fh:
                outcomes[workers] = (fh.read(), read_outcome(read, path))
        split = [{int(pid) for pid in os.listdir(pid_dir)}
                 for items, pid_dir in calls if items == 3]
        assert len(split) == 2  # the write and the parse
        assert all(1 <= len(pids) <= 3 and os.getpid() not in pids for pids in split)
        assert outcomes[3] == outcomes[1]
        assert isinstance(outcomes[1][1], tuple)  # read, not refused

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
        # no part file is left; the sidecar is the records write's
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "data.csv.parsed"]

    @pytest.mark.parametrize("failure, error", [("dies", BrokenProcessPool),
                                                ("raises", OSError)])
    def test_no_part_file_is_left_when_a_worker_fails(self, tmp_path, monkeypatch,
                                                      failure, error):
        parent = os.getpid()
        chunk = _csvtext.chunk

        def failing(columns):
            if os.getpid() != parent:
                if failure == "dies":
                    os._exit(1)
                raise OSError("disk full")
            return chunk(columns)

        monkeypatch.setattr(_csvtext, "chunk", failing)
        ds = Dataset(np.ones((2 * CHUNK_ROWS, 1)), np.zeros(2 * CHUNK_ROWS), ("a",))
        with pytest.raises(error):
            write_dataset_csv(ds, str(tmp_path / "data.csv"))
        assert os.listdir(tmp_path) == ["data.csv"]

    def test_small_files_do_not_import_multiprocessing(self, tmp_path):
        src = os.path.dirname(os.path.dirname(flows.__file__))
        code = (
            "import os, sys, numpy as np, botsift._pool as pool\n"
            "from botsift import Dataset, read_dataset_csv, write_dataset_csv\n"
            "pool.WORKERS = 2\n"
            "for rows in (CHUNK, CHUNK + 1):\n"
            "    ds = Dataset(np.ones((rows, 1)), np.zeros(rows), ('a',))\n"
            "    write_dataset_csv(ds, PATH)\n"
            "    os.remove(PATH + '.parsed')\n"
            "    read_dataset_csv(PATH)\n"
            "    print('multiprocessing' in sys.modules)\n"
        ).replace("CHUNK", str(CHUNK_ROWS)).replace("PATH", repr(str(tmp_path / "d.csv")))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_workers_count_the_cpus_the_process_may_run_on():
    # a process pinned to one CPU before it imports botsift runs every
    # fork_map inline
    code = (
        "import os\n"
        "try:\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "except OSError:\n"
        "    print('unpinned')\n"
        "else:\n"
        "    import botsift._pool as pool\n"
        "    print(pool.WORKERS)\n"
    )
    src = os.path.dirname(os.path.dirname(flows.__file__))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    if out.stdout.split() == ["unpinned"]:
        pytest.skip("this process cannot pin itself to one CPU")
    assert out.stdout.split() == ["1"]


# Edits to a sidecar, each of which leaves the CSV to be parsed.
SIDECAR_EDITS = {
    "truncated": lambda data: data[:-1],
    "one byte more": lambda data: data + b"\0",
    "another version": lambda data: data.replace(
        b'"version": %d' % flows._SIDECAR_VERSION, b'"version": %d' % (flows._SIDECAR_VERSION - 1), 1),
    "another row count": lambda data: data.replace(b'"rows": 3', b'"rows": 2', 1),
    "flags dropped": lambda data: data.replace(b', "synthetic"]', b']', 1),
    "no header line": lambda data: data[data.index(b"\n") + 1:],
    "garbage": lambda data: b"\xff\x00 not a sidecar\n" + data,
    "empty": lambda data: b"",
}


def forbid_parsing(monkeypatch) -> None:
    """Make any parse of a CSV, in C or by line, fail the test, so that
    only a read from a sidecar succeeds."""
    def parsed(*args):
        raise AssertionError("the CSV was parsed")

    monkeypatch.setattr(flows, "_body_ranges", parsed)
    monkeypatch.setattr(flows, "_read_lines", parsed)


@contextmanager
def lowered_field_limit(limit: int):
    """csv.field_size_limit(limit) for the block, then the old limit."""
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


class TestSidecar:
    """write_dataset_csv keeps a binary copy of what the parse of its CSV
    returns, and read_dataset_csv returns it while the CSV is unchanged."""

    @settings(max_examples=25, deadline=None)
    @given(rows=st.sampled_from(ROW_COUNTS),
           values=st.lists(st.tuples(finite_floats, finite_floats),
                           min_size=1, max_size=8),
           labels=st.lists(st.integers(0, 1), min_size=1, max_size=8),
           flags=st.one_of(st.none(),
                           st.lists(st.integers(0, 1), min_size=1, max_size=8)))
    @example(rows=CHUNK_ROWS + 1, values=list(zip(SPECIAL_FLOATS, SPECIAL_FLOATS[::-1])),
             labels=[0, 1], flags=[1, 0, 0])
    @example(rows=0, values=[(1.0, 2.0)], labels=[0], flags=None)
    def test_the_sidecar_reads_as_the_parse(self, rows, values, labels, flags):
        X = np.array(cycled(values, rows), dtype=np.float64).reshape(rows, 2)
        ds = Dataset(X, cycled(labels, rows), ("a", "b"))
        synthetic = None if flags is None else np.array(cycled(flags, rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            write_dataset_csv(ds, path, synthetic=synthetic)
            assert flows._read_sidecar(path) is not None
            from_sidecar = read_outcome(read_dataset_csv, path)
            drop_sidecar(path)
            assert from_sidecar == read_outcome(read_dataset_csv, path)

    def test_an_edited_csv_is_parsed(self, tmp_path):
        path = str(tmp_path / "data.csv")
        write_dataset_csv(make_dataset([[1.5], [2.0], [3.0]], [0, 1, 1]), path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data.replace(b"\n2,", b"\n4,"))  # one byte changed
        assert flows._read_sidecar(path) is None
        assert read_dataset_csv(path)[0].features[:, 0].tolist() == [1.5, 4.0, 3.0]

    @pytest.mark.parametrize("edit", list(SIDECAR_EDITS))
    def test_a_sidecar_that_does_not_fit_is_parsed(self, tmp_path, edit):
        path = str(tmp_path / "data.csv")
        write_dataset_csv(make_dataset([[1.5], [2.0], [3.0]], [0, 1, 1]), path,
                          synthetic=np.array([0, 0, 1]))
        with open(path + flows.SIDECAR_SUFFIX, "rb") as fh:
            data = fh.read()
        edited = SIDECAR_EDITS[edit](data)
        assert edited != data
        with open(path + flows.SIDECAR_SUFFIX, "wb") as fh:
            fh.write(edited)
        assert flows._read_sidecar(path) is None
        parsed = read_outcome(read_dataset_csv, path)
        drop_sidecar(path)
        assert parsed == read_outcome(read_dataset_csv, path)

    @pytest.mark.parametrize("fmt, array, row, value", [
        ("dataset", 0, 1, np.inf), ("dataset", 1, 2, 2), ("dataset", 2, 0, 5),
        ("flow", 1, 0, 3)], ids=["an infinite feature", "a label of 2", "a flag of 5",
                                 "a flow label of 3"])
    def test_a_sidecar_value_that_breaks_a_rule_is_parsed(self, tmp_path, fmt, array, row,
                                                          value):
        # the CSV keeps its bytes, so only the rules can catch a damaged value
        path = str(tmp_path / "data.csv")
        if fmt == "dataset":
            write_dataset_csv(make_dataset([[1.5], [2.0], [3.0]], [0, 1, 1]), path,
                              synthetic=np.array([0, 0, 1]))
            read = read_dataset_csv
        else:
            write_records_csv(make_flows([{"pkts": 1.0, "attack": 0},
                                          {"pkts": 2.0, "attack": 1}]), path)
            read = load_csv
        arrays = flows._read_sidecar(path)[1]
        arrays[array][row] = value
        with open(path + flows.SIDECAR_SUFFIX, "r+b") as fh:
            fh.readline()
            fh.write(b"".join(a.tobytes() for a in arrays))
        assert flows._read_sidecar(path) is not None
        from_sidecar = read_outcome(read, path)
        drop_sidecar(path)
        assert from_sidecar == read_outcome(read, path)

    def test_the_finite_rule_runs_once_over_a_sidecar_matrix(self, tmp_path, monkeypatch):
        # one pass over the feature matrix, not one per column view of it,
        # and an infinite value in any column still sends the read to the parse
        path = str(tmp_path / "data.csv")
        X = np.arange(24.0).reshape(8, 3) + 0.5
        write_dataset_csv(make_dataset(X, np.arange(8) % 2), path)
        passes, parses = [], []
        not_finite, body_ranges = flows._not_finite, flows._body_ranges
        monkeypatch.setattr(flows, "_not_finite",
                            lambda values: passes.append(values.shape) or not_finite(values))
        monkeypatch.setattr(flows, "_body_ranges",
                            lambda path: parses.append(path) or body_ranges(path))
        assert read_dataset_csv(path)[0].features.tolist() == X.tolist()
        assert (passes, parses) == ([(8, 3)], [])
        arrays = flows._read_sidecar(path)[1]
        arrays[0][5, 1] = np.inf
        with open(path + flows.SIDECAR_SUFFIX, "r+b") as fh:
            fh.readline()
            fh.write(b"".join(a.tobytes() for a in arrays))
        assert read_dataset_csv(path)[0].features.tolist() == X.tolist()
        assert parses == [path]

    def test_a_sidecar_that_cannot_be_written_is_skipped(self, tmp_path, monkeypatch):
        def failing(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing)
        ds = make_dataset([[1.5], [2.0], [3.0]], [0, 1, 1])
        path = str(tmp_path / "data.csv")
        write_dataset_csv(ds, path)
        assert os.listdir(tmp_path) == ["data.csv"]
        again, _ = read_dataset_csv(path)
        assert np.array_equal(again.features, ds.features)

    def test_a_path_that_is_not_a_regular_file_gets_none(self, tmp_path):
        os.symlink(os.devnull, tmp_path / "null.csv")
        write_dataset_csv(make_dataset([[1.5]], [0]), str(tmp_path / "null.csv"))
        assert os.listdir(tmp_path) == ["null.csv"]

    def test_a_sidecar_is_read_without_a_process_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_pool, "WORKERS", 2)
        rows = CHUNK_ROWS + 1
        path = str(tmp_path / "data.csv")
        write_dataset_csv(make_dataset(np.ones((rows, 1)), np.zeros(rows)), path)
        code = (
            "import sys, botsift._pool as pool\n"
            "from botsift import read_dataset_csv\n"
            "pool.WORKERS = 2\n"
            "pool.fork_map = None\n"
            "print(read_dataset_csv(sys.argv[1])[0].n_rows,"
            " 'multiprocessing' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(flows.__file__))
        out = subprocess.run([sys.executable, "-c", code, path],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == [str(rows), "False"]

    def test_a_flow_write_removes_a_dataset_sidecar(self, tmp_path):
        path = str(tmp_path / "data.csv")
        write_dataset_csv(make_dataset([[1.5], [2.0]], [0, 1], ("pkts",)), path)
        write_records_csv(make_flows([{"pkts": 3.0, "proto": "tcp", "attack": 1}]), path)
        meta, arrays = flows._read_sidecar(path)
        assert meta["header"] == ["pkts", "proto", "attack"]
        assert read_outcome(read_dataset_csv, path).startswith(f"{path}:2: feature cell")

    def test_a_feature_name_past_the_field_limit_gets_no_sidecar(self, tmp_path):
        # the sidecar answers as the parse would: it reads a name of the
        # limit's length, and refuses one longer
        limit = csv.field_size_limit()
        for width in (limit, limit + 1):
            path = str(tmp_path / f"{width}.csv")
            write_dataset_csv(make_dataset([[1.5], [2.0]], [0, 1], ("a" * width,)), path)
            assert os.path.exists(path + flows.SIDECAR_SUFFIX) == (width == limit)
            outcome = read_outcome(read_dataset_csv, path)
            if width == limit:
                drop_sidecar(path)
            assert outcome == read_outcome(read_dataset_csv, path)
        assert outcome == f"{path}:1: field larger than field limit ({limit})"

    def test_a_reader_under_a_lower_field_limit_parses(self, tmp_path):
        # a 50-character feature name is within the writer's limit; a
        # reader that lowers the limit to 20 gets the parse's error
        path = str(tmp_path / "data.csv")
        write_dataset_csv(make_dataset([[1.5], [2.0]], [0, 1], ("f" * 50,)), path)
        assert os.path.exists(path + flows.SIDECAR_SUFFIX)
        with lowered_field_limit(20):
            from_sidecar = read_outcome(read_dataset_csv, path)
            drop_sidecar(path)
            assert from_sidecar == read_outcome(read_dataset_csv, path)
        assert from_sidecar == f"{path}:1: field larger than field limit (20)"

    def test_a_sidecar_read_takes_no_copy_of_the_features(self, tmp_path, monkeypatch):
        # the features come back in the array the sidecar is read into;
        # a copy of them would double the read's peak
        rows, width = 20_000, 20
        path = str(tmp_path / "data.csv")
        X = np.random.default_rng(5).normal(size=(rows, width))
        write_dataset_csv(make_dataset(X, np.arange(rows) % 2), path)
        forbid_parsing(monkeypatch)
        tracemalloc.start()
        try:
            again, _ = read_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.features.tobytes() == X.tobytes()
        assert peak < 1.5 * X.nbytes

    def test_a_failed_sidecar_write_leaves_no_old_one(self, tmp_path, monkeypatch):
        path = str(tmp_path / "data.csv")
        write_dataset_csv(make_dataset([[1.5], [2.0]], [0, 1]), path)

        def failing(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing)
        write_dataset_csv(make_dataset([[4.0]], [1]), path)
        assert os.listdir(tmp_path) == ["data.csv"]


# Schemas a flow sidecar is read under: it holds pkts and x as numbers,
# proto and (when drawn) junk as tokens.
FLOW_SCHEMAS = {
    "listed": Schema({"attack": "label", "pkts": "numeric", "x": "numeric",
                      "proto": "categorical"}),
    "default numeric": Schema({"attack": "label", "proto": "categorical"}, "numeric"),
    "default categorical": Schema({"attack": "label", "pkts": "numeric",
                                   "x": "numeric"}, "categorical"),
    "default ignore": Schema({"attack": "label", "x": "numeric"}),
    "only the label": Schema({"attack": "label"}),
    "tokens as numbers": Schema({"attack": "label", "proto": "numeric"}, "numeric"),
    "another label": Schema({"pkts": "label", "x": "numeric"}),
}
flow_floats = st.one_of(finite_floats, st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0]))
# blanks, commas and quotes, and tokens as long as the whole-file
# reader's field and longer
wide_tokens = st.one_of(
    st.text(alphabet=' ab,"\t\n　é', max_size=5),
    st.sampled_from(["y" * (flows.TOKEN_WIDTH - 1), "y" * flows.TOKEN_WIDTH,
                     " " + "é" * (flows.TOKEN_WIDTH + 3) + " "]))


class TestFlowSidecar:
    """write_records_csv keeps a sidecar too, and load_csv reads it where
    the parse could not differ and parses the CSV elsewhere."""

    @settings(max_examples=40, deadline=None)
    @given(rows=st.sampled_from((0, 1, 7, CHUNK_ROWS + 1)),
           values=st.lists(st.tuples(flow_floats, flow_floats, wide_tokens, wide_tokens,
                                     st.integers(0, 1)), min_size=1, max_size=8),
           junk=st.booleans(), schema=st.sampled_from(sorted(FLOW_SCHEMAS)))
    @example(rows=3, values=[(-1.0, 2.0, "tcp", "", 0)], junk=False, schema="listed")
    def test_the_sidecar_reads_as_the_parse(self, rows, values, junk, schema):
        # a flow CSV read as flows and as a dataset, its numbers alone read
        # as a dataset, and a dataset CSV of them (made finite) read as flows
        table = cycled(values, rows)
        numbers = {"pkts": np.array([r[0] for r in table], dtype=np.float64),
                   "x": np.array([r[1] for r in table], dtype=np.float64)}
        columns = {**numbers, "proto": np.array([r[2] for r in table], dtype=str)}
        if junk:
            columns["junk"] = np.array([r[3] for r in table], dtype=str)
        labels = [r[4] for r in table]
        finite = np.nan_to_num(np.column_stack(list(numbers.values())),
                               nan=0.5, posinf=1e300, neginf=-1e300)
        load = partial(load_csv, schema=FLOW_SCHEMAS[schema])
        cases = [
            (partial(write_records_csv, FlowTable(columns, labels)), load),
            (partial(write_records_csv, FlowTable(columns, labels)), read_dataset_csv),
            (partial(write_records_csv, FlowTable(numbers, labels)), read_dataset_csv),
            (partial(write_dataset_csv, Dataset(finite, labels, ("pkts", "x"))), load),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            for write_csv, read in cases:
                write_csv(path)
                assert flows._read_sidecar(path) is not None
                from_sidecar = read_outcome(read, path)
                drop_sidecar(path)
                assert from_sidecar == read_outcome(read, path)

    def test_a_negative_count_is_parsed(self, tmp_path, monkeypatch):
        path = str(tmp_path / "flows.csv")
        write_records_csv(make_flows([{"pkts": 1.0, "x": -2.0, "attack": 0},
                                      {"pkts": -3.5, "x": 4.0, "attack": 1}]), path)
        assert flows._read_sidecar(path) is not None
        # the sidecar fails the pkts rule, so the parse names the line
        with pytest.raises(LoadError) as raised:
            load_csv(path, FLOW_SCHEMAS["listed"])
        assert str(raised.value) == f"{path}:3: field 'pkts' is negative (-3.5)"
        # x is not one of NONNEGATIVE_FIELDS, so the sidecar serves it
        forbid_parsing(monkeypatch)
        table = load_csv(path, FLOW_SCHEMAS["default ignore"])
        assert table.columns["x"].tolist() == [-2.0, 4.0]

    def test_a_read_of_the_other_format_is_served_by_the_sidecar(self, tmp_path,
                                                                  monkeypatch):
        ds = make_dataset([[1.5, 3.0], [2.0, -1.0]], [0, 1], ("pkts", "x"))
        flow_csv, dataset_csv = str(tmp_path / "flows.csv"), str(tmp_path / "data.csv")
        write_records_csv(FlowTable(dict(zip(ds.feature_names, ds.features.T)), ds.labels),
                          flow_csv)
        write_dataset_csv(ds, dataset_csv)
        forbid_parsing(monkeypatch)
        again, flags = read_dataset_csv(flow_csv)
        assert (again.feature_names, flags) == (ds.feature_names, None)
        assert again.features.tolist() == ds.features.tolist()
        assert again.labels.tolist() == [0, 1]
        table = load_csv(dataset_csv, FLOW_SCHEMAS["listed"])
        assert {name: c.tolist() for name, c in table.columns.items()} == {
            "pkts": [1.5, 2.0], "x": [3.0, -1.0]}
        assert table.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("names", [("pkts", " x"), ("pkts", "attack")])
    def test_a_header_that_reads_back_otherwise_gets_no_sidecar(self, tmp_path, names):
        path = str(tmp_path / "flows.csv")
        write_records_csv(FlowTable({name: np.ones(2) for name in names}, [0, 1]), path)
        assert os.listdir(tmp_path) == ["flows.csv"]

    @pytest.mark.parametrize("where", ["token", "name"])
    def test_a_cell_past_the_field_limit_gets_no_sidecar(self, tmp_path, where):
        # a proto token or a column name: the sidecar reads one of the
        # limit's length, as the parse does, and none is kept for a longer one
        limit = csv.field_size_limit()
        for width in (limit, limit + 1):
            path = str(tmp_path / f"{width}.csv")
            name, token = ("p" * width, "tcp") if where == "name" else ("proto", "t" * width)
            write_records_csv(FlowTable({"pkts": np.ones(2), name: np.array([token, "udp"])},
                                        [0, 1]), path)
            assert os.path.exists(path + flows.SIDECAR_SUFFIX) == (width == limit)
            outcome = read_outcome(load_csv, path)
            if width == limit:
                drop_sidecar(path)
            assert outcome == read_outcome(load_csv, path)
        line = 1 if where == "name" else 2
        assert outcome == f"{path}:{line}: field larger than field limit ({limit})"

    def test_a_reader_under_a_lower_field_limit_parses(self, tmp_path):
        # a 50-character proto token is within the writer's limit; a
        # reader that lowers the limit to 20 gets the parse's error
        path = str(tmp_path / "flows.csv")
        write_records_csv(FlowTable({"pkts": np.ones(2), "proto": np.array(["t" * 50, "udp"])},
                                    [0, 1]), path)
        assert os.path.exists(path + flows.SIDECAR_SUFFIX)
        with lowered_field_limit(20):
            from_sidecar = read_outcome(load_csv, path)
            drop_sidecar(path)
            assert from_sidecar == read_outcome(load_csv, path)
        assert from_sidecar == f"{path}:2: field larger than field limit (20)"


def derived_case(case: str, tmp: str, rng, rows: int):
    """(dataset, synthetic, source, path) of a write of what a stage derives
    from the CSV at source, to path, as the case sets them up."""
    source = os.path.join(tmp, "source.csv")
    path = os.path.join(tmp, "out.csv")
    X = rng.lognormal(0.0, 6.0, (rows, 3)) * rng.choice([-1.0, 1.0], (rows, 3))
    X[::3, 1] = np.round(X[::3, 1])
    X[:len(SPECIAL_FLOATS), 2] = SPECIAL_FLOATS[:rows]
    labels = rng.integers(0, 2, rows)
    ds = Dataset(X, labels, ("a", "b", "c"))
    if case in ("smote prefix", "stale sidecar"):
        # the source's rows come first, then rows past the source
        write_dataset_csv(ds, source, rng.integers(0, 2, rows))
        extra = CHUNK_ROWS + 3
        out = Dataset(np.vstack([X, rng.lognormal(0.0, 3.0, (extra, 3))]),
                      np.concatenate([labels, np.zeros(extra, np.int64)]), ds.feature_names)
        if case == "stale sidecar":  # written over a source its sidecar no longer fits
            with open(source, "rb") as fh:
                data = fh.read()
            with open(source, "wb") as fh:
                fh.write(data.replace(b"\r\n1", b"\r\n2", 1))
            path = source
        return out, np.repeat([0, 1], [rows, extra]), source, path
    if case == "selected columns":
        write_dataset_csv(ds, source)
        return ds.with_columns(("c", "a")), None, source, path
    if case == "output is the source":  # read from its sidecar, written back over it
        write_dataset_csv(ds, source, rng.integers(0, 2, rows))
        return *read_dataset_csv(source), source, source
    # flow sources: ingest codes proto, cleanse drops rows with no value
    proto = np.array(cycled(["tcp", "udp", "x,y" if case == "quoted source" else "icmp"],
                            rows))
    x = X[:, 2].copy()
    if case == "cleanse drops rows":
        x[1::4] = np.nan
    write_records_csv(FlowTable({"pkts": np.abs(X[:, 0]), "proto": proto, "x": x},
                                labels), source)
    keep = ~np.isnan(x)
    codes = np.unique(proto, return_inverse=True)[1] + 1.0
    out = Dataset(np.column_stack([np.abs(X[:, 0]), codes, x])[keep], labels[keep],
                  ("pkts", "proto", "x"))
    return out, None, source, path


DERIVED_CASES = ("smote prefix", "ingest substitution", "cleanse drops rows",
                 "selected columns", "stale sidecar", "quoted source",
                 "output is the source")


def written(path: str) -> tuple[bytes, bytes]:
    """The bytes of the CSV at path and of its sidecar."""
    with open(path, "rb") as fh, open(path + flows.SIDECAR_SUFFIX, "rb") as side:
        return fh.read(), side.read()


class TestDerivedWrites:
    """write_dataset_csv of what a stage derives from a CSV writes the
    bytes the dataset alone sets, whatever the source or the path held."""

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(DERIVED_CASES),
           rows=st.sampled_from((0, 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 1)),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(case="smote prefix", rows=2 * CHUNK_ROWS + 1, seed=0)
    @example(case="ingest substitution", rows=2 * CHUNK_ROWS + 1, seed=0)
    @example(case="cleanse drops rows", rows=2 * CHUNK_ROWS + 1, seed=0)
    @example(case="output is the source", rows=2 * CHUNK_ROWS + 1, seed=0)
    def test_the_bytes_do_not_depend_on_the_source(self, case, rows, seed):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(_pool, "WORKERS", 2)
            out, synthetic, source, path = derived_case(
                case, tmp, np.random.default_rng(seed), rows)
            write_dataset_csv(out, path, synthetic)
            header = [*out.feature_names, "attack"] + ([] if synthetic is None
                                                       else ["synthetic"])
            expected = [[reference_cell(float(v)) for v in out.features[i]]
                        + [str(out.labels[i])]
                        + ([] if synthetic is None else [str(synthetic[i])])
                        for i in range(out.n_rows)]
            assert written(path)[0] == reference_bytes(header, expected)
            from_sidecar = read_outcome(read_dataset_csv, path)
            drop_sidecar(path)
            assert from_sidecar == read_outcome(read_dataset_csv, path)

    @pytest.mark.parametrize("case", DERIVED_CASES)
    def test_a_write_over_its_source_is_a_fresh_write(self, tmp_path, monkeypatch, case):
        # the CSV and its sidecar replace the source's, whether the output
        # is longer, shorter, narrower or of the other format
        monkeypatch.setattr(_pool, "WORKERS", 2)
        out, synthetic, source, _ = derived_case(case, str(tmp_path),
                                                 np.random.default_rng(0), CHUNK_ROWS + 1)
        fresh = str(tmp_path / "fresh.csv")
        write_dataset_csv(out, fresh, synthetic)
        write_dataset_csv(out, source, synthetic)
        assert written(source) == written(fresh)
        assert read_outcome(read_dataset_csv, source) == read_outcome(read_dataset_csv, fresh)
        assert sorted(os.listdir(tmp_path)) == [
            "fresh.csv", "fresh.csv" + flows.SIDECAR_SUFFIX,
            "source.csv", "source.csv" + flows.SIDECAR_SUFFIX]
