"""The CSV readers' acceptance rule at its edges: a cell over the csv field
size limit, a file that can be read only once (a FIFO), each rule of each
format on the C and the line path, and a faulty header, which is reported
ahead of any fault on a later line."""

import os
import pickle
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from botsift import (Dataset, FlowTable, LoadError, read_dataset_csv, write_dataset_csv,
                     write_records_csv)
from botsift import flows
from botsift.flows import CHUNK_ROWS

from conftest import drop_sidecar, read_outcome


@pytest.mark.parametrize("read", [read_dataset_csv, flows._read_dataset_lines],
                         ids=["read_dataset_csv", "line reader"])
def test_an_unquoted_cell_over_the_field_limit_names_its_line(tmp_path, read):
    # 200,001 characters that are a valid number, 1.0
    path = tmp_path / "data.csv"
    path.write_text("a,attack\n1,0\n" + "0" * 200_000 + "1,1\n")
    with pytest.raises(LoadError, match=r"data\.csv:3: field larger than field limit"):
        read(str(path))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("rows", [5, 2 * CHUNK_ROWS + 1])
@pytest.mark.parametrize("reader", ["read_dataset_csv", "load_csv"])
def test_a_fifo_reads_as_the_file_it_carries(tmp_path, rows, reader):
    rng = np.random.default_rng(rows)
    ds = Dataset(rng.lognormal(0.0, 3.0, (rows, 2)), rng.integers(0, 2, rows),
                 ("pkts", "dur"))
    path, fifo, out = (str(tmp_path / name) for name in ("data.csv", "fifo", "out.pickle"))
    if reader == "load_csv":
        write_records_csv(FlowTable({"pkts": ds.features[:, 0], "dur": ds.features[:, 1],
                                     "proto": np.array(["tcp", "udp"])[ds.labels]},
                                    ds.labels), path)
    else:
        write_dataset_csv(ds, path, rng.integers(0, 2, rows))
        drop_sidecar(path)  # so the file is parsed in C, as the pipe is by line
    os.mkfifo(fifo)
    # the read runs in a child process, so a read that waits for data the
    # pipe no longer holds fails the test by its timeout, not by hanging;
    # the child has no whole-file parse, so only a line reader can read
    code = (
        "import pickle, sys, threading\n"
        "from botsift import flows\n"
        "path, fifo, out, reader = sys.argv[1:]\n"
        "def feed():\n"
        "    with open(path, 'rb') as fh, open(fifo, 'wb') as pipe:\n"
        "        pipe.write(fh.read())\n"
        "def whole(*args):\n"
        "    raise AssertionError('a pipe reached the whole-file parse')\n"
        "flows._parse_ranges = whole\n"
        "threading.Thread(target=feed, daemon=True).start()\n"
        "result = getattr(flows, reader)(fifo)\n"
        "with open(out, 'wb') as fh:\n"
        "    pickle.dump(result, fh)\n"
    )
    src = os.path.dirname(os.path.dirname(flows.__file__))
    subprocess.run([sys.executable, "-c", code, path, fifo, out, reader],
                   env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    with open(out, "rb") as fh:
        got = pickle.load(fh)
    read = getattr(flows, reader)
    assert read_outcome(lambda _: got, path) == read_outcome(read, path)


# A one-row flow CSV under the default schema that breaks no rule.
FLOW_HEADER = list(flows.NAMED_FIELDS) + ["attack"]
FLOW_ROW = {name: "1" for name in FLOW_HEADER} | {"proto": "tcp", "state": "CON",
                                                  "attack": "0"}
# Each rule of each format: (format, column, broken cell, message).
RULES = [("records", "attack", "2", "label column 'attack' has value '2', expected 0 or 1")]
RULES += [("records", name, "-1", f"field {name!r} is negative (-1.0)")
          for name in flows.NONNEGATIVE_FIELDS]
RULES += [("dataset", "attack", "2", "label value '2'"),
          ("dataset", "a", "inf", "feature cell 'inf' is not a finite number"),
          ("dataset", "b", "x", "feature cell 'x' is not a finite number"),
          ("dataset", "synthetic", "2", "synthetic flag '2', expected 0 or 1")]
READERS = {"records": (flows.load_csv, flows._load_csv_lines),
           "dataset": (read_dataset_csv, flows._read_dataset_lines)}


def write_one_row(path, fmt, broken):
    """A one-row CSV of the format with the cells in broken replaced."""
    row = FLOW_ROW if fmt == "records" else {"a": "1.5", "b": "2", "attack": "1",
                                             "synthetic": "0"}
    row = row | broken
    path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")


def outcomes(fmt, path):
    public, lines = READERS[fmt]
    if fmt == "records":
        lines = partial(lines, schema=flows.default_schema())
    return read_outcome(public, str(path)), read_outcome(lines, str(path))


@pytest.mark.parametrize("fmt, column, cell, message", RULES,
                         ids=[f"{fmt}-{column}" for fmt, column, _, _ in RULES])
def test_each_rule_gives_one_error_on_both_paths(tmp_path, fmt, column, cell, message):
    path = tmp_path / "data.csv"
    write_one_row(path, fmt, {column: cell})
    # the whole-file parse sees the file, so the C path declines it by the rule
    assert flows._body_ranges(str(path)) is not None
    assert outcomes(fmt, path) == (f"{path}:2: {message}",) * 2


@pytest.mark.parametrize("fmt", list(READERS))
def test_the_first_rule_of_a_row_wins(tmp_path, fmt):
    path = tmp_path / "data.csv"
    broken = {column: cell for f, column, cell, _ in reversed(RULES) if f == fmt}
    write_one_row(path, fmt, broken)
    first = next(message for f, _, _, message in RULES if f == fmt)
    assert outcomes(fmt, path) == (f"{path}:2: {first}",) * 2


# Header faults: (format, header, body, the error after "<path>: ").
HEADER_FAULTS = [
    ("dataset", "a,attack,attack", "1,0,1", "header repeats column 'attack'"),
    ("dataset", "a,a,attack", "1,2,0", "header repeats column 'a'"),
    ("dataset", "a,attack,synthetic,synthetic", "1,0,0,1",
     "header repeats column 'synthetic'"),
    ("dataset", "attack", "1", "header has no feature column"),
    ("dataset", "attack,synthetic", "1,0", "header has no feature column"),
    ("records", "pkts,attack,attack", "1,0,1", "header repeats column 'attack'"),
    ("records", "pkts,proto,pkts,attack", "1,tcp,2,0", "header repeats column 'pkts'"),
    ("records", "attack", "0", "header has no feature column the schema keeps"),
    ("records", "attack,junk", "0,x", "header has no feature column the schema keeps"),
]


@pytest.mark.parametrize("fmt, header, body, error", HEADER_FAULTS,
                         ids=[header for _, header, _, _ in HEADER_FAULTS])
def test_a_faulty_header_is_refused_naming_the_file(tmp_path, fmt, header, body, error):
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\n{body}\n")
    assert outcomes(fmt, path) == (f"{path}: {error}",) * 2


# Rows enough that a byte after them lies past the first 8 KiB, which a
# text file decodes while csv.reader reads the header.
FAR = 2000


@pytest.mark.parametrize("rows", [1, FAR], ids=["near", "far"])
@pytest.mark.parametrize("fmt, header", [("dataset", "a,a,attack"),
                                         ("records", "pkts,pkts,attack")])
def test_a_header_fault_wins_over_a_later_undecodable_byte(tmp_path, fmt, header, rows):
    path = tmp_path / "data.csv"
    path.write_bytes(f"{header}\n".encode() + b"1,2,0\n" * rows + b"\xff,1,1\n")
    name = header.split(",")[0]
    assert outcomes(fmt, path) == (f"{path}: header repeats column {name!r}",) * 2


@pytest.mark.parametrize("rows", [1, FAR], ids=["near", "far"])
@pytest.mark.parametrize("fmt, header", [("dataset", "a,a,\xffattack"),
                                         ("records", "pkts,pkts,\xffattack")])
def test_an_undecodable_byte_in_the_header_wins(tmp_path, fmt, header, rows):
    path = tmp_path / "data.csv"
    path.write_bytes(header.encode("latin-1") + b"\n" + b"1,2,0\n" * rows)
    assert outcomes(fmt, path) == (f"{path}:1: byte 0xff is not UTF-8 text",) * 2


def test_a_repeated_ignored_column_is_not_a_fault(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("pkts,junk,junk,attack\n1,x,y,0\n")
    table = flows.load_csv(str(path))
    assert list(table.columns) == ["pkts"] and table.labels.tolist() == [0]
