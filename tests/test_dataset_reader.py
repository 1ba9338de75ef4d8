"""The CSV readers' acceptance rule at its edges: a cell over the csv field
size limit, and a file that can be read only once (a FIFO)."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from botsift import (Dataset, FlowTable, LoadError, read_dataset_csv, write_dataset_csv,
                     write_records_csv)
from botsift import flows
from botsift.flows import CHUNK_ROWS

from conftest import read_outcome


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
