"""read_dataset_csv's acceptance rule at its edges: a cell over the csv
field size limit, and a file that can be read only once (a FIFO)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from botsift import Dataset, LoadError, read_dataset_csv, write_dataset_csv
from botsift import flows
from botsift.flows import CHUNK_ROWS


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
def test_a_fifo_reads_as_the_file_it_carries(tmp_path, rows):
    rng = np.random.default_rng(rows)
    ds = Dataset(rng.lognormal(0.0, 3.0, (rows, 2)), rng.integers(0, 2, rows),
                 ("a", "b"))
    path, fifo, out = (str(tmp_path / name) for name in ("data.csv", "fifo", "out.npz"))
    write_dataset_csv(ds, path, rng.integers(0, 2, rows))
    os.mkfifo(fifo)
    # the read runs in a child process, so a read that waits for data the
    # pipe no longer holds fails the test by its timeout, not by hanging
    code = (
        "import sys, threading\n"
        "import numpy as np\n"
        "from botsift import read_dataset_csv\n"
        "path, fifo, out = sys.argv[1:]\n"
        "def feed():\n"
        "    with open(path, 'rb') as fh, open(fifo, 'wb') as pipe:\n"
        "        pipe.write(fh.read())\n"
        "threading.Thread(target=feed, daemon=True).start()\n"
        "ds, flags = read_dataset_csv(fifo)\n"
        "np.savez(out, names=ds.feature_names, features=ds.features,\n"
        "         labels=ds.labels, flags=flags)\n"
    )
    src = os.path.dirname(os.path.dirname(flows.__file__))
    subprocess.run([sys.executable, "-c", code, path, fifo, out],
                   env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    want, flags = read_dataset_csv(path)
    with np.load(out) as got:
        assert tuple(got["names"]) == want.feature_names
        assert got["features"].tobytes() == want.features.tobytes()
        assert got["labels"].tobytes() == want.labels.tobytes()
        assert got["flags"].tobytes() == flags.tobytes()
