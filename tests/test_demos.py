"""Every demo, the README quick start and its CLI session run to completion."""

import os
import re
import shlex
import subprocess
import sys

import pytest

from botsift.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", [
    "01_synthesize_traffic.py",
    "02_preprocess_and_select.py",
    "03_balance_with_smote.py",
    "04_train_classifiers.py",
    "05_imbalance_vs_balanced.py",
])
def test_demo_exits_cleanly(demo, tmp_path):
    run_python([os.path.join(ROOT, "demos", demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"^## Quick start\n+```python\n(.*?)^```$", readme,
                      re.DOTALL | re.MULTILINE)
    assert block, "README.md has no python block under Quick start"
    result = run_python(["-c", block.group(1)], tmp_path)
    assert "model: knn" in result.stdout


def test_readme_cli_session_runs(tmp_path, monkeypatch, capsys):
    """The README's CLI session at 2,000 rows, through botsift.cli.main: every
    command exits 0, and no file the session writes changes when every
    sidecar is deleted before each command, or only the sidecar of the CSV
    that ingest and smote read, so that they copy no cell from it."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"^A typical session end to end:\n+```sh\n(.*?)^```$", readme,
                      re.DOTALL | re.MULTILINE)
    assert block, "README.md has no sh block for the CLI session"
    lines = block.group(1).splitlines()
    assert all(line.startswith("botsift ") for line in lines)
    assert any("--rows 50000" in line for line in lines)
    commands = [shlex.split(line.replace("--rows 50000", "--rows 2000"))[1:]
                for line in lines]
    monkeypatch.delenv("BOTSIFT_OUT", raising=False)
    written = {}
    for drop in ("none", "every sidecar", "the input's sidecar"):
        run = tmp_path / drop
        run.mkdir()
        monkeypatch.chdir(run)
        for argv in commands:
            if drop == "every sidecar":
                for sidecar in run.rglob("*.parsed"):
                    sidecar.unlink()
            elif drop == "the input's sidecar" and argv[0] in ("ingest", "smote"):
                (run / (argv[argv.index("--csv") + 1] + ".parsed")).unlink()
            assert main(argv) == 0, capsys.readouterr().err
        written[drop] = {str(path.relative_to(run)): path.read_bytes()
                         for path in sorted(run.rglob("*")) if path.is_file()}
    sidecars = {"flows/synth.csv.parsed", "data/dataset.csv.parsed",
                "balanced/balanced.csv.parsed"}
    assert sidecars <= written["none"].keys()
    csvs = [{name: data for name, data in files.items() if name not in sidecars}
            for files in written.values()]
    assert csvs[0] == csvs[1] == csvs[2]


def run_python(argv, tmp_path) -> subprocess.CompletedProcess:
    """Run python with argv on the checkout's src; its temporary files land
    under tmp_path, which pytest cleans up. It must exit 0."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result
