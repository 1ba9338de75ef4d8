"""Every demo, and the README quick start, runs to completion."""

import os
import re
import subprocess
import sys

import pytest

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
