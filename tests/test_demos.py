"""Every demo runs to completion."""

import os
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
    # a demo's temporary files land under tmp_path, which pytest cleans up
    env = dict(os.environ, TMPDIR=str(tmp_path))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
