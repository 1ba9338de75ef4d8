"""Self-test of the benchmark at tiny sizes; runs in seconds.

    python3 -m pytest -q perfbench/tests

Covers every workload's code path through the real entry point, the
output checks (and that they catch a changed output), span nesting, the
self-time arithmetic, repeatable counts, and the refusal to run without
the botsift sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from tracing import (COMPUTED_METRICS, Span, Tracer,  # noqa: E402
                     covered_length, layer_metrics, self_times)
from workloads import WORKLOADS, Session  # noqa: E402

TINY_ROWS = 2000


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Build a tiny session of a workload, run from the checkout root."""
    monkeypatch.chdir(ROOT)

    def make(name: str, seed: int = 3) -> Session:
        workload = dataclasses.replace(WORKLOADS[name], rows=TINY_ROWS)
        session = Session(workload, seed, str(tmp_path / name))
        session.reset()
        return session

    return make


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 4.0), (5.0, 6.0)]) == 4.0
    assert covered_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(1, "evaluate.cross_validate", 1.0, 4.0, 0, "r"),
        Span(2, "preprocess.fit_scaler", 1.5, 2.0, 1, "r"),
        Span(3, "classifiers.fit_model[knn]", 5.0, 6.5, 0, "r"),
        Span(0, "experiment.run_experiment", 0.0, 10.0, None, "r"),
    ]
    own = self_times(spans)
    assert own == {0: 10.0 - 3.0 - 1.5, 1: 2.5, 2: 0.5, 3: 1.5}
    metrics = layer_metrics(spans, Counter({"smote.calls": 2}))
    assert metrics["experiment.self_s"] == 5.5
    assert metrics["experiment.run_s"] == 10.0
    assert metrics["evaluate.cv_self_s"] == 2.5
    assert metrics["classifiers.fit_s.knn"] == 1.5
    assert metrics["evaluate.cv_fold_preps"] == 1
    assert metrics["smote.calls"] == 2
    assert metrics["cli.self_s"] == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_spans_nest_and_counts_repeat(tiny, name):
    session = tiny(name)
    runs = []
    for attempt in range(2):
        session.reset()
        with Tracer(f"{name}-{attempt}") as tracer:
            outcome = session.run()
        session.check(outcome)
        assert outcome.failures == {}
        runs.append((tracer, outcome))
    (first, out1), (second, out2) = runs
    assert out1.digests == out2.digests and out1.digests
    spans = {span.id: span for span in first.spans}
    roots = [span for span in first.spans if span.parent is None]
    for span in first.spans:
        assert span.run == f"{name}-0"
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    # self times partition the root spans exactly
    total_self = sum(self_times(first.spans).values())
    assert total_self == pytest.approx(sum(r.end - r.start for r in roots))
    m1 = layer_metrics(first.spans, first.counts)
    m2 = layer_metrics(second.spans, second.counts)
    assert {k: m1[k] for k in COMPUTED_METRICS} == {k: m2[k] for k in COMPUTED_METRICS}
    assert m1["synth.rows_out"] == TINY_ROWS
    # the wrappers are gone once the tracer exits
    import botsift.experiment
    assert not hasattr(botsift.experiment.run_experiment, "__wrapped__")


def test_experiment_checks_catch_changed_outputs(tiny):
    session = tiny("botiot-scale")
    outcome = session.run()
    session.check(outcome)
    assert outcome.failures == {}
    session.reference = dict(outcome.digests, **{"bundle/summary.txt": "0" * 64})
    again = dataclasses.replace(outcome, failures={}, digests={})
    session.check(again)
    assert list(again.failures) == [0]
    manifest_path = os.path.join(session.workdir, "bundle", "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["class_counts"]["after_smote"]["normal"] -= 1
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    session.reference = None
    tampered = dataclasses.replace(outcome, failures={}, digests={})
    session.check(tampered)
    assert any("not balanced" in m for m in tampered.failures[0])


def test_cli_checks_blame_the_failing_subcommand(tiny):
    session = tiny("cli-session")
    outcome = session.run()
    session.check(outcome)
    assert outcome.failures == {} and len(outcome.ops) == 10
    os.remove(os.path.join(session.workdir, "fit", "model_mlp.json"))
    session.argvs = session.argvs[-3:]
    session.ops = session.ops[-3:]
    rerun = session.run()
    assert list(rerun.failures) == [1]  # evaluate mlp exits non-zero


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_entry_point_traced_run(name):
    done = _run_bench("--workload", name, "--seed", "3", "--seconds", "0.1",
                      "--trace", "1", "--rows", str(TINY_ROWS))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_entry_point_end_to_end_metrics():
    done = _run_bench("--workload", "cli-session", "--seed", "3",
                      "--seconds", "0.1", "--trace", "0",
                      "--rows", str(TINY_ROWS))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 10
    expected = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench("--workload", "cli-session", "--seed", "7",
                      "--seconds", "20", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout
