"""The benchmark's workloads and the checks on their outputs.

Each workload drives botsift through its public API only:

- ``experiment-50k``: ``run_experiment`` on the bundled ``botiot-means``
  profile at 50,000 rows, both arms, gnb + knn (k=5) + mlp (defaults),
  no cross-validation;
- ``botiot-scale``: ``run_experiment`` at 200,000 rows (0.5% normal), both
  arms, gnb + mlp (5 epochs), 5-fold cross-validation;
- ``cli-session``: the README's command-line session run in-process
  through ``botsift.cli.main(argv)`` at 50,000 rows.

BENCHMARK.json lists experiment-50k and cli-session only. botiot-scale
runs by hand (``--workload botiot-scale``): one ~30 s iteration per run
spread too widely across runs on a 2-core shared host, and a longer
window for it does not fit the benchmark's time budget.

A ``Session`` prepares one workload for a seed (the set-up the benchmark
times), runs it any number of times in the same directory, and checks the
outputs after each run: sha256 digests against the recorded reference at
the canonical seed and size, invariants at every seed.

Functions are looked up on their botsift module at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field

import botsift.cli
import botsift.experiment

CANONICAL_SEED = 7
# Relative to the checkout root, the worker's working directory, so the
# manifest's config echo does not depend on where the checkout lives.
PROFILE = os.path.join("src", "botsift", "profiles", "botiot-means.profile")
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_digests.json")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "experiment" or "cli"
    rows: int
    models: tuple[tuple[str, dict], ...] = ()
    cv_folds: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("experiment-50k", "experiment", 50_000,
             models=(("gnb", {}), ("knn", {"k": 5}), ("mlp", {}))),
    Workload("botiot-scale", "experiment", 200_000,
             models=(("gnb", {}), ("mlp", {"epochs": 5})), cv_folds=5),
    Workload("cli-session", "cli", 50_000),
)}


# Digested cli-session outputs and the operation that writes each.
CLI_OUTPUTS = {
    "data/dataset.csv": "ingest",
    "balanced/balanced.csv": "smote",
    "eval/gnb_metrics.json": "evaluate gnb",
    "eval/mlp_metrics.json": "evaluate mlp",
    "cv/cv_gnb.json": "cross-validate",
}


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_reference(workload: Workload, seed: int) -> dict[str, str] | None:
    """Recorded digests for this workload, or None off the canonical run."""
    try:
        with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
            entry = json.load(fh).get(workload.name)
    except FileNotFoundError:
        return None
    if not entry or entry["seed"] != seed or entry["rows"] != workload.rows:
        return None
    return entry["sha256"]


def _total(counts: dict) -> int:
    return counts["normal"] + counts["botnet"]


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """Result of one iteration: per-operation failures and output digests."""

    ops: list[str]
    failures: dict[int, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    class_counts_in: dict[str, int] = field(default_factory=dict)

    def fail(self, op: int, message: str) -> None:
        self.failures.setdefault(op, []).append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Session:
    """One workload at one seed, prepared to run repeatedly in ``workdir``."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = load_reference(workload, seed)
        if workload.kind == "experiment":
            self.config = botsift.experiment.ExperimentConfig(
                input_profile=PROFILE, input_rows=workload.rows, seed=seed,
                mode="default", smote="both", cv_folds=workload.cv_folds,
                models=workload.models)
            self.config.validate()
            self.ops, self.argvs = ["run_experiment"], []
        else:
            self.ops, self.argvs = map(list, zip(*self._cli_session()))
        self.stdout: list[str] = []

    def _path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def _cli_session(self) -> list[tuple[str, list[str]]]:
        """(operation name, argv) for each subcommand, in README order."""
        seed = ["--seed", str(self.seed)]
        synth_csv = self._path("flows", "synth.csv")
        dataset = self._path("data", "dataset.csv")
        balanced = self._path("balanced", "balanced.csv")
        fit, ev = self._path("fit"), self._path("eval")
        return [
            ("synth", ["synth", "--profile", "botiot-means", "--rows",
                       str(self.workload.rows), *seed,
                       "--out", self._path("flows")]),
            ("ingest", ["ingest", "--csv", synth_csv, *seed,
                        "--out", self._path("data")]),
            ("profile-stats", ["profile-stats", "--csv", synth_csv, *seed]),
            ("score-features", ["score-features", "--csv", dataset, *seed,
                                "--out", self._path("scores")]),
            ("smote", ["smote", "--csv", dataset, *seed,
                       "--out", self._path("balanced")]),
            ("train gnb", ["train", "--model", "gnb", "--csv", balanced,
                           *seed, "--out", fit]),
            ("train mlp", ["train", "--model", "mlp", "--csv", balanced,
                           "--params", '{"epochs": 5}', *seed, "--out", fit]),
            ("evaluate gnb", ["evaluate", "--model-file",
                              os.path.join(fit, "model_gnb.json"),
                              "--csv", dataset, *seed, "--out", ev]),
            ("evaluate mlp", ["evaluate", "--model-file",
                              os.path.join(fit, "model_mlp.json"),
                              "--csv", dataset, *seed, "--out", ev]),
            ("cross-validate", ["cross-validate", "--model", "gnb",
                                "--folds", "5", "--csv", dataset, *seed,
                                "--out", self._path("cv")]),
        ]

    def reset(self) -> None:
        """Empty the work directory; not part of the timed iteration."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def run(self) -> Outcome:
        """One timed iteration. Failures are recorded, never raised."""
        outcome = Outcome(ops=list(self.ops))
        self.stdout = []
        if self.workload.kind == "experiment":
            try:
                botsift.experiment.run_experiment(
                    self.config, self._path("bundle"))
            except Exception as exc:  # a failed operation is a measured outcome
                outcome.fail(0, f"{type(exc).__name__}: {exc}")
            return outcome
        for op, argv in enumerate(self.argvs):
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = botsift.cli.main(argv)
            except Exception as exc:  # a failed operation is a measured outcome
                outcome.fail(op, f"{type(exc).__name__}: {exc}")
                code = None
            if code not in (0, None):
                outcome.fail(op, f"exit code {code}: {err.getvalue().strip()}")
            self.stdout.append(out.getvalue())
        return outcome

    def check(self, outcome: Outcome) -> None:
        """Digest the outputs and check them after an iteration.

        A failed invariant, a missing or malformed output, or a digest that
        differs from the reference fails the operation that wrote it.
        """
        if self.workload.kind == "experiment":
            checks = {"run_experiment": self._check_bundle}
        else:
            checks = {
                "synth": self._check_synth,
                "ingest": self._check_ingest,
                "profile-stats": self._check_profile_stats,
                "smote": self._check_smote,
                "evaluate gnb": lambda out: self._check_evaluate(out, "gnb"),
                "evaluate mlp": lambda out: self._check_evaluate(out, "mlp"),
                "cross-validate": self._check_cv,
            }
        for op, name in enumerate(self.ops):
            if op in outcome.failures or name not in checks:
                continue
            try:
                problems = checks[name](outcome)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                problems = [f"output check: {type(exc).__name__}: {exc}"]
            for problem in problems:
                outcome.fail(op, problem)
        for rel, expected in sorted((self.reference or {}).items()):
            if outcome.digests.get(rel) != expected:
                op = 0 if self.workload.kind == "experiment" else (
                    self.ops.index(CLI_OUTPUTS[rel]))
                outcome.fail(op, f"{rel}: sha256 differs from the reference")

    def _digest(self, outcome: Outcome, rel: str) -> None:
        outcome.digests[rel] = sha256_file(self._path(*rel.split("/")))

    def _check_bundle(self, outcome: Outcome) -> list[str]:
        bundle = self._path("bundle")
        manifest = _read_json(os.path.join(bundle, "manifest.json"))
        for name in ["summary.txt", "manifest.json"] + sorted(
                n for n in os.listdir(bundle) if n.endswith("_metrics.json")):
            self._digest(outcome, f"bundle/{name}")
        counts = manifest["class_counts"]
        outcome.class_counts_in = counts["input"]
        rows = self.workload.rows
        problems = []
        if _total(counts["input"]) != rows:
            problems.append(f"input rows {_total(counts['input'])} != {rows}")
        if _total(counts["train_raw"]) + _total(counts["test_raw"]) != rows:
            problems.append("train + test rows differ from the input rows")
        after = counts["after_smote"]
        if after["normal"] != after["botnet"]:
            problems.append(f"after_smote counts are not balanced: {after}")
        if counts["train_smote"] != after or counts["test_smote"] != counts["test_raw"]:
            problems.append("smote arm does not train on the balanced rows")
        missing = [n for n in manifest["outputs"]
                   if not os.path.exists(os.path.join(bundle, n))]
        if missing:
            problems.append(f"manifest lists missing outputs {missing}")
        for arm in ("raw", "smote"):
            for model, _ in self.workload.models:
                metrics = _read_json(
                    os.path.join(bundle, f"{arm}_{model}_metrics.json"))
                if metrics["test_counts"] != counts[f"test_{arm}"]:
                    problems.append(f"{arm}/{model} scored the wrong test rows")
                cv = metrics["cv"]
                if self.workload.cv_folds and (
                        cv["k"] != self.workload.cv_folds
                        or sum(cv["fold_sizes"]) != _total(counts["train_raw"])):
                    problems.append(f"{arm}/{model} folds do not partition "
                                    "the training rows")
        return problems

    def _check_synth(self, outcome: Outcome) -> list[str]:
        with open(self._path("flows", "synth.csv"), "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.workload.rows:
            return [f"synth.csv has {rows} rows, not {self.workload.rows}"]
        return []

    def _check_ingest(self, outcome: Outcome) -> list[str]:
        self._digest(outcome, "data/dataset.csv")
        ingested = _read_json(self._path("data", "counts.json"))
        outcome.class_counts_in = {
            "normal": ingested["normal"], "botnet": ingested["botnet"]}
        if ingested["rows"] != self.workload.rows:
            return [f"ingest kept {ingested['rows']} of {self.workload.rows} rows"]
        return []

    def _check_profile_stats(self, outcome: Outcome) -> list[str]:
        op = self.ops.index("profile-stats")
        if not self.stdout[op].startswith(f"rows: {self.workload.rows} "):
            return ["profile-stats reports the wrong row count"]
        return []

    def _check_smote(self, outcome: Outcome) -> list[str]:
        self._digest(outcome, "balanced/balanced.csv")
        counts = _read_json(self._path("balanced", "counts.json"))
        after, before = counts["after"], counts["before"]
        problems = []
        if after["normal"] != after["botnet"]:
            problems.append(f"smote output is not balanced: {after}")
        if (_total(before) != self.workload.rows
                or counts["synthetic_rows"] != _total(after) - _total(before)):
            problems.append("smote row arithmetic does not add up")
        return problems

    def _check_evaluate(self, outcome: Outcome, model: str) -> list[str]:
        rel = f"eval/{model}_metrics.json"
        self._digest(outcome, rel)
        tested = _read_json(self._path(*rel.split("/")))["test_counts"]
        if _total(tested) != self.workload.rows:
            return [f"{model} evaluated {tested}, not {self.workload.rows} rows"]
        return []

    def _check_cv(self, outcome: Outcome) -> list[str]:
        self._digest(outcome, "cv/cv_gnb.json")
        cv = _read_json(self._path("cv", "cv_gnb.json"))
        if cv["k"] != 5 or sum(cv["fold_sizes"]) != self.workload.rows:
            return ["cross-validation folds do not partition the rows"]
        return []
