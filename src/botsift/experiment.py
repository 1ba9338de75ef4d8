"""End-to-end experiment runner.

One run takes flow data (a CSV or a synthesis profile), preprocesses it,
scores and selects features, trains the configured classifiers, and
writes a report bundle. The raw and SMOTE-balanced arms can run side by
side (smote="both") to expose what rebalancing changes.

Two pipeline modes:
  default: split first, then fit the scaler on the training side only and
      balance only the training side (nothing crosses the split).
  paper:   normalize the whole dataset, balance the whole dataset, then
      split; reproduces the global-preprocessing protocol some published
      benchmarks use.

Every stage seed is the master seed plus a fixed labelled offset, the
manifest records seeds, mode, and executed stage order, and no output
contains timestamps, so equal configs give byte-identical bundles.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from dataclasses import dataclass, field
from functools import partial

from ._pool import fork_map
from .classifiers import MODEL_NAMES, fit_model, save_model
from .errors import BotsiftError, ConfigError
from .evaluate import (EvalReport, METRIC_NAMES, cross_validate,
                       evaluate_model, percent, train_test_split)
from .features import chi2_scores, select_features
from .flows import (Dataset, Schema, _read_json, _write_json, load_csv,
                    to_dataset)
from .preprocess import apply_encoding, apply_scaler, cleanse, fit_encoding, fit_scaler
from .smote import SmoteConfig, smote
from .synth import TrafficProfile, generate

STAGE_SEED_OFFSETS = {"synth": 1, "split": 2, "smote": 3, "cv": 4, "mlp": 5}
SMOTE_CHOICES = ("off", "on", "both")
MODES = ("default", "paper")


@dataclass(frozen=True)
class ExperimentConfig:
    input_csv: str | None = None
    input_schema: str | None = None
    input_profile: str | None = None
    input_rows: int | None = None
    mode: str = "default"
    seed: int = 0
    smote: str = "off"
    smote_k: int = 5
    select: bool = True
    test_fraction: float = 0.2
    cv_folds: int = 5
    models: tuple[tuple[str, dict], ...] = tuple((name, {}) for name in MODEL_NAMES)
    save_models: bool = False

    def validate(self) -> None:
        sources = [s for s in (self.input_csv, self.input_profile) if s]
        if len(sources) != 1:
            raise ConfigError(
                "config must name exactly one input source "
                "(input.csv or input.profile)")
        for what, path in (("input csv", self.input_csv),
                           ("input profile", self.input_profile),
                           ("schema", self.input_schema)):
            if path and not os.path.exists(path):
                raise ConfigError(f"{what} not found: {path}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.smote not in SMOTE_CHOICES:
            raise ConfigError(
                f"smote must be one of {SMOTE_CHOICES}, got {self.smote!r}")
        if not self.models:
            raise ConfigError("config lists no models to train")
        for name, params in self.models:
            if name not in MODEL_NAMES:
                raise ConfigError(
                    f"unknown model {name!r}, expected one of {MODEL_NAMES}")
            if not isinstance(params, dict):
                raise ConfigError(f"model {name!r} parameters must be an object")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.cv_folds != 0 and self.cv_folds < 2:
            raise ConfigError(
                f"cv_folds must be 0 (disabled) or >= 2, got {self.cv_folds}")
        if self.smote_k < 1:
            raise ConfigError(f"smote_k must be >= 1, got {self.smote_k}")
        if self.input_rows is not None and self.input_rows < 1:
            raise ConfigError(f"input rows must be >= 1, got {self.input_rows}")

    def stage_seeds(self) -> dict[str, int]:
        seeds = {"master": self.seed}
        for stage, offset in STAGE_SEED_OFFSETS.items():
            seeds[stage] = self.seed + offset
        return seeds

    def to_dict(self) -> dict:
        raw = dataclasses.asdict(self)
        raw["models"] = [{"name": name, **params} for name, params in self.models]
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        raw = dict(raw)
        source = raw.pop("input", {})
        if not isinstance(source, dict):
            raise ConfigError("config 'input' must be an object")
        models_raw = raw.pop("models", None)
        if models_raw is None:
            models_raw = [{"name": name} for name in MODEL_NAMES]
        if not isinstance(models_raw, list):
            raise ConfigError("config 'models' must be a list")
        models = []
        for entry in models_raw:
            if not isinstance(entry, dict) or "name" not in entry:
                raise ConfigError(f"each model entry needs a 'name': {entry}")
            entry = dict(entry)
            models.append((entry.pop("name"), entry))
        known = {f.name for f in dataclasses.fields(cls)}
        fields = {
            "input_csv": source.get("csv"),
            "input_schema": source.get("schema"),
            "input_profile": source.get("profile"),
            "input_rows": source.get("rows"),
            "models": tuple(models),
        }
        for key, value in raw.items():
            if key not in known or key.startswith("input_"):
                raise ConfigError(f"unknown config key {key!r}")
            fields[key] = value
        unknown_source = set(source) - {"csv", "schema", "profile", "rows"}
        if unknown_source:
            raise ConfigError(f"unknown input keys {sorted(unknown_source)}")
        return cls(**fields)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(_read_json(path, "config file", ConfigError))


@dataclass
class ExperimentResult:
    outdir: str
    manifest: dict
    reports: dict[tuple[str, str], EvalReport] = field(default_factory=dict)


def _load_input(config: ExperimentConfig, seeds: dict[str, int],
                stages: list[str]) -> Dataset:
    if config.input_profile:
        stages.append("synth")
        profile = TrafficProfile.from_json(config.input_profile)
        flows = generate(profile, rows=config.input_rows, seed=seeds["synth"])
        schema = None
    else:
        stages.append("load")
        schema = Schema.from_json(config.input_schema) if config.input_schema else None
        flows = load_csv(config.input_csv, schema)
    stages.append("cleanse")
    flows = cleanse(flows, schema)
    stages.append("encode")
    encoding = fit_encoding(flows, schema)
    return to_dataset(apply_encoding(flows, encoding))


def _summary_table(reports: dict[tuple[str, str], EvalReport],
                   arms: list[str], models: list[str]) -> str:
    header = f"{'arm':<7}{'model':<7}" + "".join(f"{m:>11}" for m in METRIC_NAMES)
    lines = [header, "-" * len(header)]
    for arm in arms:
        for model in models:
            report = reports[(arm, model)]
            cells = "".join(
                f"{percent(getattr(report.metrics, name)):>11}"
                for name in METRIC_NAMES)
            lines.append(f"{arm:<7}{model:<7}{cells}")
    lines.append("")
    lines.append("values are percentages, one decimal, ties to even")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Grid:
    """What every (arm, model) job of one run reads."""

    config: ExperimentConfig
    outdir: str
    seeds: dict[str, int]
    smote_config: SmoteConfig
    arm_sets: dict[str, tuple[Dataset, Dataset]]
    # default mode's unscaled training split, which cross-validation
    # rescales (and rebalances) fold by fold; None in paper mode
    cv_source: Dataset | None


# One job: (arm, model name, model parameters).
_Job = tuple[str, str, dict]


def _fit_job(grid: _Grid, job: _Job) -> tuple[str, EvalReport | Exception]:
    """Fit, save, cross-validate and evaluate one model on one arm, and
    write its report files.

    Returns the last stage label entered and the report, or the exception
    that stage raised, so a caller can re-raise failures in job order.
    """
    arm, name, params = job
    config = grid.config
    train_arm, test_arm = grid.arm_sets[arm]
    stage = f"train[{arm}/{name}]"
    try:
        model = fit_model(name, train_arm, params)
        if config.save_models:
            tagged = dataclasses.replace(model, provenance={
                "arm": arm, "mode": config.mode,
                "stage_seeds": grid.seeds,
                "features": list(train_arm.feature_names),
            })
            save_model(tagged, os.path.join(grid.outdir, f"model_{arm}_{name}.json"))
        cv = None
        if config.cv_folds:
            stage = f"cross_validate[{arm}/{name}]"
            if config.mode == "paper":
                cv = cross_validate(
                    train_arm, name, config.cv_folds, grid.seeds["cv"],
                    params=params, mode="paper")
            else:
                cv = cross_validate(
                    grid.cv_source, name, config.cv_folds, grid.seeds["cv"],
                    params=params, mode="default", scale=True,
                    smote_config=grid.smote_config if arm == "smote" else None)
        stage = f"evaluate[{arm}/{name}]"
        report = evaluate_model(model, test_arm, model_name=name, cv=cv)
        report.write_files(os.path.join(grid.outdir, f"{arm}_{name}"))
        return stage, report
    except Exception as exc:
        return stage, exc


def _run_jobs(grid: _Grid, jobs: list[_Job]) -> list[tuple[str, EvalReport | Exception]]:
    """_fit_job over every job, results in job order.

    The jobs run through _pool.fork_map: forked children inherit the
    grid's datasets, so only the reports (or exceptions) come back. MLP
    jobs, the longest, are sent first so that no worker finishes a long fit
    alone at the end. Each job's output depends only on its inputs, so
    bundles are the same bytes whichever process ran it.
    """
    order = sorted(range(len(jobs)), key=lambda i: jobs[i][1] != "mlp")
    done = dict(zip(order, fork_map(partial(_fit_job, grid), [jobs[i] for i in order])))
    return [done[i] for i in range(len(jobs))]


def run_experiment(config: ExperimentConfig, outdir: str) -> ExperimentResult:
    """Execute the configured pipeline and write the report bundle.

    The output directory must not already contain files. On any stage
    failure the partially written bundle is removed and the error is
    re-raised with the stage name and the config echo attached.
    """
    config.validate()
    if os.path.exists(outdir) and os.listdir(outdir):
        raise ConfigError(f"output directory {outdir} is not empty")
    created_root = not os.path.exists(outdir)
    os.makedirs(outdir, exist_ok=True)

    stage = "setup"
    try:
        seeds = config.stage_seeds()
        stages: list[str] = []
        arms = {"off": ["raw"], "on": ["smote"], "both": ["raw", "smote"]}[config.smote]
        smote_config = SmoteConfig(k_neighbors=config.smote_k)
        manifest: dict = {
            "config": config.to_dict(),
            "mode": config.mode,
            "stage_seeds": seeds,
            "arms": arms,
        }
        class_counts: dict = {}
        reports: dict[tuple[str, str], EvalReport] = {}

        stage = "load"
        dataset = _load_input(config, seeds, stages)
        class_counts["input"] = _counts_dict(dataset)
        manifest["candidate_features"] = list(dataset.feature_names)

        # Feature relevance is scored once, before splitting, on a copy
        # scaled over all rows (the statistic needs non-negative values).
        stage = "score_features"
        stages.append("score_features")
        scoring_copy = apply_scaler(dataset, fit_scaler(dataset))
        score_report = chi2_scores(scoring_copy)
        score_report.to_table(os.path.join(outdir, "feature_scores.txt"))
        score_report.to_json(os.path.join(outdir, "feature_scores.json"))
        manifest["feature_scoring"] = "pre-split, min-max scaled over all rows"
        if config.select:
            stage = "select_features"
            stages.append("select_features")
            dataset = select_features(dataset, score_report)
        manifest["selected_features"] = list(dataset.feature_names)

        stage = "prepare"
        arm_sets: dict[str, tuple[Dataset, Dataset]] = {}
        cv_source: Dataset | None = None
        if config.mode == "paper":
            stages.append("scale")
            scaled = apply_scaler(dataset, fit_scaler(dataset))
            if "raw" in arms:
                stages.append("split")
                arm_sets["raw"] = train_test_split(
                    scaled, config.test_fraction, seeds["split"])
            if "smote" in arms:
                stages.append("smote")
                balanced = smote(scaled, smote_config, seeds["smote"]).dataset
                class_counts["after_smote"] = _counts_dict(balanced)
                if "split" not in stages:
                    stages.append("split")
                arm_sets["smote"] = train_test_split(
                    balanced, config.test_fraction, seeds["split"])
        else:
            stages.append("split")
            train, test = train_test_split(
                dataset, config.test_fraction, seeds["split"])
            stages.append("scale")
            scaler = fit_scaler(train)
            train_scaled = apply_scaler(train, scaler)
            test_scaled = apply_scaler(test, scaler)
            if "raw" in arms:
                arm_sets["raw"] = (train_scaled, test_scaled)
            if "smote" in arms:
                stages.append("smote")
                balanced = smote(train_scaled, smote_config, seeds["smote"]).dataset
                class_counts["after_smote"] = _counts_dict(balanced)
                arm_sets["smote"] = (balanced, test_scaled)
            # cross-validation refits scaler and SMOTE inside each fold,
            # so it runs on the unscaled training split
            cv_source = train

        jobs: list[_Job] = []
        for arm in arms:
            train_arm, test_arm = arm_sets[arm]
            class_counts[f"train_{arm}"] = _counts_dict(train_arm)
            class_counts[f"test_{arm}"] = _counts_dict(test_arm)
            for name, params in config.models:
                params = dict(params)
                if name == "mlp" and "seed" not in params:
                    params["seed"] = seeds["mlp"]
                jobs.append((arm, name, params))

        stages += ["train", "evaluate"] + (["cross_validate"] if config.cv_folds else [])
        grid = _Grid(config, outdir, seeds, smote_config, arm_sets, cv_source)
        for (arm, name, _), (stage, outcome) in zip(jobs, _run_jobs(grid, jobs)):
            if isinstance(outcome, Exception):
                raise outcome
            reports[(arm, name)] = outcome

        stage = "finalize"
        manifest["class_counts"] = class_counts
        manifest["stage_order"] = stages
        summary = _summary_table(reports, arms, [name for name, _ in config.models])
        with open(os.path.join(outdir, "summary.txt"), "w", encoding="utf-8") as fh:
            fh.write(summary)
        manifest["outputs"] = sorted(
            name for name in os.listdir(outdir) if name != "manifest.json")
        _write_json(os.path.join(outdir, "manifest.json"), manifest)
        return ExperimentResult(outdir=outdir, manifest=manifest, reports=reports)
    except BotsiftError as exc:
        _cleanup(outdir, created_root)
        exc.args = (
            f"stage {stage!r} failed: {exc} "
            f"[config: {json.dumps(config.to_dict(), sort_keys=True)}]",)
        raise
    except Exception:
        _cleanup(outdir, created_root)
        raise


def _counts_dict(dataset: Dataset) -> dict[str, int]:
    normal, botnet = dataset.class_counts
    return {"normal": normal, "botnet": botnet}


def _cleanup(outdir: str, created_root: bool) -> None:
    if created_root:
        shutil.rmtree(outdir, ignore_errors=True)
        return
    for name in os.listdir(outdir):
        path = os.path.join(outdir, name)
        if os.path.isfile(path):
            os.remove(path)
