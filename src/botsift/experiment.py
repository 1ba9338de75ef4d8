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

from .classifiers import MODEL_NAMES, fit_model, save_model
from .errors import BotsiftError, ConfigError
from .evaluate import (EvalReport, METRIC_NAMES, cross_validate,
                       evaluate_model, percent, train_test_split)
from .features import chi2_scores, select_features
from .flows import Dataset, Schema, load_csv, to_dataset
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
    models: tuple[tuple[str, dict], ...] = (("gnb", {}), ("knn", {}), ("mlp", {}))
    save_models: bool = False

    def validate(self) -> None:
        sources = [s for s in (self.input_csv, self.input_profile) if s]
        if len(sources) != 1:
            raise ConfigError(
                "config must name exactly one input source "
                "(input.csv or input.profile)")
        if self.input_csv and not os.path.exists(self.input_csv):
            raise ConfigError(f"input csv not found: {self.input_csv}")
        if self.input_profile and not os.path.exists(self.input_profile):
            raise ConfigError(f"input profile not found: {self.input_profile}")
        if self.input_schema and not os.path.exists(self.input_schema):
            raise ConfigError(f"schema not found: {self.input_schema}")
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
        models: tuple[tuple[str, dict], ...]
        if models_raw is None:
            models = (("gnb", {}), ("knn", {}), ("mlp", {}))
        else:
            if not isinstance(models_raw, list):
                raise ConfigError("config 'models' must be a list")
            parsed = []
            for entry in models_raw:
                if not isinstance(entry, dict) or "name" not in entry:
                    raise ConfigError(f"each model entry needs a 'name': {entry}")
                entry = dict(entry)
                parsed.append((entry.pop("name"), entry))
            models = tuple(parsed)
        known = {f.name for f in dataclasses.fields(cls)}
        fields = {
            "input_csv": source.get("csv"),
            "input_schema": source.get("schema"),
            "input_profile": source.get("profile"),
            "input_rows": source.get("rows"),
            "models": models,
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        return cls.from_dict(raw)


@dataclass
class ExperimentResult:
    outdir: str
    manifest: dict
    reports: dict[tuple[str, str], EvalReport] = field(default_factory=dict)


def _write_json(path: str, payload: dict) -> None:
    """payload as sorted, indented JSON with a final newline; the CLI's
    outputs and the experiment bundle are written the same way."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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

        for arm in arms:
            train_arm, test_arm = arm_sets[arm]
            class_counts[f"train_{arm}"] = _counts_dict(train_arm)
            class_counts[f"test_{arm}"] = _counts_dict(test_arm)

        model_names = [name for name, _ in config.models]
        for arm in arms:
            train_arm, test_arm = arm_sets[arm]
            for name, params in config.models:
                params = dict(params)
                if name == "mlp" and "seed" not in params:
                    params["seed"] = seeds["mlp"]
                stage = f"train[{arm}/{name}]"
                if "train" not in stages:
                    stages.append("train")
                model = fit_model(name, train_arm, params)
                if config.save_models:
                    tagged = dataclasses.replace(model, provenance={
                        "arm": arm, "mode": config.mode,
                        "stage_seeds": seeds,
                        "features": list(train_arm.feature_names),
                    })
                    save_model(tagged, os.path.join(
                        outdir, f"model_{arm}_{name}.json"))
                stage = f"evaluate[{arm}/{name}]"
                if "evaluate" not in stages:
                    stages.append("evaluate")
                cv = None
                if config.cv_folds:
                    stage = f"cross_validate[{arm}/{name}]"
                    if "cross_validate" not in stages:
                        stages.append("cross_validate")
                    if config.mode == "paper":
                        cv = cross_validate(
                            train_arm, name, config.cv_folds, seeds["cv"],
                            params=params, mode="paper")
                    else:
                        cv = cross_validate(
                            cv_source, name, config.cv_folds, seeds["cv"],
                            params=params, mode="default", scale=True,
                            smote_config=smote_config if arm == "smote" else None)
                report = evaluate_model(model, test_arm, model_name=name, cv=cv)
                reports[(arm, name)] = report
                base = os.path.join(outdir, f"{arm}_{name}")
                with open(f"{base}_report.txt", "w", encoding="utf-8") as fh:
                    fh.write(report.to_text())
                _write_json(f"{base}_metrics.json", report.to_json_dict())
                report.curve.to_file(f"{base}_roc.tsv")

        stage = "finalize"
        manifest["class_counts"] = class_counts
        manifest["stage_order"] = stages
        summary = _summary_table(reports, arms, model_names)
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
