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

Cross-validation prepares each fold once per arm (evaluate.fold_sets)
and scores every model on it. The jobs run on both cores through
evaluate.run_fold_jobs, the fold runner cross_validate uses too: fold jobs
(arm, fold, every model) first, then one full fit per (arm, model), MLP
first. A rule that set sizes alone break fails so before any job runs. The
run stops at the first failing job in job order, whose step names the
stage, as in cross_validate[raw/fold 3], cross_validate[raw/knn] or
train[raw/knn]; no job starts after a failure, and only the jobs already
running finish.

Every stage seed is the master seed plus a fixed labelled offset, the
manifest records seeds, mode, and the pipeline's stages (its stage_order
ends train, evaluate, cross_validate, though the fold jobs are sent
first), and no output contains timestamps, so equal configs give
byte-identical bundles.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from dataclasses import dataclass, field

from .classifiers import MODEL_NAMES, _seeded, check_params, save_model
from .errors import BotsiftError, ConfigError
from .evaluate import (CvResult, EvalReport, METRIC_NAMES, make_folds, percent,
                       run_fold_jobs, train_test_split)
from .features import chi2_scores, select_features
from .flows import (_ACCEPTS, Dataset, Schema, _counts_json, _read_json,
                    _write_json, load_csv, to_dataset)
from .preprocess import apply_scaler, cleanse, encode, fit_scaler
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
        for f in dataclasses.fields(self):
            type_, value = f.type.removesuffix(" | None"), getattr(self, f.name)
            if type_ not in _ACCEPTS or value is None and type_ != f.type:
                continue  # an unset optional field, or models (checked below)
            what, accepts = _ACCEPTS[type_]
            if not accepts(value):
                key = f.name.replace("input_", "input.")
                raise ConfigError(f"{key} must be {what}, got {value!r}")
        sources = [s for s in (self.input_csv, self.input_profile) if s]
        if len(sources) != 1:
            raise ConfigError(
                "config must name exactly one input source "
                "(input.csv or input.profile)")
        for key, value, source in (("input.rows", self.input_rows, "profile"),
                                   ("input.schema", self.input_schema, "csv")):
            if value is not None and not getattr(self, f"input_{source}"):
                raise ConfigError(f"{key} applies only to input.{source}")
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
        names = [name for name, _ in self.models]
        if len(set(names)) < len(names):
            raise ConfigError(f"config lists a model more than once: {names}")
        for name, params in self.models:
            if not isinstance(params, dict):
                raise ConfigError(f"model {name!r} parameters must be an object")
            check_params(name, params, ConfigError)
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.cv_folds != 0 and self.cv_folds < 2:
            raise ConfigError(
                f"cv_folds must be 0 (disabled) or >= 2, got {self.cv_folds}")
        for key, value, low in (("seed", self.seed, 0), ("smote_k", self.smote_k, 1),
                                ("input rows", self.input_rows, 1)):
            if value is not None and value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")

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
        raw = _read_json(path, "config file", ConfigError)
        try:
            return cls.from_dict(raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


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
    else:
        stages.append("load")
        schema = Schema.from_json(config.input_schema) if config.input_schema else None
        flows = load_csv(config.input_csv, schema)
    stages.append("cleanse")
    flows = cleanse(flows)
    stages.append("encode")
    return to_dataset(encode(flows)[0])


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


def _prepare(config: ExperimentConfig, dataset: Dataset, arms: list[str],
             seeds: dict[str, int], smote_config: SmoteConfig, stages: list[str],
             class_counts: dict
             ) -> tuple[dict[str, tuple[Dataset, Dataset]], Dataset | None]:
    """Each arm's (training, test) sets, and in default mode the unscaled
    training split, which cross-validation rescales (and rebalances) fold
    by fold; None in paper mode."""
    if config.mode == "paper":
        stages.append("scale")
        sources = {"raw": apply_scaler(dataset, fit_scaler(dataset))}
        stages += ["split"] if "raw" in arms else []
        if "smote" in arms:
            stages.append("smote")
            sources["smote"] = smote(sources["raw"], smote_config, seeds["smote"]).dataset
            class_counts["after_smote"] = _counts_json(sources["smote"].class_counts)
            stages += [] if "split" in stages else ["split"]
        return {arm: train_test_split(sources[arm], config.test_fraction, seeds["split"])
                for arm in arms}, None
    stages += ["split", "scale"]
    train, test = train_test_split(dataset, config.test_fraction, seeds["split"])
    scaler = fit_scaler(train)
    train_scaled, test_scaled = apply_scaler(train, scaler), apply_scaler(test, scaler)
    arm_sets = {"raw": (train_scaled, test_scaled)} if "raw" in arms else {}
    if "smote" in arms:
        stages.append("smote")
        balanced = smote(train_scaled, smote_config, seeds["smote"]).dataset
        class_counts["after_smote"] = _counts_json(balanced.class_counts)
        arm_sets["smote"] = (balanced, test_scaled)
    return arm_sets, train


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
        manifest: dict = {
            "config": config.to_dict(),
            "mode": config.mode,
            "stage_seeds": seeds,
            "arms": arms,
        }
        class_counts: dict = {}

        stage = "load"
        dataset = _load_input(config, seeds, stages)
        class_counts["input"] = _counts_json(dataset.class_counts)
        manifest["candidate_features"] = list(dataset.feature_names)

        # Feature relevance is scored once, before splitting, on a copy
        # scaled over all rows (the statistic needs non-negative values).
        stage = "score_features"
        stages.append("score_features")
        score_report = chi2_scores(apply_scaler(dataset, fit_scaler(dataset)))
        score_report.to_table(os.path.join(outdir, "feature_scores.txt"))
        score_report.to_json(os.path.join(outdir, "feature_scores.json"))
        manifest["feature_scoring"] = "pre-split, min-max scaled over all rows"
        if config.select:
            stage = "select_features"
            stages.append("select_features")
            dataset = select_features(dataset, score_report)
        manifest["selected_features"] = list(dataset.feature_names)

        stage = "prepare"
        smote_config = SmoteConfig(k_neighbors=config.smote_k)
        arm_sets, cv_source = _prepare(config, dataset, arms, seeds, smote_config,
                                       stages, class_counts)
        class_counts |= {f"{side}_{arm}": _counts_json(part.class_counts)
                         for arm in arms
                         for side, part in zip(("train", "test"), arm_sets[arm])}
        # Each arm's folds are prepared once and score every model; paper
        # mode preprocessed the whole arm, so its folds are used as they are.
        paper = config.mode == "paper"
        cv_sets = {}
        for arm in arms if config.cv_folds else ():
            rows = arm_sets[arm][0] if paper else cv_source
            cv_sets[arm] = dict(
                dataset=rows, folds=make_folds(rows.labels, config.cv_folds, seeds["cv"]),
                smote_config=smote_config if arm == "smote" and not paper else None)
        del dataset, cv_source  # no job reads them, so no child need inherit them
        # Fold jobs go first, then one full fit per (arm, model) with MLP,
        # the longest, first. Each job's output depends only on its inputs,
        # so the bundle is the same bytes whichever process ran it.
        models = tuple((name, _seeded(name, params, seeds["mlp"]))
                       for name, params in config.models)
        jobs = [(arm, f, models) for arm in cv_sets for f in range(config.cv_folds)]
        jobs += sorted(((arm, None, (model,)) for arm in arms for model in models),
                       key=lambda job: job[2][0][0] != "mlp")
        stages += ["train", "evaluate"] + (["cross_validate"] if config.cv_folds else [])

        def save(arm: str, name: str, model) -> None:
            # in the worker that fitted it: a KNN model holds the training rows
            tagged = dataclasses.replace(model, provenance={
                "arm": arm, "mode": config.mode, "stage_seeds": seeds,
                "features": list(arm_sets[arm][0].feature_names)})
            save_model(tagged, os.path.join(outdir, f"model_{arm}_{name}.json"))

        results = run_fold_jobs(jobs, cv_sets, arm_sets, seeds["cv"], scale=not paper,
                                save=save if config.save_models else None)

        stage = "finalize"
        reports: dict[tuple[str, str], EvalReport] = {}
        for arm in arms:
            for name, _ in config.models:
                *fold_metrics, report = results[(arm, name)]
                cv = (CvResult.from_folds(name, seeds["cv"], cv_sets[arm]["folds"],
                                          fold_metrics) if config.cv_folds else None)
                reports[(arm, name)] = dataclasses.replace(report, cv=cv)
                reports[(arm, name)].write_files(os.path.join(outdir, f"{arm}_{name}"))
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
            f"stage {getattr(exc, 'stage', stage)!r} failed: {exc} "
            f"[config: {json.dumps(config.to_dict(), sort_keys=True)}]",)
        raise
    except Exception:
        _cleanup(outdir, created_root)
        raise


def _cleanup(outdir: str, created_root: bool) -> None:
    if created_root:
        shutil.rmtree(outdir, ignore_errors=True)
        return
    for name in os.listdir(outdir):
        path = os.path.join(outdir, name)
        if os.path.isfile(path):
            os.remove(path)
