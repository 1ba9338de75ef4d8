"""Command-line interface.

Subcommands mirror the pipeline stages: ingest, profile-stats,
score-features, smote, train, evaluate, cross-validate, synth, and run.
Every subcommand accepts --seed, --out, and --config (a JSON object that
fills in options not given on the command line; explicit flags win). The
default output directory is $BOTSIFT_OUT when set, else ./botsift-out.

Exit codes: 0 success, 1 validation/configuration error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .classifiers import MODEL_NAMES, fit_model, load_model, save_model
from .errors import BotsiftError, ConfigError, SchemaError
from .evaluate import METRIC_NAMES, cross_validate, evaluate_model, percent
from .experiment import ExperimentConfig, run_experiment
from .features import chi2_scores
from .flows import (Schema, _read_json, _write_json, class_summary, load_csv,
                    read_dataset_csv, to_dataset, write_dataset_csv,
                    write_records_csv)
from .preprocess import apply_encoding, apply_scaler, cleanse, fit_encoding, fit_scaler
from .smote import SmoteConfig, smote
from .synth import TrafficProfile, bundled_profile_path, generate


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_dir(args, cfg) -> str:
    # Creates the directory, so handlers call this only after inputs validate;
    # a failed invocation must not leave an empty output dir behind.
    out = args.out or cfg.get("out") or os.environ.get("BOTSIFT_OUT") or "botsift-out"
    os.makedirs(out, exist_ok=True)
    return out


def _resolve(args, cfg, key, default=None):
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key, default)
    return value


def _load_cfg(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    cfg = _read_json(args.config, "config file", ConfigError)
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _schema_arg(args, cfg) -> Schema | None:
    path = _resolve(args, cfg, "schema")
    return Schema.from_json(path) if path else None


def _params_arg(args, cfg) -> dict:
    raw = _resolve(args, cfg, "params")
    if raw is None:
        return {}
    if isinstance(raw, dict):
        return dict(raw)
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc}")
    if not isinstance(parsed, dict):
        raise ConfigError("--params must be a JSON object")
    return parsed


def _require(args, cfg, key: str):
    value = _resolve(args, cfg, key)
    if value is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return value


# --------------------------------------------------------------------------
# Subcommand handlers


def _cmd_ingest(args) -> None:
    cfg = _load_cfg(args)
    schema = _schema_arg(args, cfg)
    loaded = load_csv(_require(args, cfg, "csv"), schema)
    flows = cleanse(loaded, schema)
    encoding = fit_encoding(flows, schema)
    dataset = to_dataset(apply_encoding(flows, encoding))
    out = _out_dir(args, cfg)
    write_dataset_csv(dataset, os.path.join(out, "dataset.csv"))
    encoding.to_json(os.path.join(out, "encoding.json"))
    normal, botnet = dataset.class_counts
    dropped = len(loaded) - len(flows)
    _write_json(os.path.join(out, "counts.json"),
                {"normal": normal, "botnet": botnet, "rows": dataset.n_rows,
                 "features": list(dataset.feature_names),
                 "dropped": dropped, "missing": flows.missing_counts})
    print(f"ingested {dataset.n_rows} rows "
          f"(normal {normal}, botnet {botnet}; dropped {dropped}) "
          f"-> {out}/dataset.csv")


def _cmd_profile_stats(args) -> None:
    cfg = _load_cfg(args)
    schema = _schema_arg(args, cfg)
    summary = class_summary(load_csv(_require(args, cfg, "csv"), schema))
    print(f"rows: {summary.total} "
          f"(normal {summary.counts[0]}, botnet {summary.counts[1]})")
    for label, name in ((0, "normal"), (1, "botnet")):
        if label not in summary.means:
            continue
        print(f"{name} feature means:")
        for feature, mean in summary.means[label].items():
            print(f"  {feature:<8} {mean:.6g}")
    if args.out:
        out = _out_dir(args, cfg)
        _write_json(os.path.join(out, "profile_stats.json"), {
            "counts": {"normal": summary.counts[0], "botnet": summary.counts[1]},
            "means": {str(k): v for k, v in summary.means.items()},
        })


def _cmd_score_features(args) -> None:
    cfg = _load_cfg(args)
    dataset, _ = read_dataset_csv(_require(args, cfg, "csv"))
    scaled = apply_scaler(dataset, fit_scaler(dataset))
    report = chi2_scores(scaled)
    out = _out_dir(args, cfg)
    report.to_table(os.path.join(out, "feature_scores.txt"))
    report.to_json(os.path.join(out, "feature_scores.json"))
    print(f"scored {len(report.feature_names)} features; "
          f"selected over mean: {', '.join(report.selected)}")


def _cmd_smote(args) -> None:
    cfg = _load_cfg(args)
    dataset, _ = read_dataset_csv(_require(args, cfg, "csv"))
    config = SmoteConfig(
        k_neighbors=int(_resolve(args, cfg, "k", 5)),
        target_minority_count=_resolve(args, cfg, "target"),
    )
    result = smote(dataset, config, seed=int(_resolve(args, cfg, "seed", 0)))
    out = _out_dir(args, cfg)
    write_dataset_csv(result.dataset, os.path.join(out, "balanced.csv"),
                      synthetic=result.synthetic)
    _write_json(os.path.join(out, "counts.json"), {
        "before": {"normal": result.original_counts[0],
                   "botnet": result.original_counts[1]},
        "after": {"normal": result.counts[0], "botnet": result.counts[1]},
        "synthetic_rows": int(result.synthetic.sum()),
    })
    print(f"balanced ({result.original_counts[0]}, {result.original_counts[1]}) "
          f"-> ({result.counts[0]}, {result.counts[1]}) rows in {out}/balanced.csv")


def _cmd_train(args) -> None:
    cfg = _load_cfg(args)
    dataset, _ = read_dataset_csv(_require(args, cfg, "csv"))
    name = _require(args, cfg, "model")
    params = _params_arg(args, cfg)
    seed = _resolve(args, cfg, "seed")
    if name == "mlp" and seed is not None and "seed" not in params:
        params["seed"] = int(seed)
    model = fit_model(name, dataset, params)
    normal, botnet = dataset.class_counts
    model = dataclasses.replace(model, provenance={
        "trained_rows": dataset.n_rows,
        "class_counts": {"normal": normal, "botnet": botnet},
        "params": params,
    })
    out = _out_dir(args, cfg)
    path = os.path.join(out, f"model_{name}.json")
    save_model(model, path)
    print(f"trained {name} on {dataset.n_rows} rows -> {path}")


def _cmd_evaluate(args) -> None:
    cfg = _load_cfg(args)
    model = load_model(_require(args, cfg, "model_file"))
    dataset, _ = read_dataset_csv(_require(args, cfg, "csv"))
    report = evaluate_model(model, dataset)
    report.write_files(os.path.join(_out_dir(args, cfg), report.model))
    print(report.to_text(), end="")


def _cmd_cross_validate(args) -> None:
    cfg = _load_cfg(args)
    dataset, _ = read_dataset_csv(_require(args, cfg, "csv"))
    name = _require(args, cfg, "model")
    result = cross_validate(
        dataset, name,
        k=int(_resolve(args, cfg, "folds", 5)),
        seed=int(_resolve(args, cfg, "seed", 0)),
        params=_params_arg(args, cfg),
    )
    out = _out_dir(args, cfg)
    _write_json(os.path.join(out, f"cv_{name}.json"), result.as_dict())
    print(f"{name} {result.k}-fold cross-validation (percent, mean +/- std):")
    for metric in METRIC_NAMES:
        print(f"  {metric:<10} {percent(result.mean[metric])} "
              f"+/- {percent(result.std[metric])}")


def _cmd_synth(args) -> None:
    cfg = _load_cfg(args)
    name = _resolve(args, cfg, "profile", "botiot-means")
    path = name if os.path.exists(name) else bundled_profile_path(name)
    profile = TrafficProfile.from_json(path)
    rows = _resolve(args, cfg, "rows")
    seed = _resolve(args, cfg, "seed")
    flows = generate(profile,
                     rows=int(rows) if rows is not None else None,
                     seed=int(seed) if seed is not None else None)
    csv_path = os.path.join(_out_dir(args, cfg), "synth.csv")
    write_records_csv(flows, csv_path)
    botnet = int(flows.labels.sum())
    print(f"generated {len(flows)} rows "
          f"(normal {len(flows) - botnet}, botnet {botnet}) -> {csv_path}")


def _cmd_run(args) -> None:
    config = ExperimentConfig.from_json(_require(args, {}, "config"))
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = int(args.seed)
    if args.paper_mode:
        overrides["mode"] = "paper"
    if overrides:
        config = dataclasses.replace(config, **overrides)
    out = args.out or os.environ.get("BOTSIFT_OUT") or "botsift-out"
    result = run_experiment(config, out)
    print(f"experiment bundle written to {result.outdir}")
    with open(os.path.join(result.outdir, "summary.txt"), "r",
              encoding="utf-8") as fh:
        print(fh.read(), end="")


# --------------------------------------------------------------------------
# Parser


def build_parser() -> _Parser:
    parser = _Parser(prog="botsift",
                     description="Botnet flow detection toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, handler, help_, flags):
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--seed", type=int, default=None,
                       help="seed for every random stage")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--config", default=None,
                       help="JSON file supplying unset options")
        p.set_defaults(handler=handler)
        return p

    csv_flag = ("--csv", {"help": "input CSV file"})
    schema_flag = ("--schema", {"help": "schema JSON (default: bundled flow schema)"})
    add("ingest", _cmd_ingest,
        "load, cleanse, and encode a flow CSV", [csv_flag, schema_flag])
    add("profile-stats", _cmd_profile_stats,
        "class counts and per-class feature means", [csv_flag, schema_flag])
    add("score-features", _cmd_score_features,
        "chi-square feature scores and mean-threshold selection", [csv_flag])
    add("smote", _cmd_smote, "balance a dataset with SMOTE", [
        csv_flag,
        ("--k", {"type": int, "default": None, "help": "neighbourhood size (default 5)"}),
        ("--target", {"type": int, "default": None,
                      "help": "final minority count (default: match majority)"}),
    ])
    add("train", _cmd_train, "fit one classifier and save it", [
        csv_flag,
        ("--model", {"choices": MODEL_NAMES, "default": None}),
        ("--params", {"help": "hyperparameters as a JSON object"}),
    ])
    add("evaluate", _cmd_evaluate, "score a saved model on a test CSV", [
        ("--model-file", {"dest": "model_file", "help": "saved model JSON"}),
        csv_flag,
    ])
    add("cross-validate", _cmd_cross_validate, "k-fold cross-validation", [
        csv_flag,
        ("--model", {"choices": MODEL_NAMES, "default": None}),
        ("--folds", {"type": int, "default": None, "help": "fold count (default 5)"}),
        ("--params", {"help": "hyperparameters as a JSON object"}),
    ])
    add("synth", _cmd_synth, "generate synthetic flows from a profile", [
        ("--profile", {"help": "profile path or bundled profile name"}),
        ("--rows", {"type": int, "default": None, "help": "row count override"}),
    ])
    add("run", _cmd_run, "full experiment from a config file", [
        ("--paper-mode", {"action": "store_true",
                          "help": "normalize and balance the whole dataset "
                                  "before splitting"}),
    ])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 1
    try:
        args.handler(args)
    except (BotsiftError, OSError) as exc:
        print(f"botsift: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ConfigError, SchemaError)) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
