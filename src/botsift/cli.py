"""Command-line interface.

Subcommands mirror the pipeline stages: ingest, profile-stats,
score-features, smote, train, evaluate, cross-validate, synth, and run.
Every subcommand accepts --seed, --out, and --config: for run the
experiment config, else a JSON object of options keyed by name (model_file
for --model-file), checked like flags, which win over it. The default
output directory is $BOTSIFT_OUT when set, else ./botsift-out.

Exit codes: 0 success, 1 validation/configuration error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import BrokenExecutor

from .classifiers import (MODEL_NAMES, _seeded, _special, fit_model, load_model,
                          model_kind, save_model)
from .errors import BotsiftError, ConfigError, LoadError, SchemaError
from .evaluate import cross_validate, evaluate_model
from .experiment import ExperimentConfig, run_experiment
from .features import chi2_scores
from .flows import (Schema, _counts_json, _read_json, _write_json, class_summary,
                    load_csv, read_dataset_csv, to_dataset, write_dataset_csv,
                    write_records_csv)
from .preprocess import apply_scaler, cleanse, encode, fit_scaler
from .smote import SmoteConfig, smote
from .synth import TrafficProfile, bundled_profile_path, generate


class _UsageError(Exception):
    """argparse refused a command line; args are (parser, message)."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors raise _UsageError, so main can
    name the --config file a refused value came from."""

    def error(self, message):
        raise _UsageError(self, message)


def _parse(parser: _Parser, argv: list, config: str | None = None):
    """argv parsed; a usage error exits 1, or with config (the file the
    options came from) raises a ConfigError naming it."""
    try:
        return parser.parse_args(argv)
    except _UsageError as exc:
        sub, message = exc.args
        if config:
            raise ConfigError(f"{config}: {message}") from None
        sub.print_usage(sys.stderr)
        sub.exit(1, f"{sub.prog}: error: {message}\n")


def _with_config(parser: _Parser, args, argv: list):
    """args with the --config file's options put before argv's: each key
    becomes its flag (model_file is --model-file, a non-string value its
    JSON text, null leaves it unset), so argparse checks it like a flag
    and an explicit flag, coming later, wins."""
    cfg = _read_json(args.config, "config file", ConfigError)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{args.config}: config file must hold a JSON object")
    flags = []
    for key, value in cfg.items():
        if key not in vars(args) or key in ("command", "handler", "config"):
            raise ConfigError(f"{args.config}: unknown option {key!r}")
        if value is not None:
            text = value if isinstance(value, str) else json.dumps(value)
            flags.append(f"--{key.replace('_', '-')}={text}")
    return _parse(parser, [args.command, *flags, *argv[1:]], args.config)


def _at_least(low: int):
    """An argparse type: an int no less than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" names the type
    return parse


def _out_dir(args, create: bool = True) -> str:
    # Handlers call this only after inputs validate: with create it makes the
    # directory, and a failed invocation must not leave an empty one behind.
    out = args.out or os.environ.get("BOTSIFT_OUT") or "botsift-out"
    if create:
        os.makedirs(out, exist_ok=True)
    return out


def _schema_arg(args) -> Schema | None:
    return Schema.from_json(args.schema) if args.schema else None


def _params_arg(args) -> dict:
    if args.params is None:
        return {}
    try:
        parsed = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc}")
    if not isinstance(parsed, dict):
        raise ConfigError("--params must be a JSON object")
    return parsed


def _require(args, key: str):
    value = getattr(args, key)
    if value is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return value


# --------------------------------------------------------------------------
# Subcommand handlers


def _cmd_ingest(args) -> None:
    loaded = load_csv(_require(args, "csv"), _schema_arg(args))
    flows = cleanse(loaded)
    encoded, codes = encode(flows)
    dataset = to_dataset(encoded)
    out = _out_dir(args)
    write_dataset_csv(dataset, os.path.join(out, "dataset.csv"))
    _write_json(os.path.join(out, "encoding.json"), codes)
    normal, botnet = dataset.class_counts
    dropped = len(loaded) - len(flows)
    _write_json(os.path.join(out, "counts.json"),
                {**_counts_json(dataset.class_counts), "rows": dataset.n_rows,
                 "features": list(dataset.feature_names),
                 "dropped": dropped, "missing": flows.missing_counts})
    print(f"ingested {dataset.n_rows} rows "
          f"(normal {normal}, botnet {botnet}; dropped {dropped}) "
          f"-> {out}/dataset.csv")


def _cmd_profile_stats(args) -> None:
    schema = _schema_arg(args)
    summary = class_summary(load_csv(_require(args, "csv"), schema))
    print(f"rows: {summary.total} "
          f"(normal {summary.counts[0]}, botnet {summary.counts[1]})")
    for label, name in ((0, "normal"), (1, "botnet")):
        if label not in summary.means:
            continue
        print(f"{name} feature means:")
        for feature, mean in summary.means[label].items():
            print(f"  {feature:<8} {mean:.6g}")
    if args.out:
        out = _out_dir(args)
        _write_json(os.path.join(out, "profile_stats.json"), {
            "counts": _counts_json(summary.counts),
            "means": {str(k): v for k, v in summary.means.items()},
        })


def _cmd_score_features(args) -> None:
    dataset, _ = read_dataset_csv(_require(args, "csv"))
    scaled = apply_scaler(dataset, fit_scaler(dataset))
    report = chi2_scores(scaled)
    out = _out_dir(args)
    report.to_table(os.path.join(out, "feature_scores.txt"))
    report.to_json(os.path.join(out, "feature_scores.json"))
    print(f"scored {len(report.feature_names)} features; "
          f"selected over mean: {', '.join(report.selected)}")


def _cmd_smote(args) -> None:
    dataset, _ = read_dataset_csv(_require(args, "csv"))
    config = SmoteConfig(k_neighbors=args.k, target_minority_count=args.target)
    result = smote(dataset, config, seed=args.seed)
    del dataset  # the balanced dataset holds a copy of its rows
    out = _out_dir(args)
    write_dataset_csv(result.dataset, os.path.join(out, "balanced.csv"),
                      synthetic=result.synthetic)
    _write_json(os.path.join(out, "counts.json"), {
        "before": _counts_json(result.original_counts),
        "after": _counts_json(result.counts),
        "synthetic_rows": int(result.synthetic.sum()),
    })
    print(f"balanced ({result.original_counts[0]}, {result.original_counts[1]}) "
          f"-> ({result.counts[0]}, {result.counts[1]}) rows in {out}/balanced.csv")


def _cmd_train(args) -> None:
    name = _require(args, "model")
    if name == "mlp":
        _special()
    dataset, _ = read_dataset_csv(_require(args, "csv"))
    params = _seeded(name, _params_arg(args), args.seed)
    model = fit_model(name, dataset, params)
    model = dataclasses.replace(model, provenance={
        "trained_rows": dataset.n_rows,
        "class_counts": _counts_json(dataset.class_counts),
        "params": params,
    })
    out = _out_dir(args)
    path = os.path.join(out, f"model_{name}.json")
    save_model(model, path)
    print(f"trained {name} on {dataset.n_rows} rows -> {path}")


def _cmd_evaluate(args) -> None:
    model = load_model(_require(args, "model_file"))
    if model_kind(model) != "knn":
        _special()
    csv = _require(args, "csv")
    dataset, _ = read_dataset_csv(csv)
    try:
        report = evaluate_model(model, dataset)
    except LoadError as exc:  # the CSV lacks a column the model reads
        raise LoadError(f"{csv}: {exc}") from None
    report.write_files(os.path.join(_out_dir(args), report.model))
    print(report.to_text(), end="")


def _cmd_cross_validate(args) -> None:
    _special()  # the fold runner imports it before it forks in any case
    dataset, _ = read_dataset_csv(_require(args, "csv"))
    name = _require(args, "model")
    result = cross_validate(
        dataset, name,
        k=args.folds, seed=args.seed, params=_params_arg(args),
    )
    out = _out_dir(args)
    _write_json(os.path.join(out, f"cv_{name}.json"), result.as_dict())
    print(f"{name} {result.k}-fold cross-validation (percent, mean +/- std):")
    print(*result.metric_lines(), sep="\n")


def _cmd_synth(args) -> None:
    path = (args.profile if os.path.exists(args.profile)
            else bundled_profile_path(args.profile))
    flows = generate(TrafficProfile.from_json(path), rows=args.rows, seed=args.seed)
    csv_path = os.path.join(_out_dir(args), "synth.csv")
    write_records_csv(flows, csv_path)
    botnet = int(flows.labels.sum())
    print(f"generated {len(flows)} rows "
          f"(normal {len(flows) - botnet}, botnet {botnet}) -> {csv_path}")


def _cmd_run(args) -> None:
    path = _require(args, "config")
    config = ExperimentConfig.from_json(path)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.paper_mode:
        config = dataclasses.replace(config, mode="paper")
    try:
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    result = run_experiment(config, _out_dir(args, create=False))
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

    def add(name, handler, help_, flags, seed=None):
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--seed", type=_at_least(0), default=seed,
                       help="seed for every random stage")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="JSON object of options; flags win")
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
        ("--k", {"type": _at_least(1), "default": 5,
                 "help": "neighbourhood size (default %(default)s)"}),
        ("--target", {"type": _at_least(1),
                      "help": "minority count (default: match majority)"}),
    ], seed=0)
    add("train", _cmd_train, "fit one classifier and save it", [
        csv_flag,
        ("--model", {"choices": MODEL_NAMES}),
        ("--params", {"help": "hyperparameters as a JSON object"}),
    ])
    add("evaluate", _cmd_evaluate, "score a saved model on a test CSV", [
        ("--model-file", {"dest": "model_file", "help": "saved model JSON"}),
        csv_flag,
    ])
    add("cross-validate", _cmd_cross_validate, "k-fold cross-validation", [
        csv_flag,
        ("--model", {"choices": MODEL_NAMES}),
        ("--folds", {"type": _at_least(2), "default": 5,
                     "help": "fold count (default %(default)s)"}),
        ("--params", {"help": "hyperparameters as a JSON object"}),
    ], seed=0)
    add("synth", _cmd_synth, "generate synthetic flows from a profile", [
        ("--profile", {"default": "botiot-means",
                       "help": "profile path or bundled name (default %(default)s)"}),
        ("--rows", {"type": _at_least(1), "help": "row count override"}),
    ])
    add("run", _cmd_run, "full experiment from a config file", [
        ("--paper-mode", {"action": "store_true",
                          "help": "normalize and balance the whole dataset "
                                  "before splitting"}),
    ])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(parser, argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 1
    try:
        if args.config and args.command != "run":
            args = _with_config(parser, args, argv)
        args.handler(args)
    except (BotsiftError, OSError, BrokenExecutor) as exc:  # or a pool worker died
        print(f"botsift: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ConfigError, SchemaError)) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
