"""End-to-end experiment runner: config parsing, bundles, reproducibility."""

import json
import os
import pickle
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import botsift
import botsift._pool
import botsift.evaluate
import botsift.experiment
from botsift import (BotsiftError, ConfigError, DivergenceError,
                     EvaluationError, ExperimentConfig, ResampleError, SmoteConfig,
                     TrafficProfile, TrainingError, cleanse, cross_validate,
                     encode, generate, load_model, run_experiment, to_dataset,
                     train_test_split)

PROFILE = {
    "features": {
        "dur": {"normal": {"mean": 70.0, "cv": 1.0},
                "botnet": {"mean": 7.0, "cv": 1.0}},
        "rate": {"normal": {"mean": 30.0, "cv": 1.0},
                 "botnet": {"mean": 900.0, "cv": 1.0}},
    },
    "tokens": {"proto": {"tcp": 0.7, "udp": 0.3}},
    "class_ratio": 0.8,
    "row_count": 400,
    "seed": 3,
}


@pytest.fixture
def profile_path(tmp_path):
    path = str(tmp_path / "tiny.profile")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(PROFILE, fh)
    return path


def quick_config(profile_path, **overrides):
    fields = dict(
        input_profile=profile_path,
        models=(("gnb", {}),),
        cv_folds=0,
        select=False,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestConfigValidation:
    def test_needs_exactly_one_source(self, profile_path, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig().validate()
        csv = str(tmp_path / "x.csv")
        open(csv, "w").close()
        both = ExperimentConfig(input_csv=csv, input_profile=profile_path)
        with pytest.raises(ConfigError, match="exactly one"):
            both.validate()

    def test_missing_files_caught(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig(input_csv=str(tmp_path / "nope.csv")).validate()
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig(
                input_profile=str(tmp_path / "nope.profile")).validate()

    def test_field_ranges(self, profile_path):
        cases = [
            (dict(mode="fast"), "mode"),
            (dict(smote="maybe"), "smote"),
            (dict(test_fraction=0.0), "test_fraction"),
            (dict(cv_folds=1), "cv_folds"),
            (dict(smote_k=0), "smote_k"),
            (dict(input_rows=0), "input rows"),
            (dict(models=()), "no models"),
            (dict(models=(("tree", {}),)), "unknown model"),
            (dict(models=(("gnb", {}), ("gnb", {}))), "more than once"),
            (dict(models=(("knn", {"k": "5"}),)), "'k' is not an integer"),
        ]
        for overrides, fragment in cases:
            config = quick_config(profile_path, **overrides)
            with pytest.raises(ConfigError, match=fragment):
                config.validate()

    @pytest.mark.parametrize("raw, message", [
        ({"cv_folds": "5"}, "cv_folds must be an integer, got '5'"),
        ({"seed": "7"}, "seed must be an integer, got '7'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"smote_k": 2.5}, "smote_k must be an integer, got 2.5"),
        ({"test_fraction": "0.2"}, "test_fraction must be a finite number"),
        ({"select": "no"}, "select must be true or false, got 'no'"),
        ({"mode": 1}, "mode must be a string, got 1"),
        ({"input": {"rows": "200"}}, "input.rows must be an integer, got '200'"),
    ])
    def test_mistyped_fields_name_the_key(self, profile_path, raw, message):
        raw = {**raw, "input": {"profile": profile_path, **raw.get("input", {})}}
        config = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError) as info:
            config.validate()
        assert message in str(info.value)

    def test_validation_happens_before_any_output(self, profile_path, tmp_path):
        config = quick_config(profile_path, cv_folds=1)
        outdir = str(tmp_path / "never")
        with pytest.raises(ConfigError):
            run_experiment(config, outdir)
        assert not os.path.exists(outdir)

    def test_stage_seeds_use_fixed_offsets(self):
        seeds = ExperimentConfig(seed=40).stage_seeds()
        assert seeds == {"master": 40, "synth": 41, "split": 42,
                         "smote": 43, "cv": 44, "mlp": 45}


class TestConfigParsing:
    def test_from_dict_reads_nested_input(self, profile_path):
        config = ExperimentConfig.from_dict({
            "input": {"profile": profile_path, "rows": 120},
            "seed": 9,
            "smote": "both",
            "models": [{"name": "knn", "k": 3}, {"name": "gnb"}],
        })
        assert config.input_profile == profile_path
        assert config.input_rows == 120
        assert config.models == (("knn", {"k": 3}), ("gnb", {}))

    def test_defaults_train_all_three_models(self, profile_path):
        config = ExperimentConfig.from_dict(
            {"input": {"profile": profile_path}})
        assert tuple(name for name, _ in config.models) == ("gnb", "knn", "mlp")

    def test_unknown_keys_rejected(self, profile_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig.from_dict({"input": {"profile": profile_path},
                                        "speed": 11})
        with pytest.raises(ConfigError, match="unknown input keys"):
            ExperimentConfig.from_dict({"input": {"profile": profile_path,
                                                  "url": "x"}})
        with pytest.raises(ConfigError, match="must be a JSON object"):
            ExperimentConfig.from_dict(["not", "an", "object"])

    def test_from_json_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_json(str(tmp_path / "missing.json"))
        bad = str(tmp_path / "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_json(bad)

    def test_round_trips_through_to_dict(self, profile_path):
        config = quick_config(profile_path, smote="both", seed=4)
        echo = config.to_dict()
        assert echo["seed"] == 4
        assert echo["models"] == [{"name": "gnb"}]
        assert "outdir" not in echo


class TestRunExperiment:
    def test_bundle_files_for_both_arms(self, profile_path, tmp_path):
        config = quick_config(profile_path, smote="both",
                              models=(("gnb", {}), ("knn", {"k": 3})))
        outdir = str(tmp_path / "bundle")
        result = run_experiment(config, outdir)
        expected = {"feature_scores.txt", "feature_scores.json",
                    "summary.txt", "manifest.json"}
        for arm in ("raw", "smote"):
            for model in ("gnb", "knn"):
                for suffix in ("report.txt", "metrics.json", "roc.tsv"):
                    expected.add(f"{arm}_{model}_{suffix}")
        assert set(os.listdir(outdir)) == expected
        assert set(result.reports) == {("raw", "gnb"), ("raw", "knn"),
                                       ("smote", "gnb"), ("smote", "knn")}
        manifest = result.manifest
        assert manifest["arms"] == ["raw", "smote"]
        assert manifest["outputs"] == sorted(expected - {"manifest.json"})

    def test_default_mode_stage_order(self, profile_path, tmp_path):
        config = quick_config(profile_path, smote="on", select=True,
                              cv_folds=3)
        result = run_experiment(config, str(tmp_path / "order"))
        assert result.manifest["stage_order"] == [
            "synth", "cleanse", "encode", "score_features",
            "select_features", "split", "scale", "smote", "train",
            "evaluate", "cross_validate"]

    def test_paper_mode_balances_before_splitting(self, profile_path, tmp_path):
        config = quick_config(profile_path, mode="paper", smote="on")
        result = run_experiment(config, str(tmp_path / "paper"))
        order = result.manifest["stage_order"]
        assert order.index("scale") < order.index("smote") < order.index("split")
        counts = result.manifest["class_counts"]
        assert counts["input"] == {"normal": 80, "botnet": 320}
        assert counts["after_smote"] == {"normal": 320, "botnet": 320}
        # the balanced 640 rows split 80/20: both classes even in each side
        assert counts["test_smote"] == {"normal": 64, "botnet": 64}
        assert counts["train_smote"] == {"normal": 256, "botnet": 256}

    def test_default_mode_balances_training_side_only(self, profile_path,
                                                      tmp_path):
        config = quick_config(profile_path, smote="both")
        result = run_experiment(config, str(tmp_path / "arms"))
        counts = result.manifest["class_counts"]
        assert counts["input"] == {"normal": 80, "botnet": 320}
        assert counts["test_raw"] == {"normal": 16, "botnet": 64}
        assert counts["train_raw"] == {"normal": 64, "botnet": 256}
        # smote arm: training side balanced, test side untouched
        assert counts["after_smote"] == {"normal": 256, "botnet": 256}
        assert counts["train_smote"] == {"normal": 256, "botnet": 256}
        assert counts["test_smote"] == counts["test_raw"]

    def test_reruns_are_byte_identical(self, profile_path, tmp_path):
        config = quick_config(profile_path, smote="both", select=True,
                              cv_folds=3,
                              models=(("gnb", {}), ("mlp", {"epochs": 2})))
        a, b = str(tmp_path / "one"), str(tmp_path / "two")
        run_experiment(config, a)
        run_experiment(config, b)
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in os.listdir(a):
            with open(os.path.join(a, name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(b, name), "rb") as fh:
                second = fh.read()
            assert first == second, f"{name} differs between reruns"

    def test_seed_changes_the_bundle(self, profile_path, tmp_path):
        base = quick_config(profile_path, seed=1)
        other = quick_config(profile_path, seed=2)
        a, b = str(tmp_path / "s1"), str(tmp_path / "s2")
        run_experiment(base, a)
        run_experiment(other, b)
        with open(os.path.join(a, "raw_gnb_metrics.json"), "rb") as fh:
            first = fh.read()
        with open(os.path.join(b, "raw_gnb_metrics.json"), "rb") as fh:
            second = fh.read()
        assert first != second

    def test_saved_models_carry_provenance(self, profile_path, tmp_path):
        config = quick_config(profile_path, save_models=True, seed=10,
                              models=(("gnb", {}), ("mlp", {"epochs": 2})))
        outdir = str(tmp_path / "models")
        run_experiment(config, outdir)
        model = load_model(os.path.join(outdir, "model_raw_gnb.json"))
        assert model.provenance["arm"] == "raw"
        assert model.provenance["mode"] == "default"
        assert model.provenance["stage_seeds"]["master"] == 10
        mlp = load_model(os.path.join(outdir, "model_raw_mlp.json"))
        # the mlp seed defaults to the dedicated stage seed
        assert mlp.config.seed == 15

    def test_feature_selection_recorded(self, profile_path, tmp_path):
        config = quick_config(profile_path, select=True)
        result = run_experiment(config, str(tmp_path / "sel"))
        manifest = result.manifest
        assert set(manifest["selected_features"]) < set(
            manifest["candidate_features"])
        assert manifest["feature_scoring"].startswith("pre-split")

    def test_nonempty_outdir_rejected(self, profile_path, tmp_path):
        outdir = str(tmp_path / "busy")
        os.makedirs(outdir)
        open(os.path.join(outdir, "keep.txt"), "w").close()
        with pytest.raises(ConfigError, match="not empty"):
            run_experiment(quick_config(profile_path), outdir)
        assert os.path.exists(os.path.join(outdir, "keep.txt"))

    def test_stage_failure_cleans_up_and_names_the_stage(self, profile_path,
                                                         tmp_path):
        # 3 minority training rows cannot fill 5 stratified folds
        config = quick_config(profile_path, input_rows=150, cv_folds=5,
                              smote="off")
        bad_profile = dict(PROFILE, class_ratio=0.97)
        path = str(tmp_path / "skewed.profile")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad_profile, fh)
        config = quick_config(path, input_rows=150, cv_folds=5)
        outdir = str(tmp_path / "failed")
        with pytest.raises(EvaluationError) as err:
            run_experiment(config, outdir)
        message = str(err.value)
        assert "stage 'cross_validate[raw/fold 3]' failed" in message
        assert "[config:" in message
        assert not os.path.exists(outdir)

    def test_summary_table_lists_every_arm_and_model(self, profile_path,
                                                     tmp_path):
        config = quick_config(profile_path, smote="both",
                              models=(("gnb", {}), ("knn", {}),
                                      ("mlp", {"epochs": 2})))
        outdir = str(tmp_path / "summary")
        run_experiment(config, outdir)
        with open(os.path.join(outdir, "summary.txt"), encoding="utf-8") as fh:
            text = fh.read()
        for arm in ("raw", "smote"):
            for model in ("gnb", "knn", "mlp"):
                assert any(line.startswith(arm) and model in line
                           for line in text.splitlines())
        assert "percentages" in text


class TestFoldJobs:
    def test_each_fold_is_prepared_once_for_every_model(self, profile_path,
                                                        tmp_path, monkeypatch):
        monkeypatch.setattr(botsift._pool, "WORKERS", 1)
        calls = []
        for module in (botsift.evaluate, botsift.experiment):
            def counted(*args, smote=module.smote, **kwargs):
                calls.append(args[2] if len(args) > 2 else kwargs["seed"])
                return smote(*args, **kwargs)
            monkeypatch.setattr(module, "smote", counted)
        k, models = 3, (("gnb", {}), ("knn", {"k": 2}), ("mlp", {"epochs": 2}))
        config = quick_config(profile_path, smote="both", cv_folds=k, models=models)
        result = run_experiment(config, str(tmp_path / "bundle"))
        seeds = config.stage_seeds()
        # the smote arm's training set once, then each fold once
        assert sorted(calls) == [seeds["smote"]] + [seeds["cv"] + f for f in range(k)]

        flows = cleanse(generate(TrafficProfile.from_json(profile_path),
                                 seed=seeds["synth"]))
        dataset = to_dataset(encode(flows)[0])
        train, _ = train_test_split(dataset, config.test_fraction, seeds["split"])
        for arm, balance in (("raw", None), ("smote", SmoteConfig(config.smote_k))):
            for name, params in models:
                if name == "mlp":
                    params = dict(params, seed=seeds["mlp"])
                alone = cross_validate(train, name, k, seeds["cv"], params=params,
                                       smote_config=balance)
                assert result.reports[(arm, name)].cv == alone

    def test_a_model_failing_on_a_fold_names_the_model(self, profile_path,
                                                       tmp_path):
        # 320 training rows fit k=200; a 2-fold training part of 160 does not
        config = quick_config(profile_path, cv_folds=2, models=(("knn", {"k": 200}),))
        outdir = str(tmp_path / "failed")
        with pytest.raises(TrainingError) as err:
            run_experiment(config, outdir)
        assert "stage 'cross_validate[raw/knn]' failed" in str(err.value)
        assert not os.path.exists(outdir)


class Fitted(Exception):
    """Raised by a fit_model stand-in to end a run at its first fit."""


# Each row: profile overrides (or a bundled profile's name), config
# fields, and the error the run must raise before any fit. The KNN rows
# use 2,000 rows: a 1,600-row training set, 3 folds with 1,066-row
# training parts, which SMOTE balances to 1,706 rows.
PREFLIGHT = {
    "knn-fold": ({}, dict(input_rows=2000, smote="off", cv_folds=3,
                          models=(("gnb", {}), ("knn", {"k": 1067}))),
                 TrainingError, "cross_validate[raw/knn]",
                 "fold 0: k=1067 exceeds the 1066 training rows"),
    "knn-fold-both": ({}, dict(input_rows=2000, smote="both", cv_folds=3,
                               models=(("gnb", {}), ("knn", {"k": 1067}))),
                      TrainingError, "cross_validate[raw/knn]",
                      "fold 0: k=1067 exceeds the 1066 training rows"),
    "knn-balanced-fold": ({}, dict(input_rows=2000, smote="on", cv_folds=3,
                                   models=(("gnb", {}), ("knn", {"k": 1707}))),
                          TrainingError, "cross_validate[smote/knn]",
                          "fold 0: k=1707 exceeds the 1706 training rows"),
    "knn-training-set": ({}, dict(input_rows=2000, smote="off", cv_folds=0,
                                  models=(("gnb", {}), ("knn", {"k": 1601}))),
                         TrainingError, "train[raw/knn]",
                         "k=1601 exceeds the 1600 training rows"),
    # 10 rows: an 8-row training set, 2 folds with 4-row training parts
    "knn-default-k": ({}, dict(input_rows=10, cv_folds=2, models=(("knn", {}),)),
                      TrainingError, "cross_validate[raw/knn]",
                      "fold 0: k=5 exceeds the 4 training rows"),
    # a 40-row training set with 8 minority rows: 3 folds leave 5 in
    # fold 0's training part, too few for 5 SMOTE neighbours
    "smote-fold": ({}, dict(input_rows=50, smote="on", cv_folds=3),
                   ResampleError, "cross_validate[smote/fold 0]",
                   "k_neighbors=5 needs more than 5 minority rows"),
    # 3 minority training rows cannot fill 5 stratified folds
    "single-class-fold": ({"class_ratio": 0.97}, dict(input_rows=150, cv_folds=5),
                          EvaluationError, "cross_validate[raw/fold 3]",
                          "fold 3: test part has a single class (counts (0, 24)); "
                          "use a k no larger than the smaller class"),
    # about 0.5% normal traffic: the 100 test rows are all botnet; MLP
    # jobs go first, so the first job to score the test set is MLP's
    "single-class-test-set": ("botiot-means", dict(
        input_rows=500, models=(("gnb", {}), ("mlp", {"epochs": 1}))),
        EvaluationError, "evaluate[raw/mlp]",
        "ROC needs both classes in the truth labels, got 100 positive and "
        "0 negative rows"),
    # 1 botnet row in 10, and the 60% test share takes it
    "gnb-single-class-training-set": ({"class_ratio": 0.1}, dict(
        input_rows=10, test_fraction=0.6), TrainingError, "train[raw/gnb]",
        "naive Bayes needs both classes, class counts are (4, 0)"),
}


class TestPreflight:
    @pytest.mark.parametrize("case", PREFLIGHT.values(), ids=PREFLIGHT)
    def test_a_broken_rule_fails_before_any_fit(self, tmp_path, monkeypatch, case):
        overrides, fields, error, stage, message = case
        monkeypatch.setattr(botsift._pool, "WORKERS", 1)
        calls = []
        for name in ("fit_model", "fold_sets"):
            original = getattr(botsift.evaluate, name)
            monkeypatch.setattr(botsift.evaluate, name,
                                lambda *args, original=original, name=name, **kwargs:
                                calls.append(name) or original(*args, **kwargs))
        if isinstance(overrides, str):
            path = botsift.bundled_profile_path(overrides)
        else:
            path = str(tmp_path / "case.profile")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dict(PROFILE, **overrides), fh)
        config = quick_config(path, **{"cv_folds": 0, **fields})
        outdir = str(tmp_path / "failed")
        with pytest.raises(error) as err:
            run_experiment(config, outdir)
        assert calls == []
        assert f"stage '{stage}' failed: {message} [config: " in str(err.value)
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("smote, k", [("both", 1066), ("on", 1706)])
    def test_a_k_that_fits_every_set_reaches_the_fits(self, profile_path, tmp_path,
                                                      monkeypatch, smote, k):
        monkeypatch.setattr(botsift._pool, "WORKERS", 1)

        def first_fit(*args):
            raise Fitted

        monkeypatch.setattr(botsift.evaluate, "fit_model", first_fit)
        config = quick_config(profile_path, input_rows=2000, smote=smote, cv_folds=3,
                              models=(("knn", {"k": k}),))
        with pytest.raises(Fitted):
            run_experiment(config, str(tmp_path / "bundle"))


def bundle_bytes(outdir):
    files = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def diverging_grid(**overrides):
    """Both arms of 5 folds each fit gnb and an MLP whose learning rate
    makes every fit diverge: 10 fold jobs of 2 fits and 4 full fits."""
    return ExperimentConfig(
        input_profile=botsift.bundled_profile_path("botiot-means"), input_rows=4000,
        seed=3, smote="both", cv_folds=5,
        models=(("gnb", {}), ("mlp", {"learning_rate": 1e308})), **overrides)


class TestPooledGrid:
    def test_pooled_and_inline_runs_match(self, profile_path, tmp_path,
                                          monkeypatch):
        # k=2 runs the even-k tie rule inside the workers
        config = quick_config(profile_path, smote="both", cv_folds=2,
                              save_models=True,
                              models=(("gnb", {}), ("knn", {"k": 2}),
                                      ("mlp", {"epochs": 2})))
        evaluate_model = botsift.evaluate.evaluate_model
        runs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(botsift._pool, "WORKERS", workers)
            pid_dir = tmp_path / f"pids{workers}"
            pid_dir.mkdir()

            def record_pid(*args, pid_dir=pid_dir, **kwargs):
                (pid_dir / str(os.getpid())).touch()
                return evaluate_model(*args, **kwargs)

            monkeypatch.setattr(botsift.evaluate, "evaluate_model", record_pid)
            outdir = str(tmp_path / f"bundle{workers}")
            result = run_experiment(config, outdir)
            pids = {int(name) for name in os.listdir(pid_dir)}
            runs[workers] = (result, bundle_bytes(outdir), pids)
        (inline, inline_files, inline_pids) = runs[1]
        assert inline_pids == {os.getpid()}
        assert len(inline_files) == 4 + 6 * 4
        for workers in (2, 3):
            (pooled, pooled_files, pooled_pids) = runs[workers]
            assert 1 <= len(pooled_pids) <= workers and os.getpid() not in pooled_pids
            assert pooled_files == inline_files
            assert pooled.reports == inline.reports
            assert pooled.manifest == inline.manifest

    def test_first_failure_in_grid_order_is_raised(self, profile_path,
                                                   tmp_path, monkeypatch):
        monkeypatch.setattr(botsift._pool, "WORKERS", 2)
        diverging = ("mlp", {"epochs": 2, "learning_rate": 1e308})
        for arms, models, failed in (
                ("on", (("gnb", {}), diverging), "train[smote/mlp]"),
                ("both", (("gnb", {}), diverging), "train[raw/mlp]")):
            config = quick_config(profile_path, smote=arms, models=models)
            outdir = str(tmp_path / f"failed_{arms}")
            with np.errstate(all="ignore"):
                with pytest.raises(DivergenceError) as err:
                    run_experiment(config, outdir)
            assert isinstance(err.value.epoch, int)
            assert f"stage '{failed}' failed" in str(err.value)
            assert not os.path.exists(outdir)

    def test_a_failing_job_stops_the_inline_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(botsift._pool, "WORKERS", 1)
        fits = []
        fit_model = botsift.evaluate.fit_model
        monkeypatch.setattr(botsift.evaluate, "fit_model", lambda name, *args:
                            fits.append(name) or fit_model(name, *args))
        outdir = str(tmp_path / "failed")
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_experiment(diverging_grid(), outdir)
        # fold 0's job fits gnb, then the MLP that diverges; nothing after
        assert fits == ["gnb", "mlp"]
        assert "stage 'cross_validate[raw/mlp]' failed" in str(err.value)
        assert not os.path.exists(outdir)

    def test_a_failing_job_stops_the_pooled_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(botsift._pool, "WORKERS", 2)
        fit_dir = tmp_path / "fits"
        fit_dir.mkdir()
        fit_model = botsift.evaluate.fit_model

        def slowed(name, *args):
            # one file per fit, so the fits of every process are counted
            os.close(tempfile.mkstemp(dir=fit_dir)[0])
            if name == "gnb":  # each job's MLP diverges at once
                time.sleep(0.2)
            return fit_model(name, *args)

        monkeypatch.setattr(botsift.evaluate, "fit_model", slowed)
        outdir = str(tmp_path / "failed")
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_experiment(diverging_grid(save_models=True), outdir)
        # only fold 0's job and the one running beside it ran, 2 fits each
        assert len(os.listdir(fit_dir)) <= 4
        assert "stage 'cross_validate[raw/mlp]' failed" in str(err.value)
        assert not os.path.exists(outdir)

    def test_a_worker_that_dies_fails_the_run(self, profile_path, tmp_path,
                                              monkeypatch):
        monkeypatch.setattr(botsift._pool, "WORKERS", 2)
        parent = os.getpid()

        def die_in_worker(model, *args, **kwargs):
            if os.getpid() != parent and model.__class__.__name__ == "MlpModel":
                os._exit(1)
            return evaluate_model(model, *args, **kwargs)

        evaluate_model = botsift.evaluate.evaluate_model
        monkeypatch.setattr(botsift.evaluate, "evaluate_model", die_in_worker)
        config = quick_config(profile_path, models=(("gnb", {}),
                                                    ("mlp", {"epochs": 1})))
        outdir = str(tmp_path / "died")
        with pytest.raises(BrokenProcessPool):
            run_experiment(config, outdir)
        assert not os.path.exists(outdir)

    def test_every_toolkit_error_survives_pickling(self):
        # pool workers send failures back to the parent pickled
        kinds = [obj for obj in vars(botsift).values()
                 if isinstance(obj, type) and issubclass(obj, BotsiftError)]
        assert DivergenceError in kinds and len(kinds) == 11
        for kind in kinds:
            error = kind(3) if kind is DivergenceError else kind("bad input")
            again = pickle.loads(pickle.dumps(error))
            assert type(again) is kind
            assert str(again) == str(error)
            assert getattr(again, "epoch", None) == getattr(error, "epoch", None)
        again = pickle.loads(pickle.dumps(DivergenceError(3, "custom text")))
        assert (again.epoch, str(again)) == (3, "custom text")
