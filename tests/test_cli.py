"""Command-line interface: subcommands, option layering, exit codes."""

import hashlib
import json
import os

import numpy as np
import pytest

import botsift._pool
import botsift.evaluate
from botsift import Dataset, cross_validate, read_dataset_csv, write_dataset_csv
from botsift.cli import main

PROFILE = {
    "features": {
        "dur": {"normal": {"mean": 70.0, "cv": 1.0},
                "botnet": {"mean": 7.0, "cv": 1.0}},
        "rate": {"normal": {"mean": 30.0, "cv": 1.0},
                 "botnet": {"mean": 900.0, "cv": 1.0}},
    },
    "tokens": {"proto": {"tcp": 0.7, "udp": 0.3}},
    "class_ratio": 0.8,
    "row_count": 300,
    "seed": 3,
}


@pytest.fixture
def profile_path(tmp_path):
    path = str(tmp_path / "tiny.profile")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(PROFILE, fh)
    return path


@pytest.fixture
def flows_csv(tmp_path, profile_path):
    """A synthesized raw flow CSV."""
    out = str(tmp_path / "synthdir")
    assert main(["synth", "--profile", profile_path, "--out", out]) == 0
    return os.path.join(out, "synth.csv")


@pytest.fixture
def dataset_csv(tmp_path, flows_csv):
    """An ingested (cleansed, encoded) dataset CSV."""
    out = str(tmp_path / "ingestdir")
    assert main(["ingest", "--csv", flows_csv, "--out", out]) == 0
    return os.path.join(out, "dataset.csv")


class TestSynth:
    def test_writes_deterministic_csv(self, tmp_path, profile_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--profile", profile_path, "--out", a]) == 0
        assert "generated 300 rows" in capsys.readouterr().out
        assert main(["synth", "--profile", profile_path, "--out", b]) == 0
        with open(os.path.join(a, "synth.csv"), "rb") as fh:
            first = fh.read()
        with open(os.path.join(b, "synth.csv"), "rb") as fh:
            second = fh.read()
        assert first == second

    def test_rows_and_seed_flags(self, tmp_path, profile_path, capsys):
        out = str(tmp_path / "small")
        code = main(["synth", "--profile", profile_path, "--rows", "40",
                     "--seed", "9", "--out", out])
        assert code == 0
        assert "generated 40 rows" in capsys.readouterr().out

    def test_bundled_profile_by_name(self, tmp_path, capsys):
        out = str(tmp_path / "bundled")
        code = main(["synth", "--profile", "botiot-means", "--rows", "50",
                     "--out", out])
        assert code == 0
        assert "generated 50 rows" in capsys.readouterr().out

    def test_unknown_profile_name_fails(self, tmp_path, capsys):
        code = main(["synth", "--profile", "no-such-profile",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "no bundled profile" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("raw", [{"features": 1},
                                     {"features": {"dur": {"normal": {"mean": "x"}}}}])
    def test_malformed_profile_exits_two(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.profile"
        path.write_text(json.dumps(raw))
        code = main(["synth", "--profile", str(path), "--rows", "10",
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"botsift: {path}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

class TestOutputBytes:
    # sha256 of the files these commands wrote before the flow table was
    # held column by column; the CSV format must not drift
    SYNTH_SHA256 = "b8a8c128970264819881d546533461688e2dd64f63267fb7653881fec4d67861"
    DATASET_SHA256 = "179b13ca864e24933e935b4fdb272a4cbbc0eab3391a8e460dcbc55e5cb050da"

    def test_synth_and_ingest_bytes_are_pinned(self, tmp_path):
        flows, data = str(tmp_path / "flows"), str(tmp_path / "data")
        assert main(["synth", "--rows", "1000", "--seed", "11", "--out", flows]) == 0
        synth_csv = os.path.join(flows, "synth.csv")
        assert main(["ingest", "--csv", synth_csv, "--out", data]) == 0
        for path, digest in ((synth_csv, self.SYNTH_SHA256),
                             (os.path.join(data, "dataset.csv"), self.DATASET_SHA256)):
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest


class TestIngest:
    def test_produces_dataset_and_sidecars(self, tmp_path, flows_csv, capsys):
        out = str(tmp_path / "ing")
        assert main(["ingest", "--csv", flows_csv, "--out", out]) == 0
        assert "ingested 300 rows" in capsys.readouterr().out
        dataset, _ = read_dataset_csv(os.path.join(out, "dataset.csv"))
        assert dataset.n_rows == 300
        assert "proto" in dataset.feature_names
        with open(os.path.join(out, "counts.json"), encoding="utf-8") as fh:
            counts = json.load(fh)
        assert counts["rows"] == 300
        assert counts["normal"] + counts["botnet"] == 300
        with open(os.path.join(out, "encoding.json"), encoding="utf-8") as fh:
            encoding = json.load(fh)
        assert set(encoding["proto"]) <= {"tcp", "udp"}

    def test_reports_dropped_rows_per_column(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("pkts,dur,proto,attack\n1,2,tcp,0\n,2,tcp,1\n"
                       "3,,,1\n4,5,udp,1\n")
        out = str(tmp_path / "o")
        assert main(["ingest", "--csv", str(raw), "--out", out]) == 0
        assert "ingested 2 rows (normal 1, botnet 1; dropped 2)" in (
            capsys.readouterr().out)
        with open(os.path.join(out, "counts.json"), encoding="utf-8") as fh:
            counts = json.load(fh)
        assert counts["dropped"] == 2
        assert counts["missing"] == {"pkts": 1, "dur": 1, "proto": 1}

    def test_missing_csv_option_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["ingest"]) == 1
        assert "missing required option --csv" in capsys.readouterr().err
        assert not (tmp_path / "botsift-out").exists()

    def test_unreadable_csv_exits_two(self, tmp_path, capsys):
        code = main(["ingest", "--csv", str(tmp_path / "ghost.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_undecodable_byte_exits_two_naming_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"pkts,proto,attack\n1,tcp,0\n2,\xff,1\n")
        code = main(["ingest", "--csv", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"botsift: {bad}:3: byte 0xff")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw, why", [
        ({"roles": [1]}, "schema file must contain a 'roles' object"),
        ({"roles": "x"}, "schema file must contain a 'roles' object"),
        ({"roles": {"attack": 1}}, "column 'attack' has unknown role 1"),
        ({"roles": {"attack": "label"}, "default_role": 3}, "invalid default role 3"),
        ({"roles": {"attack": "numeric"}}, "exactly one label column"),
        ({"roles": {"attack": "label"}, "default_rol": "numeric"},
         "unknown schema key 'default_rol'"),
    ])
    def test_malformed_schema_exits_one(self, tmp_path, flows_csv, capsys, raw, why):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(raw))
        code = main(["ingest", "--csv", flows_csv, "--schema", str(path),
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"botsift: {path}: ") and why in err
        assert "Traceback" not in err

    def test_options_can_come_from_config_file(self, tmp_path, flows_csv,
                                               capsys):
        cfg = str(tmp_path / "cli.json")
        out = str(tmp_path / "cfgout")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"csv": flows_csv, "out": out}, fh)
        assert main(["ingest", "--config", cfg]) == 0
        assert os.path.exists(os.path.join(out, "dataset.csv"))


class TestProfileStats:
    def test_prints_counts_and_means(self, flows_csv, capsys):
        assert main(["profile-stats", "--csv", flows_csv]) == 0
        out = capsys.readouterr().out
        assert "rows: 300" in out
        assert "normal feature means:" in out
        assert "botnet feature means:" in out
        assert "dur" in out

    def test_optional_json_output(self, tmp_path, flows_csv):
        out = str(tmp_path / "stats")
        assert main(["profile-stats", "--csv", flows_csv, "--out", out]) == 0
        with open(os.path.join(out, "profile_stats.json"),
                  encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["counts"]["normal"] + payload["counts"]["botnet"] == 300


class TestScoreFeatures:
    def test_writes_scores_and_prints_selection(self, tmp_path, dataset_csv,
                                                capsys):
        out = str(tmp_path / "scores")
        assert main(["score-features", "--csv", dataset_csv, "--out", out]) == 0
        assert "selected over mean" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "feature_scores.txt"))
        with open(os.path.join(out, "feature_scores.json"),
                  encoding="utf-8") as fh:
            payload = json.load(fh)
        assert set(payload) == {"scores", "mean_score", "selected", "ranked"}


class TestSmote:
    def test_balances_and_reports_counts(self, tmp_path, dataset_csv, capsys):
        out = str(tmp_path / "bal")
        assert main(["smote", "--csv", dataset_csv, "--seed", "1",
                     "--out", out]) == 0
        assert "balanced" in capsys.readouterr().out
        dataset, flags = read_dataset_csv(os.path.join(out, "balanced.csv"))
        assert flags is not None
        assert dataset.class_counts[0] == dataset.class_counts[1]
        with open(os.path.join(out, "counts.json"), encoding="utf-8") as fh:
            counts = json.load(fh)
        assert counts["after"]["normal"] == counts["after"]["botnet"]
        assert counts["synthetic_rows"] == int(flags.sum())

    def test_k_flag_respected(self, tmp_path, dataset_csv, capsys):
        out = str(tmp_path / "bigk")
        code = main(["smote", "--csv", dataset_csv, "--k", "70",
                     "--out", out])
        assert code == 2  # minority has only 60 rows
        assert "k_neighbors" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestTrainEvaluate:
    def test_train_writes_model_with_provenance(self, tmp_path, dataset_csv,
                                                capsys):
        out = str(tmp_path / "fit")
        assert main(["train", "--csv", dataset_csv, "--model", "gnb",
                     "--out", out]) == 0
        assert "trained gnb on 300 rows" in capsys.readouterr().out
        with open(os.path.join(out, "model_gnb.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["kind"] == "gnb"
        assert payload["provenance"]["trained_rows"] == 300

    def test_train_seed_reaches_the_mlp(self, tmp_path, dataset_csv):
        out = str(tmp_path / "fitmlp")
        code = main(["train", "--csv", dataset_csv, "--model", "mlp",
                     "--params", '{"epochs": 2}', "--seed", "77",
                     "--out", out])
        assert code == 0
        with open(os.path.join(out, "model_mlp.json"), encoding="utf-8") as fh:
            assert json.load(fh)["config"]["seed"] == 77

    def test_short_dataset_row_exits_two_naming_the_line(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("a,b,attack\n1,0\n")
        code = main(["train", "--model", "gnb", "--csv", str(short),
                     "--out", str(tmp_path / "fit")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"botsift: {short}:2: ")
        assert not (tmp_path / "fit").exists()

    def test_cell_over_the_field_limit_exits_two_naming_the_line(self, tmp_path,
                                                                 capsys):
        long = tmp_path / "long.csv"
        long.write_text('a,attack\n1,0\n"' + "1" * 200_000 + '",1\n')
        code = main(["train", "--model", "gnb", "--csv", str(long),
                     "--out", str(tmp_path / "fit")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"botsift: {long}:3: field larger than field limit")
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("argv, text, error", [
        (["train", "--model", "gnb"], "a,attack,attack\n1,0,1\n2,1,0\n",
         "header repeats column 'attack'"),
        (["train", "--model", "mlp"], "attack\n0\n1\n", "header has no feature column"),
        (["score-features"], "attack,synthetic\n0,0\n1,0\n",
         "header has no feature column"),
        (["ingest"], "pkts,attack,attack\n1,0,1\n2,1,0\n",
         "header repeats column 'attack'"),
        (["ingest"], "attack\n0\n1\n", "header has no feature column the schema keeps"),
        (["profile-stats"], "attack,junk\n0,x\n1,y\n",
         "header has no feature column the schema keeps"),
    ], ids=["repeated label", "label only", "flags only", "repeated flow label",
            "flow label only", "flow label and ignored"])
    def test_faulty_header_exits_two_naming_the_file(self, tmp_path, capsys,
                                                     argv, text, error):
        path = tmp_path / "data.csv"
        path.write_text(text)
        code = main([*argv, "--csv", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"botsift: {path}: {error}\n"
        assert "Traceback" not in err

    def test_negative_mlp_seed_exits_two(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "fit"
        code = main(["train", "--csv", dataset_csv, "--model", "mlp",
                     "--params", '{"seed": -1}', "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "botsift: invalid mlp hyperparameters: MlpConfig(hidden=16, "
            "learning_rate=0.1, epochs=50, batch_size=32, seed=-1)\n")
        assert not out.exists()

    def test_bad_params_json_exits_one(self, dataset_csv, tmp_path, capsys):
        code = main(["train", "--csv", dataset_csv, "--model", "knn",
                     "--params", "{broken", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_evaluate_reports_metrics(self, tmp_path, dataset_csv, capsys):
        fit_dir = str(tmp_path / "fit2")
        assert main(["train", "--csv", dataset_csv, "--model", "gnb",
                     "--out", fit_dir]) == 0
        capsys.readouterr()
        out = str(tmp_path / "eval")
        code = main(["evaluate",
                     "--model-file", os.path.join(fit_dir, "model_gnb.json"),
                     "--csv", dataset_csv, "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "model: gnb" in stdout
        assert "confusion matrix" in stdout
        for name in ("gnb_report.txt", "gnb_metrics.json", "gnb_roc.tsv"):
            assert os.path.exists(os.path.join(out, name))


class TestEvaluateColumns:
    """evaluate matches the CSV's columns to the model's by name."""

    @pytest.fixture
    def trained(self, tmp_path):
        rng = np.random.default_rng(5)
        labels = (rng.random(400) < 0.5).astype(np.int64)
        X = np.column_stack([rng.normal(labels * 4.0, 1.0), rng.normal(0.0, 9.0, 400)])
        self.X, self.labels = X, labels
        csv = self.write(tmp_path, "train.csv", ("a", "b"), X)
        fit = str(tmp_path / "fit")
        assert main(["train", "--csv", csv, "--model", "gnb", "--out", fit]) == 0
        return os.path.join(fit, "model_gnb.json"), csv

    def write(self, tmp_path, name, names, X):
        path = str(tmp_path / name)
        write_dataset_csv(Dataset(X, self.labels, names), path)
        return path

    def evaluate(self, model, csv, out, capsys):
        capsys.readouterr()
        code = main(["evaluate", "--model-file", model, "--csv", csv, "--out", out])
        return code, capsys.readouterr()

    def test_swapped_columns_score_as_trained(self, tmp_path, trained, capsys):
        model, csv = trained
        swapped = self.write(tmp_path, "swapped.csv", ("b", "a"), self.X[:, ::-1])
        code, same = self.evaluate(model, csv, str(tmp_path / "same"), capsys)
        assert code == 0 and "accuracy" in same.out
        code, got = self.evaluate(model, swapped, str(tmp_path / "swap"), capsys)
        assert code == 0
        assert got.out == same.out

    @pytest.mark.parametrize("names, missing", [
        (("c", "d"), "['a', 'b']"),
        (("a",), "['b']"),
    ])
    def test_missing_columns_exit_two_naming_them(self, tmp_path, trained, capsys,
                                                  names, missing):
        model, _ = trained
        csv = self.write(tmp_path, "other.csv", names, self.X[:, :len(names)])
        out = tmp_path / "never"
        code, got = self.evaluate(model, csv, str(out), capsys)
        assert code == 2
        assert got.err == f"botsift: {csv}: unknown feature columns: {missing}\n"
        assert not out.exists()


def _saved_payload(tmp_path, name, dataset_csv):
    out = str(tmp_path / f"fit_{name}")
    params = {"knn": '{"k": 1}', "mlp": '{"epochs": 1}'}.get(name, "{}")
    assert main(["train", "--csv", dataset_csv, "--model", name,
                 "--params", params, "--out", out]) == 0
    with open(os.path.join(out, f"model_{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TestMalformedModelFiles:
    def _evaluate(self, tmp_path, dataset_csv, capsys, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        capsys.readouterr()
        out = tmp_path / "eval"
        code = main(["evaluate", "--model-file", str(path), "--csv",
                     dataset_csv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"botsift: {path}: ")
        assert "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("text, why", [
        ('{"kind":"knn","feature_names":["a"]}', "key 'points' is missing"),
        ("not json", "model file is not valid JSON"),
        ("[1,2]", "holds a JSON list, not an object"),
    ])
    def test_not_a_model_exits_two(self, tmp_path, dataset_csv, capsys,
                                   text, why):
        assert why in self._evaluate(tmp_path, dataset_csv, capsys, text)

    def test_unknown_mlp_config_key_exits_two(self, tmp_path, dataset_csv,
                                              capsys):
        payload = _saved_payload(tmp_path, "mlp", dataset_csv)
        payload["config"]["bogus"] = 1
        err = self._evaluate(tmp_path, dataset_csv, capsys, json.dumps(payload))
        assert "key 'config.bogus' is not a field of MlpConfig" in err

    def test_nan_gnb_variance_exits_two(self, tmp_path, dataset_csv, capsys):
        payload = _saved_payload(tmp_path, "gnb", dataset_csv)
        payload["variances"][0][0] = float("nan")
        err = self._evaluate(tmp_path, dataset_csv, capsys, json.dumps(payload))
        assert "key 'variances' holds a non-finite value" in err

    def test_k_over_the_training_rows_exits_two(self, tmp_path, dataset_csv,
                                                capsys):
        payload = _saved_payload(tmp_path, "knn", dataset_csv)
        payload["points"], payload["labels"] = payload["points"][:2], [0.0, 1.0]
        payload["k"] = 5
        err = self._evaluate(tmp_path, dataset_csv, capsys, json.dumps(payload))
        assert "key 'k' is 5, outside 1..2" in err


class TestCrossValidate:
    def test_prints_and_writes_fold_summary(self, tmp_path, dataset_csv,
                                            capsys):
        out = str(tmp_path / "cv")
        code = main(["cross-validate", "--csv", dataset_csv, "--model", "gnb",
                     "--folds", "3", "--seed", "2", "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "3-fold cross-validation" in stdout
        with open(os.path.join(out, "cv_gnb.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["k"] == 3
        assert len(payload["folds"]) == 3

    def test_seed_reaches_the_mlp(self, tmp_path, dataset_csv):
        out = tmp_path / "cv"
        assert main(["cross-validate", "--csv", dataset_csv, "--model", "mlp",
                     "--folds", "3", "--seed", "3", "--params", '{"epochs": 2}',
                     "--out", str(out)]) == 0
        dataset, _ = read_dataset_csv(dataset_csv)
        want = cross_validate(dataset, "mlp", k=3, seed=3,
                              params={"seed": 3, "epochs": 2})
        with open(out / "cv_mlp.json", encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(json.dumps(want.as_dict()))

    def test_a_pooled_fold_fault_exits_as_one_inline(self, tmp_path, dataset_csv,
                                                     capsys, monkeypatch):
        outcomes = []
        for workers in (1, 2):
            monkeypatch.setattr(botsift._pool, "WORKERS", workers)
            with np.errstate(all="ignore"):
                code = main(["cross-validate", "--csv", dataset_csv, "--model", "mlp",
                             "--params", '{"learning_rate": 1e308}',
                             "--out", str(tmp_path / f"cv{workers}")])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0][0] == 2
        assert outcomes[0][1].startswith("botsift: training diverged")
        assert outcomes[1] == outcomes[0]


class TestRun:
    def _config(self, tmp_path, profile_path, **extra):
        payload = {
            "input": {"profile": profile_path},
            "models": [{"name": "gnb"}],
            "cv_folds": 0,
            "select": False,
        }
        payload.update(extra)
        path = str(tmp_path / "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def test_runs_and_prints_summary(self, tmp_path, profile_path, capsys):
        cfg = self._config(tmp_path, profile_path, smote="both")
        out = str(tmp_path / "bundle")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "experiment bundle written" in stdout
        assert "raw" in stdout and "smote" in stdout
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_paper_mode_and_seed_overrides(self, tmp_path, profile_path):
        cfg = self._config(tmp_path, profile_path)
        out = str(tmp_path / "paper")
        code = main(["run", "--config", cfg, "--paper-mode", "--seed", "12",
                     "--out", out])
        assert code == 0
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["mode"] == "paper"
        assert manifest["stage_seeds"]["master"] == 12

    def test_a_worker_that_dies_exits_two(self, tmp_path, profile_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(botsift._pool, "WORKERS", 2)
        parent = os.getpid()

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return roc_curve(*args)

        roc_curve = botsift.evaluate.roc_curve
        monkeypatch.setattr(botsift.evaluate, "roc_curve", die_in_worker)
        cfg = self._config(tmp_path, profile_path, smote="both")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "died")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("botsift: ") and err.count("\n") == 1

    def test_missing_config_exits_one(self, capsys):
        assert main(["run"]) == 1
        assert "missing required option --config" in capsys.readouterr().err

    def test_invalid_config_body_exits_one(self, tmp_path, profile_path,
                                           capsys):
        cfg = self._config(tmp_path, profile_path, cv_folds=1)
        assert main(["run", "--config", cfg]) == 1
        assert "cv_folds" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"cv_folds": "5"}, "cv_folds must be an integer, got '5'"),
        ({"cvfolds": 5}, "unknown config key 'cvfolds'"),
        ({"models": [{"name": "knn", "k": "5"}]},
         "knn hyperparameter 'k' is not an integer, got '5'"),
        ({"models": [{"name": "mlp", "epochs": 2.5}]},
         "mlp hyperparameter 'epochs' is not an integer, got 2.5"),
        ({"models": [{"name": "knn", "k": 0}]},
         "knn hyperparameter 'k' must be >= 1, got 0"),
        ({"models": [{"name": "mlp", "seed": -1}]},
         "invalid mlp hyperparameters: MlpConfig(hidden=16, learning_rate=0.1, "
         "epochs=50, batch_size=32, seed=-1)"),
        ({"seed": -2}, "seed must be >= 0, got -2"),
    ])
    def test_config_fault_exits_one_naming_the_file(self, tmp_path, profile_path,
                                                    capsys, extra, message):
        cfg = self._config(tmp_path, profile_path, **extra)
        out = tmp_path / "never"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        # checked before any stage runs: no stage label, no config echo
        assert capsys.readouterr().err == f"botsift: {cfg}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source, key, value, applies_to", [
        ("csv", "rows", 10, "profile"),
        ("profile", "schema", "schema.json", "csv"),
    ])
    def test_input_key_its_source_ignores_exits_one(self, tmp_path, profile_path,
                                                    flows_csv, capsys, source,
                                                    key, value, applies_to):
        # rows sizes a synthesized input and a schema reads a CSV; the other
        # source would drop them without a word
        paths = {"csv": flows_csv, "profile": profile_path}
        cfg = self._config(tmp_path, profile_path,
                           input={source: paths[source], key: value})
        out = tmp_path / "never"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"botsift: {cfg}: input.{key} applies only to input.{applies_to}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_config_that_is_not_utf8_exits_one(self, tmp_path, command,
                                               capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b'{"seed": "\xff"}')
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            f"botsift: {cfg}: config file is not valid JSON: ")


class TestConfigFile:
    """--config for every command but run: keys are option names, checked
    by the same parser as the flags."""

    def _write(self, tmp_path, body):
        path = tmp_path / "cli.json"
        path.write_text(json.dumps(body))
        return str(path)

    @pytest.mark.parametrize("command, body, why", [
        ("ingest", {"csvv": "x"}, "unknown option 'csvv'"),
        ("ingest", {"cs": "x"}, "unknown option 'cs'"),
        ("smote", {"k": "x"}, "argument --k: invalid int value: 'x'"),
        ("synth", {"rows": "abc"}, "argument --rows: invalid int value"),
        ("cross-validate", {"folds": 2.9}, "argument --folds: invalid int value: '2.9'"),
        ("smote", {"seed": True}, "argument --seed: invalid int value: 'true'"),
        ("cross-validate", {"model": "forest"}, "argument --model: invalid choice"),
        ("smote", {"k": 0}, "argument --k: must be >= 1, got 0"),
        ("smote", {"target": 0}, "argument --target: must be >= 1, got 0"),
        ("cross-validate", {"folds": 1}, "argument --folds: must be >= 2, got 1"),
        ("synth", {"rows": 0}, "argument --rows: must be >= 1, got 0"),
        ("train", [1], "config file must hold a JSON object"),
    ])
    def test_config_fault_exits_one_naming_the_file(self, tmp_path, dataset_csv,
                                                    capsys, command, body, why):
        cfg = self._write(tmp_path, body)
        out = tmp_path / "never"
        csv = ["--csv", dataset_csv] if command != "synth" else []
        code = main([command, "--config", cfg, *csv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"botsift: {cfg}: ") and why in err
        assert "Traceback" not in err and "usage:" not in err
        assert not out.exists()

    def test_explicit_flag_beats_config_value(self, tmp_path, dataset_csv):
        cfg = self._write(tmp_path, {"csv": dataset_csv, "model": "gnb",
                                     "folds": 4, "seed": None,
                                     "out": str(tmp_path / "from-config")})
        out = tmp_path / "from-flag"
        assert main(["cross-validate", "--config", cfg, "--folds", "3",
                     "--out", str(out)]) == 0
        assert not (tmp_path / "from-config").exists()
        with open(out / "cv_gnb.json", encoding="utf-8") as fh:
            assert json.load(fh)["k"] == 3

    def test_params_may_be_a_json_object(self, tmp_path, dataset_csv):
        out = tmp_path / "fit"
        cfg = self._write(tmp_path, {"csv": dataset_csv, "model": "knn",
                                     "params": {"k": 3}, "out": str(out)})
        assert main(["train", "--config", cfg]) == 0
        with open(out / "model_knn.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["k"] == 3 and payload["provenance"]["params"] == {"k": 3}

    def test_profile_stats_writes_json_to_config_out(self, tmp_path, flows_csv):
        out = tmp_path / "stats"
        cfg = self._write(tmp_path, {"csv": flows_csv, "out": str(out)})
        assert main(["profile-stats", "--config", cfg]) == 0
        assert (out / "profile_stats.json").exists()

    @pytest.mark.parametrize("model, params, key", [
        ("knn", '{"k": "5"}', "'k'"),
        ("knn", '{"k": true}', "'k'"),
        ("mlp", '{"epochs": "2"}', "'epochs'"),
    ])
    def test_mistyped_params_exit_two_naming_the_key(self, tmp_path, dataset_csv,
                                                     capsys, model, params, key):
        code = main(["train", "--csv", dataset_csv, "--model", model,
                     "--params", params, "--out", str(tmp_path / "fit")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("botsift: ") and "Traceback" not in err
        assert key in err


class TestFlagRanges:
    """Values a flag can never take are usage errors (exit 1), refused
    before any input is read."""

    @pytest.mark.parametrize("argv, why", [
        (["smote", "--k", "0"], "argument --k: must be >= 1, got 0"),
        (["smote", "--k", "-3"], "argument --k: must be >= 1, got -3"),
        (["smote", "--target", "-3"], "argument --target: must be >= 1, got -3"),
        (["cross-validate", "--model", "gnb", "--folds", "1"],
         "argument --folds: must be >= 2, got 1"),
        (["synth", "--rows", "0"], "argument --rows: must be >= 1, got 0"),
        (["synth", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        (["cross-validate", "--model", "gnb", "--seed", "-1"],
         "argument --seed: must be >= 0, got -1"),
    ])
    def test_out_of_range_flag_exits_one(self, tmp_path, capsys, argv, why):
        out = tmp_path / "never"
        csv = [] if argv[0] == "synth" else ["--csv", str(tmp_path / "absent.csv")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, *csv, "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and why in err
        assert not out.exists()

    def test_lowest_accepted_values_run(self, tmp_path, dataset_csv):
        assert main(["smote", "--csv", dataset_csv, "--k", "1",
                     "--out", str(tmp_path / "bal")]) == 0
        assert main(["cross-validate", "--csv", dataset_csv, "--model", "gnb",
                     "--folds", "2", "--out", str(tmp_path / "cv")]) == 0
        assert main(["synth", "--rows", "1", "--out", str(tmp_path / "one")]) == 0


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_out_dir_falls_back_to_environment(self, tmp_path, flows_csv,
                                               monkeypatch, capsys):
        target = str(tmp_path / "from-env")
        monkeypatch.setenv("BOTSIFT_OUT", target)
        monkeypatch.chdir(tmp_path)
        assert main(["ingest", "--csv", flows_csv]) == 0
        assert os.path.exists(os.path.join(target, "dataset.csv"))
