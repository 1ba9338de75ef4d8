"""Confusion metrics, ROC, splits, folds, and cross-validation."""

import dataclasses
import json
import math
import os
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import botsift._pool
import botsift.evaluate
from botsift import (ConfusionMatrix, EvaluationError, Metrics, ResampleError,
                     RocCurve, SmoteConfig, TrainingError, cross_validate,
                     evaluate_model, fit_model, make_folds, metrics_from,
                     roc_curve, split_indices, train_test_split)
from botsift.evaluate import fold_counts, fold_sets, percent
from botsift.synth import round_half_up

from conftest import make_dataset


def two_blobs(rng, n0=40, n1=40, gap=5.0):
    X = np.concatenate([rng.normal(0, 1, (n0, 2)), rng.normal(gap, 1, (n1, 2))])
    y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    perm = rng.permutation(len(y))
    return make_dataset(X[perm], y[perm])


class TestConfusionMatrix:
    def test_each_cell_counted(self):
        y_true = np.array([1, 1, 0, 0])
        y_pred = np.array([1, 0, 0, 1])
        cm = ConfusionMatrix.from_labels(y_true, y_pred)
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 1, 1, 1)
        assert cm.total == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="equally long"):
            ConfusionMatrix.from_labels(np.array([1, 0]), np.array([1]))


class TestMetrics:
    @staticmethod
    def _case(tp, fn, fp, tn):
        y_true = np.array([1] * (tp + fn) + [0] * (fp + tn))
        y_pred = np.array([1] * tp + [0] * fn + [1] * fp + [0] * tn)
        cm = ConfusionMatrix.from_labels(y_true, y_pred)
        return metrics_from(cm, y_pred.astype(float), y_true)

    def test_hand_worked_counts(self):
        m = self._case(tp=50, fn=5, fp=5, tn=40)
        assert m.accuracy == 0.9
        assert m.precision == 50 / 55
        assert m.recall == 50 / 55
        assert math.isclose(m.f1, 50 / 55, rel_tol=1e-12)
        assert m.degenerate == ()

    def test_perfect_predictor_scores_all_ones(self):
        m = self._case(tp=7, fn=0, fp=0, tn=9)
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1, 1, 1, 1)
        assert m.roc_auc == 1.0

    def test_all_negative_predictions_flag_precision_and_f1(self):
        m = self._case(tp=0, fn=6, fp=0, tn=14)
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.f1 == 0.0
        assert m.degenerate == ("precision", "f1")
        assert m.accuracy == 0.7

    def test_single_class_truth_cannot_be_evaluated(self):
        y_true = np.zeros(5, dtype=int)
        cm = ConfusionMatrix.from_labels(y_true, y_true)
        with pytest.raises(EvaluationError, match="both classes"):
            metrics_from(cm, np.zeros(5), y_true)

    def test_disagreeing_confusion_matrix_rejected(self):
        y_true = np.array([1, 0, 1, 0])
        cm = ConfusionMatrix(tp=3, fp=0, tn=1, fn=0)
        with pytest.raises(EvaluationError, match="disagree"):
            metrics_from(cm, np.ones(4), y_true)
        short = ConfusionMatrix(tp=1, fp=0, tn=1, fn=0)
        with pytest.raises(EvaluationError, match="does not match"):
            metrics_from(short, np.ones(4), y_true)

    def test_as_dict_lists_all_five(self):
        m = self._case(tp=3, fn=1, fp=1, tn=3)
        assert set(m.as_dict()) == {"accuracy", "precision", "recall",
                                    "f1", "roc_auc"}


def auc_rank_oracle(scores, y):
    """P(score_pos > score_neg) + half the ties, by exhaustive pairs."""
    pos = [s for s, c in zip(scores, y) if c == 1]
    neg = [s for s, c in zip(scores, y) if c == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestRocCurve:
    def test_separated_scores_walk_the_axes(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        y = np.array([1, 1, 0, 0])
        curve = roc_curve(scores, y)
        assert curve.points == ((0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
                                (0.5, 1.0), (1.0, 1.0))
        assert curve.auc == 1.0

    def test_tied_scores_move_together(self):
        scores = np.array([0.8, 0.8, 0.2, 0.2])
        y = np.array([1, 0, 1, 0])
        curve = roc_curve(scores, y)
        assert curve.points == ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0))
        assert curve.auc == 0.5

    def test_constant_scores_one_diagonal_step(self):
        scores = np.full(10, 0.25)
        y = np.array([0, 1] * 5)
        curve = roc_curve(scores, y)
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))
        assert curve.auc == 0.5

    def test_reversed_ranking_scores_zero(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([1, 1, 0, 0])
        assert roc_curve(scores, y).auc == 0.0

    def test_negating_scores_complements_auc(self, rng):
        scores = rng.random(80)
        y = rng.integers(0, 2, 80)
        y[:2] = [0, 1]
        a = roc_curve(scores, y).auc
        b = roc_curve(-scores, y).auc
        assert math.isclose(a + b, 1.0, abs_tol=1e-12)

    def test_monotone_rescaling_changes_nothing(self, rng):
        scores = rng.random(60)
        y = rng.integers(0, 2, 60)
        y[:2] = [0, 1]
        base = roc_curve(scores, y)
        for transformed in (scores / 2.0, scores * 2.0):
            again = roc_curve(transformed, y)
            assert again.points == base.points
            assert again.auc == base.auc

    def test_auc_equals_rank_statistic(self, rng):
        for _ in range(10):
            n = int(rng.integers(10, 80))
            # coarse grid forces plenty of exact ties
            scores = rng.integers(0, 6, n) / 5.0
            y = rng.integers(0, 2, n)
            y[:2] = [0, 1]
            got = roc_curve(scores, y).auc
            want = auc_rank_oracle(scores.tolist(), y.tolist())
            assert math.isclose(got, want, abs_tol=1e-12)

    def test_single_class_truth_rejected(self):
        with pytest.raises(EvaluationError, match="both classes"):
            roc_curve(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="1-d"):
            roc_curve(np.array([0.1, 0.9]), np.array([1, 0, 1]))

    def test_file_output_parses_back(self, tmp_path, rng):
        scores = rng.random(30)
        y = rng.integers(0, 2, 30)
        y[:2] = [0, 1]
        curve = roc_curve(scores, y)
        path = str(tmp_path / "roc.tsv")
        curve.to_file(path)
        with open(path, encoding="utf-8") as fh:
            parsed = tuple(tuple(float(v) for v in line.split("\t"))
                           for line in fh)
        assert parsed == curve.points

    @pytest.mark.parametrize("points", [0, 1, 7, 256, 513])
    def test_file_bytes_match_a_per_point_format(self, tmp_path, rng, points):
        # the bytes are those of repr per point, so every value reads back
        special = [0.0, 2.5e-05, 1 / 3, 0.1, 5e-324, 0.5, 1.0 - 2 ** -53, 1.0]
        fpr = (special + rng.random(points).tolist())[:points]
        tpr = (special[::-1] + rng.random(points).tolist())[:points]
        path = str(tmp_path / "roc.tsv")
        RocCurve(np.array(fpr), np.array(tpr), 0.5).to_file(path)
        with open(path, "rb") as fh:
            assert fh.read() == "".join(f"{f!r}\t{t!r}\n"
                                        for f, t in zip(fpr, tpr)).encode("utf-8")

    def test_curve_is_read_only_and_pickles_whole(self, rng):
        scores = rng.random(30)
        y = rng.integers(0, 2, 30)
        y[:2] = [0, 1]
        curve = roc_curve(scores, y)
        assert curve.fpr.dtype == curve.tpr.dtype == np.float64
        with pytest.raises(ValueError):
            curve.fpr[0] = 1.0
        again = pickle.loads(pickle.dumps(curve))
        assert again == curve and again.points == curve.points
        assert not again.tpr.flags.writeable
        assert again != roc_curve(1.0 - scores, y)


class TestRounding:
    def test_round_half_up_is_exact(self):
        assert round_half_up(Fraction(1, 2)) == 1
        assert round_half_up(Fraction(3, 2)) == 2
        assert round_half_up(Fraction(5, 2)) == 3
        assert round_half_up(Fraction(-1, 2)) == 0
        assert round_half_up(Fraction(49_763_5, 10)) == 49764

    def test_percent_formatting(self):
        assert percent(0.0) == "0.0"
        assert percent(1.0) == "100.0"
        assert percent(0.99527) == "99.5"
        assert percent(2 / 3) == "66.7"
        assert percent(0.125) == "12.5"


class TestSplitIndices:
    def test_full_scale_test_size(self):
        labels = np.zeros(999_610, dtype=np.int64)
        labels[:4_782] = 1
        train, test = split_indices(labels, 0.2, seed=0)
        assert len(test) == 199_922
        assert len(train) == 999_610 - 199_922
        # largest-remainder allocation over the two classes
        assert int(labels[test].sum()) == 956

    def test_half_up_rounding_of_test_size(self):
        assert len(split_indices(np.array([0, 1] * 5), 0.25, seed=1)[1]) == 3
        assert len(split_indices(np.array([0, 1]), 0.25, seed=1)[1]) == 1

    def test_sides_partition_the_rows(self, rng):
        labels = rng.integers(0, 2, 87)
        labels[:2] = [0, 1]
        train, test = split_indices(labels, 0.3, seed=5)
        assert np.array_equal(train, np.sort(train))
        assert np.array_equal(test, np.sort(test))
        merged = np.concatenate([train, test])
        assert np.array_equal(np.sort(merged), np.arange(87))

    def test_stratified_keeps_class_shares_within_one_row(self, rng):
        for trial in range(10):
            n = int(rng.integers(40, 400))
            labels = (rng.random(n) < 0.3).astype(np.int64)
            labels[:2] = [0, 1]
            frac = float(rng.choice([0.2, 0.25, 0.3]))
            _, test = split_indices(labels, frac, seed=trial)
            for c in (0, 1):
                want = frac * int(np.sum(labels == c))
                got = int(np.sum(labels[test] == c))
                assert abs(got - want) <= 1.0

    def test_deterministic_per_seed(self, rng):
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        a = split_indices(labels, 0.2, seed=3)
        b = split_indices(labels, 0.2, seed=3)
        c = split_indices(labels, 0.2, seed=4)
        assert np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_degenerate_fractions_rejected(self):
        labels = np.array([0, 1, 0])
        with pytest.raises(EvaluationError, match="in \\(0, 1\\)"):
            split_indices(labels, 0.0)
        with pytest.raises(EvaluationError, match="in \\(0, 1\\)"):
            split_indices(labels, 1.0)
        with pytest.raises(EvaluationError, match="empty"):
            split_indices(labels, 0.1)
        with pytest.raises(EvaluationError, match="empty"):
            split_indices(labels, 0.9)

    def test_dataset_wrapper_splits_rows(self, rng):
        ds = two_blobs(rng, n0=30, n1=10)
        train, test = train_test_split(ds, 0.25, seed=2)
        assert train.n_rows == 30 and test.n_rows == 10
        # equal remainders: the tie quota goes to the larger class
        assert test.class_counts == (8, 2)
        seen = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert np.array_equal(np.sort(seen), np.sort(ds.features[:, 0]))


class TestMakeFolds:
    def test_17_rows_5_folds(self, rng):
        labels = rng.integers(0, 2, 17)
        folds = make_folds(labels, 5, seed=0)
        assert tuple(len(f) for f in folds) == (4, 4, 3, 3, 3)

    def test_folds_partition_ascending(self, rng):
        labels = rng.integers(0, 2, 53)
        folds = make_folds(labels, 5, seed=1)
        for f in folds:
            assert np.array_equal(f, np.sort(f))
        merged = np.sort(np.concatenate(folds))
        assert np.array_equal(merged, np.arange(53))

    def test_stratified_class_counts_within_one(self, rng):
        for trial in range(10):
            n = int(rng.integers(17, 1000))
            labels = (rng.random(n) < 0.25).astype(np.int64)
            folds = make_folds(labels, 5, seed=trial)
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1
            for c in (0, 1):
                per_fold = [int(np.sum(labels[f] == c)) for f in folds]
                assert max(per_fold) - min(per_fold) <= 1

    def test_bounds_enforced(self):
        labels = np.array([0, 1, 0])
        with pytest.raises(EvaluationError, match=">= 2"):
            make_folds(labels, 1)
        with pytest.raises(EvaluationError, match="3 rows"):
            make_folds(labels, 4)

    def test_deterministic_per_seed(self, rng):
        labels = rng.integers(0, 2, 40)
        a = make_folds(labels, 5, seed=7)
        b = make_folds(labels, 5, seed=7)
        c = make_folds(labels, 5, seed=8)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))


label_lists = st.lists(st.integers(0, 1), min_size=2, max_size=300).map(
    lambda values: np.array(values, dtype=np.int64))
seeds = st.integers(0, 2**32 - 1)


class TestPartitionProperties:
    """split_indices and make_folds over arbitrary label vectors."""

    @settings(max_examples=200, deadline=None)
    @given(label_lists, st.floats(0.01, 0.99), seeds)
    def test_split_covers_every_row_once_and_repeats_per_seed(
            self, labels, fraction, seed):
        n = len(labels)
        t = round_half_up(Fraction(fraction) * n)
        assume(0 < t < n)
        train, test = split_indices(labels, fraction, seed)
        for part in (train, test):
            assert np.all(np.diff(part) > 0)
        assert len(test) == t
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n))
        again = split_indices(labels, fraction, seed)
        assert np.array_equal(again[0], train) and np.array_equal(again[1], test)

    @settings(max_examples=200, deadline=None)
    @given(label_lists, st.floats(0.01, 0.99), seeds)
    def test_stratified_test_quota_is_proportional_within_one_row(
            self, labels, fraction, seed):
        t = round_half_up(Fraction(fraction) * len(labels))
        assume(0 < t < len(labels))
        _, test = split_indices(labels, fraction, seed)
        for c in (0, 1):
            share = Fraction(fraction) * int(np.sum(labels == c))
            assert abs(int(np.sum(labels[test] == c)) - share) <= 1

    @settings(max_examples=200, deadline=None)
    @given(label_lists, st.integers(2, 12), seeds)
    def test_folds_cover_every_row_once_and_repeat_per_seed(
            self, labels, k, seed):
        assume(k <= len(labels))
        folds = make_folds(labels, k, seed)
        assert len(folds) == k
        for fold in folds:
            assert np.all(np.diff(fold) > 0)
        assert np.array_equal(np.sort(np.concatenate(folds)),
                              np.arange(len(labels)))
        sizes = [len(fold) for fold in folds]
        assert max(sizes) - min(sizes) <= 1
        again = make_folds(labels, k, seed)
        assert all(np.array_equal(a, b) for a, b in zip(folds, again))

    @settings(max_examples=200, deadline=None)
    @given(label_lists, st.integers(2, 12), seeds)
    def test_stratified_folds_keep_each_class_within_one_row(
            self, labels, k, seed):
        assume(k <= len(labels))
        for c in (0, 1):
            count = int(np.sum(labels == c))
            for fold in make_folds(labels, k, seed):
                assert abs(int(np.sum(labels[fold] == c)) - Fraction(count, k)) < 1


class TestFoldCounts:
    @settings(max_examples=100, deadline=None)
    @given(label_lists, st.integers(2, 6), seeds, st.booleans(),
           st.one_of(st.none(), st.integers(1, 6)))
    def test_counts_are_fold_sets_or_both_raise_the_same(self, labels, k, seed,
                                                         scale, smote_k):
        assume(k <= len(labels))
        ds = make_dataset(np.arange(len(labels), dtype=np.float64), labels)
        folds = make_folds(labels, k, seed)
        balance = None if smote_k is None else SmoteConfig(k_neighbors=smote_k)
        for f in range(k):
            outcomes = []
            for run in (lambda: fold_counts(ds, folds, f, balance),
                        lambda: fold_sets(ds, folds, f, seed, scale=scale,
                                          smote_config=balance)[0].class_counts):
                try:
                    outcomes.append(run())
                except (EvaluationError, ResampleError) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1]


class TestCrossValidate:
    def test_reports_per_fold_and_aggregates(self, rng):
        ds = two_blobs(rng, n0=40, n1=40)
        result = cross_validate(ds, "gnb", k=4, seed=0)
        assert result.model == "gnb" and result.k == 4
        assert result.fold_sizes == (20, 20, 20, 20)
        assert len(result.fold_metrics) == 4
        for name in ("accuracy", "roc_auc"):
            values = [getattr(m, name) for m in result.fold_metrics]
            assert math.isclose(result.mean[name], float(np.mean(values)),
                                rel_tol=1e-12)
            assert math.isclose(result.std[name], float(np.std(values)),
                                rel_tol=1e-12, abs_tol=1e-15)

    def test_deterministic_given_seed(self, rng):
        ds = two_blobs(rng, n0=30, n1=30)
        a = cross_validate(ds, "gnb", k=3, seed=5)
        b = cross_validate(ds, "gnb", k=3, seed=5)
        assert a == b

    def test_too_few_minority_rows_for_k_advises_a_smaller_k(self, rng):
        X = rng.normal(0, 1, (20, 2))
        y = np.array([1, 1] + [0] * 18)
        ds = make_dataset(X, y)
        with pytest.raises(EvaluationError, match=r"single class .*; use a k no "
                                                  r"larger than the smaller class$"):
            cross_validate(ds, "gnb", k=5, seed=0)

    @pytest.mark.parametrize("name, params, message", [
        ("forest", None, "unknown model 'forest', expected one of "
                         "('gnb', 'knn', 'mlp')"),
        # 40 rows in 4 folds: every training part holds 30 rows
        ("knn", {"k": 31}, "fold 0: k=31 exceeds the 30 training rows"),
    ])
    def test_a_broken_rule_fails_before_any_fold_is_prepared(
            self, rng, monkeypatch, name, params, message):
        calls = []
        monkeypatch.setattr(botsift.evaluate, "fold_sets",
                            lambda *args, **kwargs: calls.append(args))
        ds = two_blobs(rng, n0=20, n1=20)
        with pytest.raises(TrainingError) as err:
            cross_validate(ds, name, k=4, seed=0, params=params)
        assert str(err.value) == message
        assert calls == []

    def test_folds_are_fitted_on_the_pool(self, rng, tmp_path, monkeypatch):
        # k=2 runs the even-k tie rule inside the workers
        ds = two_blobs(rng, n0=60, n1=12, gap=1.0)
        fit_model = botsift.evaluate.fit_model
        results, pids = {}, {}
        for workers in (1, 2):
            monkeypatch.setattr(botsift._pool, "WORKERS", workers)
            pid_dir = tmp_path / f"pids{workers}"
            pid_dir.mkdir()

            def record_pid(*args, pid_dir=pid_dir):
                (pid_dir / str(os.getpid())).touch()
                return fit_model(*args)

            monkeypatch.setattr(botsift.evaluate, "fit_model", record_pid)
            results[workers] = cross_validate(ds, "knn", k=3, seed=1, params={"k": 2},
                                              smote_config=SmoteConfig(k_neighbors=2))
            pids[workers] = {int(name) for name in os.listdir(pid_dir)}
        assert results[2] == results[1]
        assert pids[1] == {os.getpid()}
        assert pids[2] and os.getpid() not in pids[2]

    def test_in_fold_resampling_runs(self, rng):
        from botsift import SmoteConfig
        ds = two_blobs(rng, n0=60, n1=12)
        result = cross_validate(ds, "knn", k=3, seed=1, params={"k": 3},
                                smote_config=SmoteConfig(k_neighbors=2))
        assert all(0.0 <= m.roc_auc <= 1.0 for m in result.fold_metrics)

    def test_as_dict_shape(self, rng):
        ds = two_blobs(rng, n0=20, n1=20)
        payload = cross_validate(ds, "gnb", k=2, seed=0).as_dict()
        assert payload["model"] == "gnb"
        assert payload["fold_sizes"] == [20, 20]
        assert len(payload["folds"]) == 2
        assert set(payload["mean"]) == set(payload["std"])
        json.dumps(payload)  # JSON-serializable throughout


class TestEvalReport:
    def test_report_fields_and_text(self, rng):
        ds = two_blobs(rng, n0=50, n1=30)
        train, test = train_test_split(ds, 0.25, seed=1)
        model = fit_model("gnb", train)
        report = evaluate_model(model, test, model_name="gnb")
        assert report.confusion.total == test.n_rows
        assert report.test_counts == test.class_counts
        text = report.to_text()
        assert "model: gnb" in text
        assert "decision threshold: score >= 0.5" in text
        assert "degenerate" in text
        for name in ("accuracy", "precision", "recall", "f1", "roc_auc"):
            assert name in text

    def test_roc_curve_computed_once(self, rng, monkeypatch):
        ds = two_blobs(rng, n0=50, n1=30)
        train, test = train_test_split(ds, 0.25, seed=1)
        model = fit_model("gnb", train)
        expected = evaluate_model(model, test)
        calls = []

        def counted(scores, y_true):
            calls.append(len(scores))
            return roc_curve(scores, y_true)

        monkeypatch.setattr(botsift.evaluate, "roc_curve", counted)
        report = evaluate_model(model, test)
        assert calls == [test.n_rows]
        assert report == expected
        assert report.metrics.roc_auc == report.curve.auc

    def test_even_k_knn_report_states_its_tie_rule(self):
        train = make_dataset([[0.0], [1.0], [3.0], [4.0]], [0, 0, 1, 1])
        # 1.9 votes 1-1 and its nearest row is labelled normal
        test = make_dataset([[1.9], [3.5]], [0, 1])
        report = evaluate_model(fit_model("knn", train, {"k": 2}), test)
        assert (report.confusion.tn, report.confusion.tp) == (1, 1)
        rule = ("k=2 is even, so a score of exactly 0.5 (a tied vote) "
                "takes the label of the nearest training row")
        assert f"decision threshold: score >= 0.5\ntie rule: {rule}\n" in (
            report.to_text())
        assert report.to_json_dict()["tie_rule"] == rule
        for name, params in (("knn", {"k": 3}), ("gnb", {})):
            other = evaluate_model(fit_model(name, train, params), test)
            assert "tie rule" not in other.to_text()
            assert "tie_rule" not in other.to_json_dict()

    def test_text_includes_cv_block_when_present(self, rng):
        ds = two_blobs(rng, n0=40, n1=40)
        train, test = train_test_split(ds, 0.25, seed=0)
        cv = cross_validate(train, "gnb", k=3, seed=0)
        model = fit_model("gnb", train)
        report = evaluate_model(model, test, model_name="gnb")
        assert "cross-validation" not in report.to_text()
        # attached as run_experiment attaches it
        report = dataclasses.replace(report, cv=cv)
        assert "cross-validation (k=3" in report.to_text()

    def test_json_dict_round_trips(self, rng):
        ds = two_blobs(rng, n0=30, n1=30)
        train, test = train_test_split(ds, 0.2, seed=3)
        report = evaluate_model(fit_model("gnb", train), test)
        payload = report.to_json_dict()
        assert payload["model"] == "gnb"
        assert payload["test_counts"] == {"normal": test.class_counts[0],
                                          "botnet": test.class_counts[1]}
        assert set(payload["metrics"]) == {"accuracy", "precision", "recall",
                                           "f1", "roc_auc"}
        json.dumps(payload)

    def test_model_name_inferred_from_type(self, rng):
        ds = two_blobs(rng, n0=20, n1=20)
        train, test = train_test_split(ds, 0.25, seed=0)
        report = evaluate_model(fit_model("knn", train), test)
        assert report.model == "knn"
