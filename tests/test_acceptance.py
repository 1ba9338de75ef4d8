"""Acceptance suite: twelve numbered end-to-end checks, one test each.

Every check recomputes its expected values with independent in-file
oracles (exhaustive sorts, pairwise rank statistics, finite differences,
contingency sums) rather than trusting the library code under test.
Each test prints one "ACCEPTANCE <n> <name>: PASS" line on success
(visible with -s); under plain pytest -v the one PASSED/FAILED line per
test serves the same purpose.

Set BOTSIFT_BOTIOT_CSV to the full BoT-IoT extract to additionally run
the full-scale checks; without it those parts are exercised on
synthetic data at desk scale.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import scipy.stats

from botsift import (
    ConfusionMatrix,
    ExperimentConfig,
    FeatureSpec,
    GnbModel,
    MlpConfig,
    SmoteConfig,
    TrafficProfile,
    apply_scaler,
    chi2_scores,
    class_counts_for,
    cleanse,
    default_profile,
    default_schema,
    encode,
    fit_model,
    fit_scaler,
    generate,
    load_csv,
    make_folds,
    metrics_from,
    mlp_loss_and_grads,
    predict_batch,
    roc_curve,
    run_experiment,
    score_batch,
    smote,
    split_indices,
    to_dataset,
)
from botsift.classifiers import MlpModel

from conftest import make_dataset

REAL_CSV = os.environ.get("BOTSIFT_BOTIOT_CSV")


def _ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def flows_to_dataset(flows):
    kept = cleanse(flows)
    return to_dataset(encode(kept)[0])


# ---------------------------------------------------------------------------
# 1. Oversampling count arithmetic


def test_01_smote_count_arithmetic(rng):
    # general rule: counts (m, M) with m < M come out as (M, M), total 2M
    for m, M in ((7, 20), (13, 41), (3, 9)):
        X = np.vstack([rng.normal(0, 1, (m, 3)), rng.normal(8, 1, (M, 3))])
        y = np.array([1] * m + [0] * M)
        result = smote(make_dataset(X, y), SmoteConfig(k_neighbors=2), seed=m)
        assert result.counts == (M, M)
        assert result.dataset.n_rows == 2 * M

    # desk scale: the bundled profile's 99.5% ratio at 50,000 rows gives
    # exactly 250 normal vs 49,750 botnet; balancing yields 99,500 rows
    dataset = flows_to_dataset(generate(default_profile(), seed=42))
    assert dataset.class_counts == (250, 49_750)
    result = smote(dataset, SmoteConfig(), seed=0)
    assert result.counts == (49_750, 49_750)
    assert result.dataset.n_rows == 99_500

    if REAL_CSV:  # full scale, only when the real extract is supplied
        real = flows_to_dataset(load_csv(REAL_CSV, default_schema()))
        assert real.class_counts == (4_782, 994_828)
        balanced = smote(real, SmoteConfig(), seed=0)
        assert balanced.counts == (994_828, 994_828)
        assert balanced.dataset.n_rows == 1_989_656
    _ok(1, "smote-count-arithmetic")


# ---------------------------------------------------------------------------
# 2. Oversampling geometry


def test_02_smote_segment_geometry(rng):
    minority = rng.normal(0.0, 1.0, (60, 2))
    majority = rng.normal(40.0, 1.0, (1_060, 2))
    X = np.vstack([minority, majority])
    y = np.array([1] * 60 + [0] * 1_060)
    result = smote(make_dataset(X, y), SmoteConfig(k_neighbors=5), seed=5)
    synth_rows = result.dataset.features[result.synthetic == 1]
    assert len(synth_rows) == 1_000

    # brute-force neighbour recomputation, independent of the library
    k = 5
    pairs_p, pairs_q = [], []
    for i in range(len(minority)):
        dists = sorted(
            (float(np.sum((minority[i] - minority[j]) ** 2)), j)
            for j in range(len(minority)) if j != i)
        for _, j in dists[:k]:
            pairs_p.append(minority[i])
            pairs_q.append(minority[j])
    pairs_p = np.array(pairs_p)
    pairs_q = np.array(pairs_q)
    direction = pairs_q - pairs_p
    length2 = np.einsum("ij,ij->i", direction, direction)

    for s in synth_rows:
        t = np.einsum("ij,ij->i", s - pairs_p, direction) / length2
        t = np.clip(t, 0.0, 1.0)[:, None]
        residual = np.abs(s - (pairs_p + t * direction))
        assert (residual <= 1e-9).all(axis=1).any(), \
            f"synthetic row {s} lies on no minority-to-neighbour segment"
    _ok(2, "smote-segment-geometry")


# ---------------------------------------------------------------------------
# 3. Chi-square scores against a contingency-sum oracle


def chi2_oracle(X, y):
    n = len(y)
    scores = []
    for j in range(X.shape[1]):
        column_total = float(X[:, j].sum())
        s = 0.0
        for c in (0, 1):
            observed = float(X[y == c, j].sum())
            expected = column_total * float(np.sum(y == c)) / n
            if expected > 0.0:
                s += (observed - expected) ** 2 / expected
        scores.append(s)
    return np.array(scores)


def test_03_chi2_oracle_equivalence(rng):
    for trial in range(50):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(1, 11))
        X = rng.random((n, d)) * rng.uniform(0.5, 100.0, d)
        y = rng.integers(0, 2, n)
        y[:2] = (0, 1)
        report = chi2_scores(make_dataset(X, y))
        assert np.allclose(report.scores, chi2_oracle(X, y),
                           rtol=1e-9, atol=1e-12)

    constant = np.full((40, 1), 3.25)
    varying = rng.random((40, 1))
    y = rng.integers(0, 2, 40)
    y[:2] = (0, 1)
    report = chi2_scores(make_dataset(np.hstack([constant, varying]), y))
    assert report.scores[0] == 0.0
    _ok(3, "chi2-oracle-equivalence")


# ---------------------------------------------------------------------------
# 4. Nearest-neighbour predictions against an exhaustive sort


def knn_oracle_predict(train_X, train_y, queries, k):
    out = []
    for q in queries:
        order = sorted(
            (float(np.sum((q - p) ** 2)), i) for i, p in enumerate(train_X))
        votes = sum(train_y[i] for _, i in order[:k])
        out.append(1 if 2 * votes > k else 0)
    return np.array(out, dtype=np.int64)


def test_04_knn_oracle_equivalence(rng):
    train_X = rng.normal(0.0, 2.0, (500, 4))
    train_y = rng.integers(0, 2, 500)
    queries = rng.normal(0.0, 2.0, (50, 4))
    train = make_dataset(train_X, train_y)
    for k in (1, 3, 5):
        got = predict_batch(fit_model("knn", train, {"k": k}), queries)
        want = knn_oracle_predict(train_X, train_y, queries, k)
        assert np.array_equal(got, want), f"k={k} disagrees with oracle"
    _ok(4, "knn-oracle-equivalence")


# ---------------------------------------------------------------------------
# 5. Gaussian naive Bayes closed form


def test_05_gnb_closed_form():
    # symmetric one-feature case: equal priors, unit variances, means 0 / 1.
    # log N(x;1,1) - log N(x;0,1) = ((x-0)^2 - (x-1)^2)/2 = x - 1/2, so at
    # x = 0.25 the log-odds are -0.25 and posterior(1) = 1/(1 + exp(0.25)).
    expected = 1.0 / (1.0 + math.exp(0.25))

    # numeric confirmation of the derivation from direct densities
    dens0 = scipy.stats.norm.pdf(0.25, loc=0.0, scale=1.0)
    dens1 = scipy.stats.norm.pdf(0.25, loc=1.0, scale=1.0)
    direct = 0.5 * dens1 / (0.5 * dens0 + 0.5 * dens1)
    assert math.isclose(direct, expected, rel_tol=1e-12)

    model = GnbModel(
        feature_names=("x",),
        priors=np.array([0.5, 0.5]),
        means=np.array([[0.0], [1.0]]),
        variances=np.array([[1.0], [1.0]]),
        smoothing=0.0,
    )
    got = float(score_batch(model, np.array([0.25])[None])[0])
    assert abs(got - expected) <= 1e-9
    _ok(5, "gnb-closed-form")


# ---------------------------------------------------------------------------
# 6. Backpropagation gradients against central differences


def test_06_mlp_gradient_check(rng):
    step = 1e-5
    for trial in range(20):
        d = int(rng.integers(1, 7))
        h = int(rng.integers(1, 9))
        config = MlpConfig(hidden=h, seed=100 + trial)
        # zero epochs leave the seeded initial weights
        model = fit_model("mlp", make_dataset(np.zeros((1, d)), [0]),
                          {"hidden": h, "seed": 100 + trial, "epochs": 0})
        X = rng.normal(0.0, 1.0, (int(rng.integers(2, 11)), d))
        y = rng.integers(0, 2, len(X)).astype(float)
        _, grads = mlp_loss_and_grads(model, X, y)

        def loss_at(**overrides):
            fields = dict(w_in=model.w_in, b_in=model.b_in,
                          w_out=model.w_out, b_out=model.b_out)
            fields.update(overrides)
            probe = MlpModel(feature_names=model.feature_names,
                             config=config, **fields)
            return mlp_loss_and_grads(probe, X, y)[0]

        for name in ("w_in", "b_in", "w_out"):
            base = np.array(getattr(model, name), dtype=np.float64)
            for pos in range(base.size):
                up, down = base.copy(), base.copy()
                up.reshape(-1)[pos] += step
                down.reshape(-1)[pos] -= step
                numeric = (loss_at(**{name: up}) -
                           loss_at(**{name: down})) / (2 * step)
                analytic = grads[name].reshape(-1)[pos]
                assert abs(analytic - numeric) <= 1e-4 * abs(numeric) + 1e-8
        numeric = (loss_at(b_out=model.b_out + step) -
                   loss_at(b_out=model.b_out - step)) / (2 * step)
        assert abs(grads["b_out"] - numeric) <= 1e-4 * abs(numeric) + 1e-8
    _ok(6, "mlp-gradient-check")


# ---------------------------------------------------------------------------
# 7. AUC equals the pairwise rank statistic


def auc_oracle(scores, y_true):
    pos = scores[y_true == 1]
    neg = scores[y_true == 0]
    wins = 0.0
    for s in pos:
        wins += float(np.sum(s > neg)) + 0.5 * float(np.sum(s == neg))
    return wins / (len(pos) * len(neg))


def test_07_auc_rank_statistic(rng):
    for trial in range(100):
        n = int(rng.integers(5, 201))
        if trial % 2:  # coarse grid forces tied scores
            scores = rng.integers(0, 6, n).astype(float) / 5.0
        else:
            scores = rng.random(n)
        y = rng.integers(0, 2, n)
        y[:2] = (0, 1)
        got = roc_curve(scores, y).auc
        assert abs(got - auc_oracle(scores, y)) <= 1e-12

    y = np.array([0, 1] * 20)
    assert roc_curve(np.full(40, 0.7), y).auc == 0.5
    assert roc_curve(y.astype(float), y).auc == 1.0
    _ok(7, "auc-rank-statistic")


# ---------------------------------------------------------------------------
# 8. Illusory accuracy of the constant majority predictor


def skew_profile(row_count):
    return TrafficProfile(
        features={
            "dur": {0: FeatureSpec(mean=70.0), 1: FeatureSpec(mean=7.0)},
            "rate": {0: FeatureSpec(mean=30.0), 1: FeatureSpec(mean=900.0)},
        },
        tokens={"proto": {0: {"tcp": 0.7, "udp": 0.3},
                          1: {"tcp": 0.2, "udp": 0.8}}},
        class_ratio=0.99527,
        row_count=row_count,
        seed=11,
    )


def test_08_illusory_accuracy():
    # 0.99527 of 50,000 is 49,763.5, so exact counts land on 49,764 and the
    # all-botnet predictor scores that fraction; the arithmetic comes out
    # exactly on the literal 0.99527 at 100,000 rows (473 / 99,527)
    for rows, counts in ((50_000, (236, 49_764)), (100_000, (473, 99_527))):
        assert class_counts_for(rows, 0.99527) == counts
        y = np.asarray(generate(skew_profile(rows), seed=8).labels, dtype=np.int64)
        assert (int(np.sum(y == 0)), int(np.sum(y == 1))) == counts

        predictions = np.ones(rows, dtype=np.int64)
        constant_scores = np.full(rows, 0.5)
        cm = ConfusionMatrix.from_labels(y, predictions)
        metrics = metrics_from(cm, constant_scores, y)
        assert metrics.accuracy == counts[1] / rows
        assert metrics.recall == 1.0

        curve = roc_curve(constant_scores, y)
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))  # the diagonal
        assert curve.auc == 0.5
        assert metrics.roc_auc == 0.5

    assert class_counts_for(100_000, 0.99527)[1] / 100_000 == 0.99527
    assert abs(class_counts_for(50_000, 0.99527)[1] / 50_000 - 0.99527) < 2e-5
    _ok(8, "illusory-accuracy")


# ---------------------------------------------------------------------------
# 9. Balancing improves minority recall


def minority_recall(model, minority, test):
    predictions = predict_batch(model, test.features)
    actual = test.labels == minority
    hits = int(np.sum((predictions == minority) & actual))
    return hits, int(actual.sum())


def test_09_smote_benefit():
    started = time.time()
    profile = default_profile()  # 99.5% botnet
    improved = {"gnb": 0, "knn": 0, "mlp": 0}
    for base in range(5):
        flows = cleanse(generate(profile, rows=20_000, seed=base + 1))
        dataset = to_dataset(encode(flows)[0])
        train_idx, test_idx = split_indices(
            dataset.labels, 0.5, seed=base + 2)
        train, test = dataset.take(train_idx), dataset.take(test_idx)
        scaler = fit_scaler(train)
        train_scaled = apply_scaler(train, scaler)
        test_scaled = apply_scaler(test, scaler)
        balanced_result = smote(train_scaled, SmoteConfig(), seed=base + 3)
        balanced = balanced_result.dataset
        minority = balanced_result.minority_label
        for name in improved:
            params = {"seed": base + 5} if name == "mlp" else {}
            raw_hits, raw_total = minority_recall(
                fit_model(name, train_scaled, params), minority, test_scaled)
            bal_hits, bal_total = minority_recall(
                fit_model(name, balanced, params), minority, test_scaled)
            if bal_hits * raw_total > raw_hits * bal_total:
                improved[name] += 1

    winners = [name for name, count in improved.items() if count == 5]
    assert len(winners) >= 2, \
        f"recall improved 5/5 only for {winners} ({improved})"
    assert time.time() - started < 600.0
    _ok(9, "smote-benefit")


# ---------------------------------------------------------------------------
# 10. Report bundle shape and documented reference values


def test_10_summary_shape_and_reference_docs(tmp_path):
    profile = {
        "features": {
            "dur": {"normal": {"mean": 70.0}, "botnet": {"mean": 7.0}},
            "rate": {"normal": {"mean": 30.0}, "botnet": {"mean": 900.0}},
        },
        "tokens": {"proto": {"tcp": 0.7, "udp": 0.3}},
        "class_ratio": 0.8,
        "row_count": 400,
        "seed": 3,
    }
    profile_path = tmp_path / "tiny.profile"
    profile_path.write_text(json.dumps(profile), encoding="utf-8")

    config = ExperimentConfig(
        input_profile=str(profile_path), mode="paper", smote="both",
        models=(("gnb", {}), ("knn", {})), cv_folds=0, select=False, seed=1)
    outdir = tmp_path / "bundle"
    if REAL_CSV:  # the real extract replaces the synthetic stand-in
        config = ExperimentConfig(
            input_csv=REAL_CSV, mode="paper", smote="both",
            models=(("gnb", {}), ("knn", {})), cv_folds=0, seed=1)
    run_experiment(config, str(outdir))

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["mode"] == "paper"
    summary = (outdir / "summary.txt").read_text()
    for column in ("accuracy", "precision", "recall", "f1", "auc"):
        assert column in summary
    for arm in ("raw", "smote"):
        for name in ("gnb", "knn"):
            assert f"{arm}" in summary and f"{name}" in summary
    assert "percentages" in summary

    # the published comparison points live in the README for manual
    # side-by-side reading; exact reproduction is out of scope by design
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for reference in ("99.6", "99.2", "92.1", "92.2", "0.50", "0.90"):
        assert reference in readme, f"README lacks reference value {reference}"
    _ok(10, "summary-shape-and-reference-docs")


# ---------------------------------------------------------------------------
# 11. Byte-identical bundles from identical configs


def test_11_deterministic_bundles(tmp_path):
    profile = {
        "features": {
            "dur": {"normal": {"mean": 70.0}, "botnet": {"mean": 7.0}},
            "rate": {"normal": {"mean": 30.0}, "botnet": {"mean": 900.0}},
        },
        "tokens": {"proto": {"tcp": 0.7, "udp": 0.3}},
        "class_ratio": 0.8,
        "row_count": 400,
        "seed": 3,
    }
    profile_path = tmp_path / "tiny.profile"
    profile_path.write_text(json.dumps(profile), encoding="utf-8")
    config = ExperimentConfig(
        input_profile=str(profile_path), smote="both", select=True,
        models=(("gnb", {}), ("knn", {"k": 3}), ("mlp", {"epochs": 3})),
        cv_folds=3, seed=7, save_models=True)

    first, second = tmp_path / "first", tmp_path / "second"
    run_experiment(config, str(first))
    run_experiment(config, str(second))

    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), \
            f"{name} differs between reruns"
    _ok(11, "deterministic-bundles")


# ---------------------------------------------------------------------------
# 12. Fold partition and stratification


def test_12_fold_partition(rng):
    k = 5
    for trial in range(25):
        n = int(rng.integers(17, 1001))
        minority_rate = rng.uniform(0.1, 0.5)
        labels = (rng.random(n) < minority_rate).astype(np.int64)
        labels[:2] = (0, 1)
        folds = make_folds(labels, k, seed=trial)
        assert len(folds) == k
        joined = np.concatenate(folds)
        assert len(joined) == n
        assert np.array_equal(np.sort(joined), np.arange(n))  # disjoint
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        ones = int(labels.sum())
        for fold in folds:
            fold_ones = int(labels[fold].sum())
            assert abs(fold_ones - len(fold) * ones / n) <= 1.0
    _ok(12, "fold-partition")
