"""Gaussian naive Bayes, k-nearest-neighbour, and the sigmoid MLP."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

import botsift
from botsift import (ConfusionMatrix, DivergenceError, GnbModel, KnnModel,
                     LoadError, MlpConfig, MlpModel, TrainingError,
                     cross_validate, evaluate_model, fit_model, gnb_fit,
                     gnb_posteriors, knn_fit, load_model, make_folds, mlp_fit,
                     mlp_init, mlp_loss_and_grads, predict_batch, save_model,
                     score_batch, threshold_labels)
from botsift.classifiers import MODEL_NAMES

from conftest import make_dataset


def blobs(rng, n0=60, n1=60, gap=6.0, d=3):
    """Two well-separated Gaussian clusters with labels 0 and 1."""
    X0 = rng.normal(0.0, 1.0, (n0, d))
    X1 = rng.normal(gap, 1.0, (n1, d))
    X = np.concatenate([X0, X1])
    y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    perm = rng.permutation(len(y))
    return make_dataset(X[perm], y[perm])


class TestGnb:
    def test_priors_are_class_frequencies(self):
        X = np.arange(200, dtype=float).reshape(-1, 1)
        y = np.array([0] * 199 + [1])
        model = gnb_fit(make_dataset(X, y))
        assert list(model.priors) == [0.995, 0.005]

    def test_per_class_stats_match_loop_oracle(self, rng):
        X = rng.normal(3.0, 2.5, (120, 4))
        y = rng.integers(0, 2, 120)
        y[:2] = [0, 1]
        model = gnb_fit(make_dataset(X, y))
        for c in (0, 1):
            rows = [X[i] for i in range(len(y)) if y[i] == c]
            for j in range(4):
                col = [r[j] for r in rows]
                mean = sum(col) / len(col)
                var = sum((v - mean) ** 2 for v in col) / len(col)
                assert math.isclose(model.means[c, j], mean, rel_tol=1e-12)
                assert math.isclose(model.variances[c, j] - model.smoothing,
                                    var, rel_tol=1e-9, abs_tol=1e-15)

    def test_smoothing_tracks_largest_feature_variance(self, rng):
        X = np.column_stack([rng.normal(0, 1, 50), rng.normal(0, 9, 50)])
        y = np.array([0, 1] * 25)
        model = gnb_fit(make_dataset(X, y))
        assert model.smoothing == 1e-9 * float(X.var(axis=0).max())

    def test_constant_features_fall_back_to_floor_smoothing(self):
        X = np.full((10, 2), 4.0)
        y = np.array([0] * 5 + [1] * 5)
        model = gnb_fit(make_dataset(X, y))
        assert model.smoothing == 1e-12
        scores = score_batch(model, X)
        assert np.all(np.isfinite(scores))

    def test_posteriors_sum_to_one(self, rng):
        ds = blobs(rng)
        model = gnb_fit(ds)
        post = gnb_posteriors(model, ds.features)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)
        assert post.min() >= 0.0

    def test_unit_gaussians_closed_form(self):
        model = GnbModel(
            feature_names=("x",),
            priors=np.array([0.5, 0.5]),
            means=np.array([[0.0], [1.0]]),
            variances=np.array([[1.0], [1.0]]),
            smoothing=0.0,
        )
        # equal priors and unit variances: log-odds reduce to x - 1/2
        got = float(score_batch(model, np.array([0.25])[None])[0])
        assert math.isclose(got, 1.0 / (1.0 + math.exp(0.25)), rel_tol=1e-12)

    def test_matches_direct_density_oracle(self, rng):
        ds = blobs(rng, n0=40, n1=25)
        model = gnb_fit(ds)
        probe = rng.normal(3.0, 3.0, (20, 3))
        got = score_batch(model, probe)
        for i, x in enumerate(probe):
            dens = []
            for c in (0, 1):
                pdfs = norm.pdf(x, loc=model.means[c],
                                scale=np.sqrt(model.variances[c]))
                dens.append(float(model.priors[c]) * float(np.prod(pdfs)))
            want = dens[1] / (dens[0] + dens[1])
            assert math.isclose(got[i], want, rel_tol=1e-9, abs_tol=1e-300)

    def test_single_class_rejected(self):
        ds = make_dataset([[1.0], [2.0]], [0, 0])
        with pytest.raises(TrainingError, match="both classes"):
            gnb_fit(ds)

    def test_scoring_is_deterministic(self, rng):
        ds = blobs(rng)
        a = score_batch(gnb_fit(ds), ds.features)
        b = score_batch(gnb_fit(ds), ds.features)
        assert np.array_equal(a, b)


def knn_score_oracle(train_X, train_y, X, k):
    """Per-row exhaustive sort on (distance, index)."""
    out = []
    for x in X:
        cand = sorted(
            (float(np.sum((x - p) ** 2)), i) for i, p in enumerate(train_X))
        picked = [train_y[i] for _, i in cand[:k]]
        out.append(sum(picked) / k)
    return np.array(out, dtype=np.float64)


def knn_predict_oracle(train_X, train_y, X, k):
    """Majority of the oracle's k nearest; a tied vote takes the label of
    the first row in (distance, index) order."""
    out = []
    for x in X:
        cand = sorted(
            (float(np.sum((x - p) ** 2)), i) for i, p in enumerate(train_X))
        votes = sum(train_y[i] for _, i in cand[:k])
        out.append(train_y[cand[0][1]] if 2 * votes == k else int(2 * votes > k))
    return np.array(out, dtype=np.int64)


@st.composite
def tied_knn_cases(draw):
    """Training rows drawn with repeats from a small pool of lattice or
    float points, queried on the lattice or at the pool points: many exact
    distance ties and duplicated rows."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        pool = draw(arrays(np.int64, (draw(st.integers(1, 8)), d),
                           elements=st.integers(-2, 2))) * 0.25
        queries = draw(arrays(np.int64, (draw(st.integers(1, 6)), d),
                              elements=st.integers(-3, 3))) * 0.25
    else:
        floats = st.floats(-1e3, 1e3, allow_nan=False, width=64)
        pool = draw(arrays(np.float64, (draw(st.integers(1, 8)), d),
                           elements=floats))
        queries = np.concatenate([pool, draw(arrays(
            np.float64, (draw(st.integers(0, 4)), d), elements=floats))])
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2,
                          max_size=30))
    X = pool[picks]
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(picks),
                               max_size=len(picks))))
    k = draw(st.integers(1, len(picks)))
    return X, y, queries, k


class TestKnn:
    def test_three_nearest_majority(self):
        X = np.array([[0.0], [1.0], [2.0], [50.0], [60.0]])
        y = np.array([1, 1, 0, 0, 0])
        model = knn_fit(make_dataset(X, y), k=3)
        probe = np.array([0.5])
        assert score_batch(model, probe[None])[0] == 2.0 / 3.0
        assert predict_batch(model, probe[None])[0] == 1

    def test_matches_exhaustive_oracle(self, rng):
        for k in (1, 3, 5, 8):
            train = blobs(rng, n0=30, n1=30, gap=2.0)
            model = knn_fit(train, k=k)
            probe = rng.normal(1.0, 2.0, (25, 3))
            got = score_batch(model, probe)
            want = knn_score_oracle(train.features, train.labels, probe, k)
            assert np.array_equal(got, want)

    def test_scaling_features_by_two_changes_nothing(self, rng):
        train = blobs(rng, n0=20, n1=20, gap=2.0)
        probe = rng.normal(1.0, 2.0, (15, 3))
        base = score_batch(knn_fit(train, k=5), probe)
        doubled = make_dataset(2.0 * train.features, train.labels)
        scaled = score_batch(knn_fit(doubled, k=5), 2.0 * probe)
        assert np.array_equal(base, scaled)

    def test_k1_memorizes_distinct_training_points(self, rng):
        X = np.unique(rng.integers(0, 1000, (80, 2)).astype(float), axis=0)
        y = (rng.random(len(X)) < 0.5).astype(int)
        y[:2] = [0, 1]
        model = knn_fit(make_dataset(X, y), k=1)
        assert np.array_equal(score_batch(model, X), y.astype(float))

    def test_k_equal_to_n_scores_global_fraction(self, rng):
        train = blobs(rng, n0=45, n1=15, gap=2.0)
        model = knn_fit(train, k=60)
        scores = score_batch(model, rng.normal(0, 3, (10, 3)))
        assert np.all(scores == 15.0 / 60.0)

    def test_batch_equals_row_by_row(self, rng):
        train = blobs(rng, n0=25, n1=25, gap=2.0)
        model = knn_fit(train, k=4)
        probe = rng.normal(1.0, 2.0, (12, 3))
        batch = score_batch(model, probe)
        singles = [score_batch(model, row[None])[0] for row in probe]
        assert batch.tolist() == singles

    def test_even_k_tie_takes_the_nearest_label(self):
        X = np.array([[0.0], [3.0], [10.0]])
        y = np.array([0, 1, 1])
        model = knn_fit(make_dataset(X, y), k=2)
        # probe at 1: neighbours are rows 0 (label 0) and 1 (label 1), tied
        # vote, nearest is row 0
        assert predict_batch(model, np.array([1.0])[None])[0] == 0
        # probe at 2.5: same two neighbours, nearest is row 1
        assert predict_batch(model, np.array([2.5])[None])[0] == 1

    @settings(max_examples=150, deadline=None)
    @given(tied_knn_cases())
    def test_lattice_and_duplicate_ties_match_the_oracles(self, case):
        X, y, queries, k = case
        model = knn_fit(make_dataset(X, y), k=k)
        assert np.array_equal(score_batch(model, queries),
                              knn_score_oracle(X, y, queries, k))
        want = knn_predict_oracle(X, y, queries, k)
        assert np.array_equal(predict_batch(model, queries), want)

    def test_near_tie_is_ranked_by_the_direct_distance(self):
        # |q|^2 + |p|^2 - 2 q.p cancels catastrophically at this offset
        # and ranks row 0 first; row 1 is nearer
        model = knn_fit(make_dataset([[1e4], [1e4 + 1e-4]], [0, 1]), k=1)
        probe = np.array([[1e4 + 0.5e-4 + 1e-12]])
        assert score_batch(model, probe).tolist() == [1.0]
        assert predict_batch(model, probe).tolist() == [1]

    def test_even_k_tie_rule_holds_in_predict_batch_and_reports(self):
        model = knn_fit(make_dataset([[0.0], [1.0], [3.0], [4.0]],
                                     [0, 0, 1, 1]), k=2)
        probe = np.array([[1.9]])  # votes 1-1, nearest is row 1 (label 0)
        assert predict_batch(model, probe).tolist() == [0]
        test = make_dataset([[1.9], [2.1], [3.5]], [0, 1, 1])
        report = evaluate_model(model, test)
        assert report.confusion == ConfusionMatrix(tp=2, fp=0, tn=1, fn=0)

    def test_even_k_tie_rule_builds_the_kd_tree_once(self, monkeypatch, tmp_path):
        import scipy.spatial
        built = []

        class CountingTree(scipy.spatial.cKDTree):
            def __init__(self, data, *args, **kwargs):
                built.append(len(data))
                super().__init__(data, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        train = make_dataset([[0.0], [1.0], [3.0], [4.0]], [0, 0, 1, 1])
        probe = np.array([[1.9]])  # a tied vote: the tie rule queries again
        for predict in (lambda m: predict_batch(m, probe),
                        lambda m: evaluate_model(m, make_dataset([[1.9], [3.5]],
                                                                 [0, 1]))):
            model = knn_fit(train, k=2)
            save_model(model, str(tmp_path / "fresh.json"))
            predict(model)
            predict(model)
            assert built == [4]
            built.clear()
            # the kept tree is no part of the saved model
            save_model(model, str(tmp_path / "used.json"))
            assert ((tmp_path / "used.json").read_bytes()
                    == (tmp_path / "fresh.json").read_bytes())

    def test_even_k_tie_rule_holds_in_cross_validation(self):
        X = (np.arange(20) // 2 + np.tile([0.0, 0.3], 10))[:, None]
        y = np.array([0, 1] * 10)
        ds = make_dataset(X, y)
        cv = cross_validate(ds, "knn", k=4, seed=3, params={"k": 2},
                            mode="paper")
        for fold, test_idx in zip(cv.fold_metrics,
                                  make_folds(y, 4, 3, True)):
            mask = np.ones(len(y), dtype=bool)
            mask[test_idx] = False
            want = knn_predict_oracle(X[mask], y[mask], X[test_idx], 2)
            assert fold.accuracy == float(np.mean(want == y[test_idx]))

    def test_non_finite_queries_rejected(self):
        model = knn_fit(make_dataset([[0.0], [1.0]], [0, 1]), k=1)
        with pytest.raises(LoadError, match="finite"):
            score_batch(model, np.array([[np.nan]]))

    def test_importing_botsift_leaves_the_kd_tree_unloaded(self):
        # scipy.spatial is imported only when KNN scores, and
        # multiprocessing only when a process pool runs, so
        # importing the package, the CLI and the experiment runner does
        # not pay for either
        src = os.path.dirname(os.path.dirname(botsift.__file__))
        code = ("import sys, botsift, botsift.cli, botsift.experiment; "
                "print('scipy.spatial' in sys.modules, "
                "'multiprocessing' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False False"

    def test_k_bounds_enforced(self, rng):
        train = blobs(rng, n0=5, n1=5)
        with pytest.raises(TrainingError, match=">= 1"):
            knn_fit(train, k=0)
        with pytest.raises(TrainingError, match="exceeds"):
            knn_fit(train, k=11)


class TestMlp:
    def test_zero_learning_rate_keeps_initial_weights(self, rng):
        ds = blobs(rng, n0=20, n1=20)
        config = MlpConfig(hidden=6, learning_rate=0.0, epochs=3, seed=42)
        model = mlp_fit(ds, config)
        init = mlp_init(ds.n_features, config)
        assert np.array_equal(model.w_in, init.w_in)
        assert np.array_equal(model.b_in, init.b_in)
        assert np.array_equal(model.w_out, init.w_out)
        assert model.b_out == init.b_out

    def test_zero_weights_score_half(self):
        model = MlpModel(
            feature_names=("a", "b"),
            w_in=np.zeros((2, 4)), b_in=np.zeros(4),
            w_out=np.zeros(4), b_out=0.0,
            config=MlpConfig(hidden=4),
        )
        scores = score_batch(model, np.array([[1.0, -2.0], [0.0, 0.0]]))
        assert scores.tolist() == [0.5, 0.5]

    def test_gradients_match_central_differences(self, rng):
        for trial in range(20):
            d, h = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            config = MlpConfig(hidden=h, seed=trial)
            model = mlp_init(d, config)
            X = rng.normal(0, 1, (7, d))
            y = rng.integers(0, 2, 7).astype(float)
            _, grads = mlp_loss_and_grads(model, X, y)

            def loss_at(**overrides):
                fields = dict(w_in=model.w_in, b_in=model.b_in,
                              w_out=model.w_out, b_out=model.b_out)
                fields.update(overrides)
                probe = MlpModel(feature_names=model.feature_names,
                                 config=config, **fields)
                return mlp_loss_and_grads(probe, X, y)[0]

            step = 1e-5
            for name in ("w_in", "b_in", "w_out"):
                base = np.array(getattr(model, name), dtype=np.float64)
                flat = base.reshape(-1)
                for pos in range(flat.size):
                    up, down = base.copy(), base.copy()
                    up.reshape(-1)[pos] += step
                    down.reshape(-1)[pos] -= step
                    numeric = (loss_at(**{name: up}) -
                               loss_at(**{name: down})) / (2 * step)
                    analytic = grads[name].reshape(-1)[pos]
                    assert math.isclose(numeric, analytic,
                                        rel_tol=1e-4, abs_tol=1e-8)
            numeric = (loss_at(b_out=model.b_out + step) -
                       loss_at(b_out=model.b_out - step)) / (2 * step)
            assert math.isclose(numeric, grads["b_out"],
                                rel_tol=1e-4, abs_tol=1e-8)

    def test_learns_xor(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        ds = make_dataset(X, y)
        config = MlpConfig(hidden=8, learning_rate=2.0, epochs=3000,
                           batch_size=4, seed=0)
        model = mlp_fit(ds, config)
        assert predict_batch(model, X).tolist() == [0, 1, 1, 0]

    def test_separates_distant_blobs(self, rng):
        train = blobs(rng, n0=150, n1=150)
        model = mlp_fit(train, MlpConfig(seed=3))
        accuracy = np.mean(predict_batch(model, train) == train.labels)
        assert accuracy >= 0.99

    def test_loss_decreases_on_separable_data(self, rng):
        train = blobs(rng, n0=80, n1=80)
        model = mlp_fit(train, MlpConfig(seed=1))
        assert model.epoch_losses[-1] < model.epoch_losses[0]

    def test_same_seed_is_bit_reproducible(self, rng):
        train = blobs(rng, n0=30, n1=30)
        a = mlp_fit(train, MlpConfig(seed=9))
        b = mlp_fit(train, MlpConfig(seed=9))
        assert np.array_equal(a.w_in, b.w_in)
        assert a.epoch_losses == b.epoch_losses

    def test_divergence_error_names_the_epoch(self, rng):
        X = rng.normal(0, 1, (64, 3))
        y = rng.integers(0, 2, 64)
        y[:2] = [0, 1]
        ds = make_dataset(X, y)
        config = MlpConfig(hidden=4, learning_rate=1e308, epochs=5,
                           batch_size=16, seed=1)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match="epoch 1") as err:
                mlp_fit(ds, config)
        assert err.value.epoch == 1


class TestSharedSurface:
    def test_fit_model_dispatch(self, rng):
        train = blobs(rng, n0=20, n1=20)
        assert isinstance(fit_model("gnb", train), GnbModel)
        assert fit_model("knn", train, {"k": 3}).k == 3
        assert fit_model("knn", train).k == 5
        mlp = fit_model("mlp", train, {"epochs": 1, "seed": 4})
        assert isinstance(mlp, MlpModel) and mlp.config.epochs == 1

    def test_fit_model_rejects_bad_hyperparameters(self, rng):
        train = blobs(rng, n0=10, n1=10)
        with pytest.raises(TrainingError, match="gnb takes no"):
            fit_model("gnb", train, {"k": 2})
        with pytest.raises(TrainingError, match="unknown knn"):
            fit_model("knn", train, {"k": 2, "depth": 9})
        with pytest.raises(TrainingError, match="invalid mlp"):
            fit_model("mlp", train, {"layers": 4})
        with pytest.raises(TrainingError, match="unknown model"):
            fit_model("forest", train)

    def test_threshold_is_inclusive_at_half(self):
        scores = np.array([0.49, 0.5, 0.51, 0.0, 1.0])
        assert threshold_labels(scores).tolist() == [0, 1, 1, 0, 1]

    def test_score_batch_validates_shape(self, rng):
        train = blobs(rng, n0=10, n1=10)
        model = fit_model("gnb", train)
        with pytest.raises(Exception, match="2-d"):
            score_batch(model, np.zeros(3))
        with pytest.raises(Exception, match="features"):
            score_batch(model, np.zeros((4, 7)))
        assert score_batch(model, np.zeros((0, 3))).shape == (0,)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_non_finite_rows_rejected_for_every_kind(self, rng, name):
        # GNB and MLP once scored a NaN row as nan, which predict_batch
        # then labelled normal
        train = blobs(rng, n0=10, n1=10, d=2)
        model = fit_model(name, train, {"epochs": 1} if name == "mlp" else None)
        for row in ([np.nan, 0.0], [0.0, np.inf]):
            with pytest.raises(LoadError, match="finite"):
                score_batch(model, np.array([row]))
            with pytest.raises(LoadError, match="finite"):
                predict_batch(model, np.array([row]))

    def test_scores_stay_in_unit_interval(self, rng):
        train = blobs(rng, n0=30, n1=30)
        probe = rng.normal(3, 5, (40, 3))
        for name in ("gnb", "knn", "mlp"):
            params = {"epochs": 5, "seed": 2} if name == "mlp" else None
            scores = score_batch(fit_model(name, train, params), probe)
            assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_save_load_round_trips_bitwise(self, rng, tmp_path):
        train = blobs(rng, n0=15, n1=15)
        probe = rng.normal(0, 2, (10, 3))
        for name in ("gnb", "knn", "mlp"):
            params = {"epochs": 3, "seed": 6} if name == "mlp" else None
            model = fit_model(name, train, params)
            path = str(tmp_path / f"{name}.json")
            save_model(model, path)
            again = load_model(path)
            assert type(again) is type(model)
            assert again.feature_names == model.feature_names
            before = score_batch(model, probe)
            after = score_batch(again, probe)
            assert np.array_equal(before.view(np.uint64),
                                  after.view(np.uint64))

    def test_loaded_mlp_keeps_config_and_losses(self, rng, tmp_path):
        train = blobs(rng, n0=12, n1=12)
        model = fit_model("mlp", train, {"epochs": 4, "seed": 8, "hidden": 5})
        path = str(tmp_path / "mlp.json")
        save_model(model, path)
        again = load_model(path)
        assert again.config == model.config
        assert again.epoch_losses == model.epoch_losses
