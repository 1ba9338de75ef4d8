"""Synthetic minority oversampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from botsift import ResampleError, SmoteConfig, minority_neighbors, smote
from botsift.smote import smote_counts

from conftest import make_dataset


def knn_oracle(points, k):
    """Brute-force k nearest neighbours, ties toward the lower index."""
    m = len(points)
    out = []
    for i in range(m):
        cand = []
        for j in range(m):
            if j != i:
                d = float(np.sum((points[i] - points[j]) ** 2))
                cand.append((d, j))
        cand.sort()
        out.append([j for _, j in cand[:k]])
    return out


def imbalanced(minority_points, majority_count, minority_label=1, rng=None):
    """Dataset with the given minority rows and far-away majority rows."""
    minority_points = np.asarray(minority_points, dtype=np.float64)
    d = minority_points.shape[1]
    if rng is None:
        rng = np.random.default_rng(5)
    majority = rng.random((majority_count, d)) + 100.0
    X = np.concatenate([majority, minority_points])
    y = np.concatenate([
        np.full(majority_count, 1 - minority_label),
        np.full(len(minority_points), minority_label),
    ])
    return make_dataset(X, y)


class TestCounts:
    def test_default_target_matches_majority(self, rng):
        ds = imbalanced(rng.random((7, 3)), 20, rng=rng)
        result = smote(ds, SmoteConfig(k_neighbors=3), seed=1)
        assert result.original_counts == (20, 7)
        assert result.counts == (20, 20)
        assert result.dataset.n_rows == 40
        assert int(result.synthetic.sum()) == 13

    def test_custom_target(self, rng):
        ds = imbalanced(rng.random((7, 3)), 20, rng=rng)
        result = smote(ds, SmoteConfig(k_neighbors=3,
                                       target_minority_count=12), seed=1)
        assert result.counts == (20, 12)

    def test_target_equal_to_existing_adds_nothing(self, rng):
        ds = imbalanced(rng.random((7, 3)), 20, rng=rng)
        result = smote(ds, SmoteConfig(k_neighbors=3,
                                       target_minority_count=7), seed=1)
        assert result.counts == (20, 7)
        assert not result.synthetic.any()
        assert np.array_equal(result.dataset.features, ds.features)

    def test_minority_can_be_class_zero(self, rng):
        ds = imbalanced(rng.random((4, 2)), 11, minority_label=0, rng=rng)
        result = smote(ds, SmoteConfig(k_neighbors=2), seed=3)
        assert result.minority_label == 0
        assert result.counts == (11, 11)

    def test_synthetic_rows_carry_minority_label(self, rng):
        ds = imbalanced(rng.random((5, 2)), 9, rng=rng)
        result = smote(ds, SmoteConfig(k_neighbors=2), seed=0)
        new = result.synthetic == 1
        assert np.all(result.dataset.labels[new] == result.minority_label)
        assert not result.synthetic[: ds.n_rows].any()


class TestGeometry:
    def test_identical_minority_pair_yields_exact_copies(self):
        point = np.array([2.5, -1.25, 8.0])
        ds = imbalanced([point, point], 5)
        result = smote(ds, SmoteConfig(k_neighbors=1), seed=9)
        synth = result.dataset.features[result.synthetic == 1]
        assert len(synth) == 3
        assert np.all(synth == point)

    def test_two_point_diagonal_stays_on_the_segment(self):
        ds = imbalanced([[0.0, 0.0], [1.0, 1.0]], 30)
        result = smote(ds, SmoteConfig(k_neighbors=1), seed=2)
        synth = result.dataset.features[result.synthetic == 1]
        assert len(synth) == 28
        assert np.all(synth[:, 0] == synth[:, 1])
        assert synth.min() >= 0.0 and synth.max() <= 1.0

    def test_every_synthetic_point_interpolates_a_neighbour_pair(self, rng):
        minority = rng.random((12, 2))
        ds = imbalanced(minority, 400, rng=rng)
        k = 3
        result = smote(ds, SmoteConfig(k_neighbors=k), seed=4)
        synth = result.dataset.features[result.synthetic == 1]
        assert len(synth) == 388
        neighbour_lists = knn_oracle(minority, k)
        for s in synth:
            hit = False
            for i, p in enumerate(minority):
                for j in neighbour_lists[i]:
                    q = minority[j]
                    pq = q - p
                    denom = float(pq @ pq)
                    t = float((s - p) @ pq) / denom
                    if not 0.0 <= t <= 1.0:
                        continue
                    if np.max(np.abs(p + t * pq - s)) <= 1e-9:
                        hit = True
                        break
                if hit:
                    break
            assert hit, f"synthetic row {s} lies on no neighbour segment"

    def test_original_rows_pass_through_bitwise(self, rng):
        ds = imbalanced(rng.random((6, 4)) * 1e6, 25, rng=rng)
        result = smote(ds, SmoteConfig(k_neighbors=2), seed=7)
        out = result.dataset
        assert np.array_equal(
            out.features[: ds.n_rows].view(np.uint64),
            ds.features.view(np.uint64))
        assert np.array_equal(out.labels[: ds.n_rows], ds.labels)
        assert out.feature_names == ds.feature_names


class TestDeterminism:
    def test_same_seed_reproduces_bitwise(self, rng):
        ds = imbalanced(rng.random((9, 3)), 40, rng=rng)
        a = smote(ds, SmoteConfig(k_neighbors=4), seed=11)
        b = smote(ds, SmoteConfig(k_neighbors=4), seed=11)
        assert np.array_equal(a.dataset.features.view(np.uint64),
                              b.dataset.features.view(np.uint64))
        assert np.array_equal(a.synthetic, b.synthetic)

    def test_different_seeds_differ(self, rng):
        ds = imbalanced(rng.random((9, 3)), 40, rng=rng)
        a = smote(ds, SmoteConfig(k_neighbors=4), seed=11)
        b = smote(ds, SmoteConfig(k_neighbors=4), seed=12)
        assert not np.array_equal(a.dataset.features, b.dataset.features)


class TestNeighborSearch:
    def test_matches_brute_force_oracle(self, rng):
        points = rng.random((40, 5))
        got = minority_neighbors(points, 6)
        want = knn_oracle(points, 6)
        assert got.tolist() == want

    def test_duplicate_points_resolve_to_lowest_indices(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        got = minority_neighbors(points, 2)
        assert got.tolist() == [[1, 2], [0, 2], [0, 1], [0, 1]]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_lattice_and_duplicate_ties_match_the_oracle(self, data):
        d = data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            pool = data.draw(arrays(np.int64, (data.draw(st.integers(1, 6)), d),
                                    elements=st.integers(-2, 2))) * 0.25
        else:
            pool = data.draw(arrays(
                np.float64, (data.draw(st.integers(1, 6)), d),
                elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)))
        if data.draw(st.booleans()):
            # cells near +-1e200 overflow some squared distances to inf
            huge = data.draw(arrays(np.float64, pool.shape, elements=st.sampled_from(
                [0.0, -1e200, 1e200, 3e200])))
            pool = np.where(huge != 0.0, huge, pool)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=2, max_size=30))
        points = pool[picks]
        k = data.draw(st.integers(1, len(points) - 1))
        with np.errstate(over="ignore"):
            assert minority_neighbors(points, k).tolist() == knn_oracle(points, k)

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_blocks_after_the_first_match_a_matrix_oracle(self, k):
        # 1,100 rows span three 512-row blocks; each duplicate group
        # straddles a block boundary (rows 511/512 and 1023/1024)
        rng = np.random.default_rng(12)
        points = rng.integers(0, 9, (1100, 3)) * 0.5
        points[505:520] = points[3]
        points[1018:1030] = [4.0, 0.5, 2.0]
        points[700] = points[1100 - 1] = [4.0, 0.5, 2.0]
        d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
        index = np.arange(len(points))
        want = []
        for i in index:
            order = np.lexsort((index, d2[i]))
            want.append(order[order != i][:k].tolist())
        assert minority_neighbors(points, k).tolist() == want

    def test_requires_more_rows_than_k(self):
        points = np.zeros((3, 2))
        with pytest.raises(ResampleError, match="k_neighbors=3"):
            minority_neighbors(points, 3)
        with pytest.raises(ResampleError, match=">= 1"):
            minority_neighbors(points, 0)


def on_neighbour_segment(s, points, neighbour_lists):
    """Whether row s is p + t * (q - p), 0 <= t <= 1, for some minority
    row p and one of its neighbours q, within rounding."""
    tol = 1e-9 * (1.0 + float(np.max(np.abs(points))))
    for i, p in enumerate(points):
        for j in neighbour_lists[i]:
            pq = points[j] - p
            denom = float(pq @ pq)
            t = float((s - p) @ pq) / denom if denom else 0.0
            if -1e-9 <= t <= 1.0 + 1e-9 and np.max(np.abs(p + t * pq - s)) <= tol:
                return True
    return False


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invariants_on_random_imbalanced_sets(self, data):
        d = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(2, 12))
        if data.draw(st.booleans()):
            minority = data.draw(arrays(np.int64, (m, d),
                                        elements=st.integers(-3, 3))) * 0.5
        else:
            minority = data.draw(arrays(
                np.float64, (m, d),
                elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)))
        majority_count = data.draw(st.integers(m + 1, 40))
        label = data.draw(st.sampled_from([0, 1]))
        k = data.draw(st.integers(1, m - 1))
        target = data.draw(st.one_of(st.none(), st.integers(m, majority_count + 20)))
        ds = imbalanced(minority, majority_count, minority_label=label)
        result = smote(ds, SmoteConfig(k_neighbors=k, target_minority_count=target),
                       seed=data.draw(st.integers(0, 2**32 - 1)))
        out, n = result.dataset, ds.n_rows
        want = majority_count if target is None else target
        new = want - m

        # the original rows come first, bitwise unchanged
        assert np.array_equal(out.features[:n].view(np.uint64),
                              ds.features.view(np.uint64))
        assert np.array_equal(out.labels[:n], ds.labels)
        # the counts equal the target
        assert result.minority_label == label
        assert result.counts == ((want, majority_count) if label == 0
                                 else (majority_count, want))
        assert out.n_rows == n + new
        assert result.synthetic.tolist() == [0] * n + [1] * new
        # the synthetic rows carry the minority label
        assert np.all(out.labels[n:] == result.minority_label)
        # each lies on a segment from a minority row to an oracle neighbour
        neighbour_lists = knn_oracle(minority, k)
        for s in out.features[n:]:
            assert on_neighbour_segment(s, minority, neighbour_lists), s


class TestSmoteCounts:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12), st.integers(-1, 12),
           st.one_of(st.none(), st.integers(0, 20)))
    def test_counts_are_smotes_or_both_raise_the_same(self, normal, botnet, k,
                                                      target):
        ds = make_dataset(np.arange(normal + botnet, dtype=np.float64),
                          [0] * normal + [1] * botnet)
        config = SmoteConfig(k_neighbors=k, target_minority_count=target)
        outcomes = []
        for run in (lambda: smote_counts(ds.class_counts, config),
                    lambda: smote(ds, config).counts):
            try:
                outcomes.append(run())
            except ResampleError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestErrors:
    def test_single_class_rejected(self):
        ds = make_dataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(ResampleError, match="both classes"):
            smote(ds)

    def test_k_at_least_minority_size_rejected(self, rng):
        ds = imbalanced(rng.random((4, 2)), 10, rng=rng)
        with pytest.raises(ResampleError, match="k_neighbors=5"):
            smote(ds, SmoteConfig(k_neighbors=5))

    def test_target_below_existing_rejected(self, rng):
        ds = imbalanced(rng.random((6, 2)), 10, rng=rng)
        with pytest.raises(ResampleError, match="below the existing"):
            smote(ds, SmoteConfig(k_neighbors=2, target_minority_count=5))
