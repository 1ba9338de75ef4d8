"""Synthetic minority oversampling (SMOTE).

Each synthetic row is p + u * (q - p) for a minority row p, one of its k
nearest minority neighbours q, and a fresh uniform u in [0, 1). The
neighbours follow KNN's one rule (classifiers._nearest): squared distance,
ties to the lower row index. Majority rows pass through untouched;
synthetic rows are appended after all original rows.

Randomness is split into independent streams: the per-point quota
permutation uses stream (seed, 0) and minority point i draws its neighbour
choices and multipliers from stream (seed, 1, i), so the output does not
depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import _nearest, squared_distances
from .errors import ResampleError
from .flows import Dataset

# Rows handled at a time: minority rows compared with every minority row,
# and synthetic rows interpolated.
_CHUNK = 512


@dataclass(frozen=True)
class SmoteConfig:
    """k_neighbors: neighbourhood size, must be < minority row count.
    target_minority_count: final minority rows (None = match majority)."""

    k_neighbors: int = 5
    target_minority_count: int | None = None


@dataclass(frozen=True)
class SmoteResult:
    dataset: Dataset
    synthetic: np.ndarray  # 0/1 flag per output row
    minority_label: int
    original_counts: tuple[int, int]
    counts: tuple[int, int]


def _check_k(k: int, m: int) -> None:
    """SMOTE's neighbourhood rule for m minority rows: 1 <= k < m."""
    if not 1 <= k < m:
        raise ResampleError(f"k_neighbors must be >= 1, got {k}" if k < 1 else
                            f"k_neighbors={k} needs more than {m} minority rows")


def smote_counts(counts: tuple[int, int], config: SmoteConfig) -> tuple[int, int]:
    """The (normal, botnet) counts smote(dataset, config) gives a dataset of
    class counts counts, raising every fault smote would raise for it."""
    normal, botnet = counts
    if 0 in counts:
        raise ResampleError(f"both classes required, class counts are {counts}")
    minority, target = min(counts), config.target_minority_count
    target = max(counts) if target is None else target
    if target < minority:
        raise ResampleError(
            f"target minority count {target} is below the existing {minority} rows")
    _check_k(config.k_neighbors, minority)
    return (target, botnet) if normal <= botnet else (normal, target)


def minority_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """k nearest neighbours of each row among the other rows, by KNN's
    rule, as an (m, k) index array. Each block of rows is compared with
    every row; np.argpartition proposes the candidates."""
    m = points.shape[0]
    _check_k(k, m)
    c = min(k + 1, m - 1)
    out = np.empty((m, k), dtype=np.int64)
    for start in range(0, m, _CHUNK):
        block = points[start:start + _CHUNK]
        d2 = squared_distances(block[:, None, :], points[None, :, :])
        rows = np.arange(len(block))
        # NaN sorts last and fails every <=; +inf would tie an overflow
        d2[rows, start + rows] = np.nan
        cand = np.argpartition(d2, c - 1, axis=1)[:, :c]
        out[start:start + len(block)] = _nearest(
            block, points, k, cand, lambda i, r2: np.flatnonzero(d2[i] <= r2))
    return out


def smote(dataset: Dataset, config: SmoteConfig = SmoteConfig(),
          seed: int = 0) -> SmoteResult:
    """Oversample the minority class with interpolated synthetic rows.

    The synthetic total is spread over minority points in near-equal
    quotas, the +1 remainders going to a seeded random permutation of the
    points. Output row order: all original rows first (bitwise unchanged),
    then synthetic rows grouped by source point in row order.
    """
    normal, botnet = dataset.class_counts
    minority_label = 0 if normal <= botnet else 1
    target = smote_counts((normal, botnet), config)[minority_label]

    minority_idx = np.flatnonzero(dataset.labels == minority_label)
    points = dataset.features[minority_idx]
    neighbors = minority_neighbors(points, config.k_neighbors)

    m = len(minority_idx)
    total_new = target - m
    quotas = np.full(m, total_new // m, dtype=np.int64)
    remainder = total_new % m
    if remainder:
        perm = np.random.default_rng([seed, 0]).permutation(m)
        quotas[perm[:remainder]] += 1

    n, ends = dataset.n_rows, np.cumsum(quotas)
    picks, u = np.empty(total_new, dtype=np.int64), np.empty((total_new, 1))
    for i in np.flatnonzero(quotas).tolist():
        rng = np.random.default_rng([seed, 1, i])
        rows = slice(ends[i] - quotas[i], ends[i])
        picks[rows] = rng.integers(config.k_neighbors, size=quotas[i])
        u[rows, 0] = rng.random(quotas[i])

    # p + u * (q - p), written in place after the originals, p gathered
    # one block of rows at a time
    features = np.empty((n + total_new, dataset.n_features))
    features[:n] = dataset.features
    src = np.repeat(np.arange(m), quotas)
    # the indices are in range; mode="clip" spares mode="raise"'s out buffer
    synth = np.take(points, neighbors[src, picks], axis=0, out=features[n:],
                    mode="clip")
    for start in range(0, total_new, _CHUNK):
        rows = slice(start, start + _CHUNK)
        p, block = points[src[rows]], synth[rows]
        block -= p
        block *= u[rows]
        block += p
    labels = np.concatenate([
        dataset.labels, np.full(total_new, minority_label, dtype=np.int64)])

    flags = np.zeros(len(labels), dtype=np.int64)
    flags[n:] = 1
    balanced = Dataset(features, labels, dataset.feature_names)
    return SmoteResult(
        dataset=balanced,
        synthetic=flags,
        minority_label=minority_label,
        original_counts=(normal, botnet),
        counts=balanced.class_counts,
    )
