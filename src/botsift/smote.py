"""Synthetic minority oversampling (SMOTE).

Each synthetic row is p + u * (q - p) for a minority row p, one of its k
nearest minority neighbours q, and a fresh uniform u in [0, 1). Neighbours
are ranked by the squared Euclidean distance KNN uses
(classifiers.squared_distances), with ties going to the lower row index.
Majority rows pass through untouched; synthetic rows are appended after
all original rows.

Randomness is split into independent streams: the per-point quota
permutation uses stream (seed, 0) and minority point i draws its neighbour
choices and multipliers from stream (seed, 1, i), so the output does not
depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import squared_distances
from .errors import ResampleError
from .flows import Dataset

_NEIGHBOR_CHUNK = 512


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


def minority_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """k nearest neighbours of each row among the other rows.

    Exact squared Euclidean distances (squared_distances), compared
    block by block against every row; ties broken toward the lower row
    index. Returns an (m, k) index array.
    """
    m = points.shape[0]
    if k < 1:
        raise ResampleError(f"k_neighbors must be >= 1, got {k}")
    if k >= m:
        raise ResampleError(
            f"k_neighbors={k} needs more than {m} minority rows")
    out = np.empty((m, k), dtype=np.int64)
    for start in range(0, m, _NEIGHBOR_CHUNK):
        block = points[start:start + _NEIGHBOR_CHUNK]
        d2 = squared_distances(block[:, None, :], points[None, :, :])
        # stable sort on distance keeps equal-distance candidates in index order
        order = np.argsort(d2, axis=1, kind="stable")[:, :k + 1]
        for row in range(order.shape[0]):
            i = start + row
            # drop self; when i is outside the first k+1 the leading entries
            # are all duplicates of point i at distance 0 and lower index,
            # which are valid neighbours under the tie rule
            out[i] = order[row][order[row] != i][:k]
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
    if normal == 0 or botnet == 0:
        raise ResampleError(
            f"both classes required, class counts are ({normal}, {botnet})")
    minority_label = 0 if normal <= botnet else 1
    minority_count = min(normal, botnet)
    target = config.target_minority_count
    if target is None:
        target = max(normal, botnet)
    if target < minority_count:
        raise ResampleError(
            f"target minority count {target} is below the existing "
            f"{minority_count} rows")

    minority_idx = np.flatnonzero(dataset.labels == minority_label)
    points = dataset.features[minority_idx]
    neighbors = minority_neighbors(points, config.k_neighbors)

    m = minority_count
    total_new = target - m
    quotas = np.full(m, total_new // m, dtype=np.int64)
    remainder = total_new % m
    if remainder:
        perm = np.random.default_rng([seed, 0]).permutation(m)
        quotas[perm[:remainder]] += 1

    blocks = []
    for i in range(m):
        if quotas[i] == 0:
            continue
        rng = np.random.default_rng([seed, 1, i])
        picks = rng.integers(config.k_neighbors, size=quotas[i])
        u = rng.random(quotas[i])
        p = points[i]
        q = points[neighbors[i][picks]]
        blocks.append(p + u[:, None] * (q - p))

    if blocks:
        synth = np.concatenate(blocks, axis=0)
        features = np.concatenate([dataset.features, synth], axis=0)
        labels = np.concatenate([
            dataset.labels,
            np.full(total_new, minority_label, dtype=np.int64),
        ])
    else:
        features = dataset.features.copy()
        labels = dataset.labels.copy()

    flags = np.zeros(len(labels), dtype=np.int64)
    flags[dataset.n_rows:] = 1
    balanced = Dataset(features, labels, dataset.feature_names)
    return SmoteResult(
        dataset=balanced,
        synthetic=flags,
        minority_label=minority_label,
        original_counts=(normal, botnet),
        counts=balanced.class_counts,
    )
