"""Chi-square feature scoring and mean-threshold selection.

Each feature is scored by a chi-square statistic over per-class value
sums: the observed quantity for class c is the feature total over class-c
rows, the expected quantity is the class row-fraction times the grand
total, and the score is sum((observed - expected)^2 / expected). Features
scoring strictly above the mean score are selected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeatureScoreError
from .flows import Dataset, _write_json


@dataclass(frozen=True)
class FeatureScoreReport:
    """Scores and the mean-threshold selection derived from them."""

    feature_names: tuple[str, ...]
    scores: np.ndarray
    mean_score: float
    selected: tuple[str, ...]
    ranked_names: tuple[str, ...]

    def to_table(self, path: str) -> None:
        """Two-column text table (name, score), descending by score."""
        order = {name: i for i, name in enumerate(self.feature_names)}
        with open(path, "w", encoding="utf-8") as fh:
            for name in self.ranked_names:
                fh.write(f"{name}\t{float(self.scores[order[name]])!r}\n")

    def to_json(self, path: str) -> None:
        payload = {
            "scores": {n: float(s) for n, s in zip(self.feature_names, self.scores)},
            "mean_score": self.mean_score,
            "selected": list(self.selected),
            "ranked": list(self.ranked_names),
        }
        _write_json(path, payload)


def chi2_scores(dataset: Dataset) -> FeatureScoreReport:
    """Score every feature column against the binary label.

    Requires non-negative feature values (run after min-max scaling or on
    raw counts) and both classes present. A constant column, including the
    all-zero column, scores exactly 0.
    """
    X, y = dataset.features, dataset.labels
    if X.size and X.min() < 0:
        raise FeatureScoreError(
            "chi-square scoring requires non-negative feature values")
    normal, botnet = dataset.class_counts
    if normal == 0 or botnet == 0:
        raise FeatureScoreError(
            f"both classes required for scoring, class counts are "
            f"({normal}, {botnet})")
    n = dataset.n_rows
    class_fracs = np.array([normal / n, botnet / n])
    masks = [y == 0, y == 1]

    scores = np.zeros(dataset.n_features, dtype=np.float64)
    for j in range(dataset.n_features):
        col = X[:, j]
        if col.max() == col.min():
            continue  # exactly label-independent
        observed = np.array([col[m].sum() for m in masks])
        total = observed.sum()
        if total == 0:
            continue
        expected = class_fracs * total
        scores[j] = float((((observed - expected) ** 2) / expected).sum())

    mean_score = float(scores.mean())
    selected = tuple(n_ for n_, s in zip(dataset.feature_names, scores)
                     if s > mean_score)
    rank = np.lexsort((np.arange(len(scores)), -scores))
    ranked = tuple(dataset.feature_names[i] for i in rank)
    scores.setflags(write=False)
    return FeatureScoreReport(
        feature_names=dataset.feature_names,
        scores=scores,
        mean_score=mean_score,
        selected=selected,
        ranked_names=ranked,
    )


def select_features(dataset: Dataset, report: FeatureScoreReport) -> Dataset:
    """Keep only the columns the report selected; rows and labels unchanged."""
    if report.feature_names != dataset.feature_names:
        raise FeatureScoreError(
            "report was computed on different feature columns")
    if not report.selected:
        raise FeatureScoreError(
            "no feature scored above the mean (all scores equal); "
            "selection would be empty")
    return dataset.with_columns(report.selected)
