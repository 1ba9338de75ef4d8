"""Imbalance-aware evaluation: confusion counts, threshold metrics, ROC
curves, stratified splitting, and k-fold cross-validation.

Botnet (label 1) is the positive class everywhere. Ratio metrics with a
zero denominator report 0 and carry a degenerate flag rather than raising,
so extreme class skews still produce a full report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import numpy as np

from .classifiers import (fit_model, labels_from_scores, model_kind,
                          score_batch, tie_rule)
from .errors import EvaluationError
from .flows import Dataset, _write_json
from .preprocess import apply_scaler, fit_scaler
from .smote import SmoteConfig, smote
from .synth import round_half_up

METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "roc_auc")


def percent(value: float) -> str:
    """value*100 to one decimal place, ties rounded half-even."""
    scaled = Decimal(repr(float(value) * 100.0))
    return str(scaled.quantize(Decimal("0.1"), rounding=ROUND_HALF_EVEN))


# ---------------------------------------------------------------------------
# Confusion matrix and threshold metrics


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def from_labels(cls, y_true: np.ndarray, y_pred: np.ndarray) -> "ConfusionMatrix":
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        if y_true.shape != y_pred.shape or y_true.ndim != 1:
            raise EvaluationError("label vectors must be 1-d and equally long")
        return cls(
            tp=int(np.sum((y_true == 1) & (y_pred == 1))),
            fp=int(np.sum((y_true == 0) & (y_pred == 1))),
            tn=int(np.sum((y_true == 0) & (y_pred == 0))),
            fn=int(np.sum((y_true == 1) & (y_pred == 0))),
        )


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_auc: float
    degenerate: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def metrics_from(cm: ConfusionMatrix, scores: np.ndarray,
                 y_true: np.ndarray) -> Metrics:
    """All five metrics for one evaluation.

    cm must describe the same rows as (scores, y_true); the AUC comes from
    the score ranking, the other four from the confusion counts.
    """
    return _metrics_and_curve(cm, scores, y_true)[0]


def _metrics_and_curve(cm: ConfusionMatrix, scores: np.ndarray,
                       y_true: np.ndarray) -> tuple[Metrics, RocCurve]:
    """metrics_from's metrics and the ROC curve their AUC comes from."""
    y_true = np.asarray(y_true, dtype=np.int64)
    if cm.total != len(y_true) or len(scores) != len(y_true):
        raise EvaluationError("confusion matrix does not match the score vectors")
    if cm.tp + cm.fn != int(np.sum(y_true == 1)):
        raise EvaluationError("confusion matrix positives disagree with labels")
    degenerate: list[str] = []
    if cm.total == 0:
        raise EvaluationError("cannot compute metrics over zero rows")
    accuracy = (cm.tp + cm.tn) / cm.total
    if cm.tp + cm.fp == 0:
        precision = 0.0
        degenerate.append("precision")
    else:
        precision = cm.tp / (cm.tp + cm.fp)
    if cm.tp + cm.fn == 0:
        recall = 0.0
        degenerate.append("recall")
    else:
        recall = cm.tp / (cm.tp + cm.fn)
    if precision + recall == 0.0:
        f1 = 0.0
        degenerate.append("f1")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    curve = roc_curve(scores, y_true)
    return Metrics(accuracy=accuracy, precision=precision, recall=recall,
                   f1=f1, roc_auc=curve.auc, degenerate=tuple(degenerate)), curve


# ---------------------------------------------------------------------------
# ROC


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Threshold-sweep ROC. The points (fpr[i], tpr[i]) run from (0, 0) to
    (1, 1); a prediction is positive when its score >= the threshold for
    that point. fpr and tpr are read-only float64 copies of the inputs."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    def __post_init__(self) -> None:
        for name in ("fpr", "tpr"):
            values = np.array(getattr(self, name), dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def __reduce__(self):
        # through __init__, so an unpickled curve is read-only as well
        return type(self), (self.fpr, self.tpr, self.auc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RocCurve):
            return NotImplemented
        return (self.auc == other.auc and np.array_equal(self.fpr, other.fpr)
                and np.array_equal(self.tpr, other.tpr))

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.fpr.tolist(), self.tpr.tolist()))

    def to_file(self, path: str) -> None:
        """Two-column numeric file: fpr <tab> tpr, one point per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{fpr!r}\t{tpr!r}\n" for fpr, tpr
                          in zip(self.fpr.tolist(), self.tpr.tolist()))


def roc_curve(scores: np.ndarray, y_true: np.ndarray) -> RocCurve:
    """Sweep thresholds over the distinct score values, descending.

    Tied scores move together (one curve point per distinct value). The
    AUC is the trapezoid area, which equals the probability a random
    positive outscores a random negative, counting ties half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.int64)
    if scores.shape != y_true.shape or scores.ndim != 1:
        raise EvaluationError("scores and labels must be 1-d and equally long")
    pos = int(np.sum(y_true == 1))
    neg = len(y_true) - pos
    if pos == 0 or neg == 0:
        raise EvaluationError(
            f"ROC needs both classes in the truth labels, got {pos} positive "
            f"and {neg} negative rows")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = y_true[order]
    # close each group of tied scores at its last occurrence
    boundary = np.flatnonzero(np.diff(sorted_scores) != 0)
    ends = np.append(boundary, len(scores) - 1)
    cum_tp = np.cumsum(sorted_labels)
    cum_fp = np.cumsum(1 - sorted_labels)
    tpr = np.concatenate([[0.0], cum_tp[ends] / pos])
    fpr = np.concatenate([[0.0], cum_fp[ends] / neg])
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) * 0.5))
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


# ---------------------------------------------------------------------------
# Splitting and folding


def split_indices(labels: np.ndarray, test_fraction: float, seed: int = 0,
                  stratified: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, test_idx), both ascending.

    |test| = round(n * test_fraction), half up, computed exactly. The
    stratified mode allocates the test quota over classes by largest
    remainder, keeping each class's test share within one row of
    proportional.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if not 0.0 < test_fraction < 1.0:
        raise EvaluationError(f"test fraction must be in (0, 1), got {test_fraction}")
    t = round_half_up(Fraction(test_fraction) * n)
    if t == 0 or t == n:
        raise EvaluationError(
            f"test fraction {test_fraction} leaves one side of the "
            f"{n}-row split empty")
    rng = np.random.default_rng(seed)
    if not stratified:
        perm = rng.permutation(n)
        test = np.sort(perm[:t])
        train = np.sort(perm[t:])
        return train, test

    class_idx = [np.flatnonzero(labels == c) for c in (0, 1)]
    quotas = [Fraction(test_fraction) * len(ci) for ci in class_idx]
    base = [int(q) for q in quotas]  # floor of a non-negative Fraction
    shortfall = t - sum(base)
    remainders = sorted(
        range(2),
        key=lambda c: (quotas[c] - base[c], len(class_idx[c]), -c),
        reverse=True,
    )
    counts = list(base)
    for c in remainders:
        if shortfall <= 0:
            break
        room = len(class_idx[c]) - counts[c]
        add = min(room, shortfall)
        counts[c] += add
        shortfall -= add
    test_parts = []
    for c in (0, 1):
        perm = rng.permutation(len(class_idx[c]))
        test_parts.append(class_idx[c][perm[:counts[c]]])
    test = np.sort(np.concatenate(test_parts))
    mask = np.ones(n, dtype=bool)
    mask[test] = False
    return np.flatnonzero(mask), test


def train_test_split(dataset: Dataset, test_fraction: float = 0.2,
                     seed: int = 0, stratified: bool = True
                     ) -> tuple[Dataset, Dataset]:
    train_idx, test_idx = split_indices(dataset.labels, test_fraction,
                                        seed, stratified)
    return dataset.take(train_idx), dataset.take(test_idx)


def make_folds(labels: np.ndarray, k: int, seed: int = 0,
               stratified: bool = True) -> list[np.ndarray]:
    """Partition row indices into k folds (each returned ascending).

    Fold sizes differ by at most one. In stratified mode each class is
    dealt round-robin, so every fold's class counts are within one row of
    the class total divided by k.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if k < 2:
        raise EvaluationError(f"k must be >= 2, got {k}")
    if k > n:
        raise EvaluationError(f"cannot make {k} folds from {n} rows")
    rng = np.random.default_rng(seed)
    if stratified:
        parts = []
        for c in (0, 1):
            ci = np.flatnonzero(labels == c)
            parts.append(ci[rng.permutation(len(ci))])
        sequence = np.concatenate(parts)
    else:
        sequence = rng.permutation(n)
    return [np.sort(sequence[f::k]) for f in range(k)]


# ---------------------------------------------------------------------------
# Cross-validation


@dataclass(frozen=True)
class CvResult:
    model: str
    k: int
    seed: int
    fold_sizes: tuple[int, ...]
    fold_metrics: tuple[Metrics, ...]
    mean: dict[str, float]
    std: dict[str, float]

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "k": self.k,
            "seed": self.seed,
            "fold_sizes": list(self.fold_sizes),
            "folds": [dataclasses.asdict(m) | {"degenerate": list(m.degenerate)}
                      for m in self.fold_metrics],
            "mean": self.mean,
            "std": self.std,
        }


def cross_validate(dataset: Dataset, model_name: str, k: int = 5,
                   seed: int = 0, *, params: dict | None = None,
                   stratified: bool = True, mode: str = "default",
                   scale: bool = True,
                   smote_config: SmoteConfig | None = None) -> CvResult:
    """k-fold cross-validation of one model.

    In default mode each fold fits its own scaler on the training part and
    (when smote_config is given) balances only that training part, so no
    information crosses the fold boundary. In paper mode the dataset is
    taken as already globally preprocessed and folds are used as-is.
    Per-metric mean and std are across folds (population std, divide by k).
    """
    folds = make_folds(dataset.labels, k, seed, stratified)
    results: list[Metrics] = []
    for f, test_idx in enumerate(folds):
        mask = np.ones(dataset.n_rows, dtype=bool)
        mask[test_idx] = False
        train = dataset.take(np.flatnonzero(mask))
        test = dataset.take(test_idx)
        for side, name in ((train, "training"), (test, "test")):
            counts = side.class_counts
            if counts[0] == 0 or counts[1] == 0:
                raise EvaluationError(
                    f"fold {f}: {name} part has a single class "
                    f"(counts {counts}); use stratified folds and a k no "
                    f"larger than the smaller class")
        if mode == "default":
            if scale:
                scaler = fit_scaler(train)
                train = apply_scaler(train, scaler)
                test = apply_scaler(test, scaler)
            if smote_config is not None:
                train = smote(train, smote_config, seed=seed + f).dataset
        model = fit_model(model_name, train, params)
        scores = score_batch(model, test)
        preds = labels_from_scores(model, test.features, scores)
        cm = ConfusionMatrix.from_labels(test.labels, preds)
        results.append(metrics_from(cm, scores, test.labels))

    mean = {name: float(np.mean([getattr(m, name) for m in results]))
            for name in METRIC_NAMES}
    std = {name: float(np.std([getattr(m, name) for m in results]))
           for name in METRIC_NAMES}
    return CvResult(
        model=model_name,
        k=k,
        seed=seed,
        fold_sizes=tuple(len(fi) for fi in folds),
        fold_metrics=tuple(results),
        mean=mean,
        std=std,
    )


# ---------------------------------------------------------------------------
# Single-evaluation report


@dataclass(frozen=True)
class EvalReport:
    model: str
    confusion: ConfusionMatrix
    metrics: Metrics
    curve: RocCurve
    test_counts: tuple[int, int]
    threshold: float = 0.5
    cv: CvResult | None = None
    # how a score of exactly the threshold is labelled when the model
    # overrides the threshold there (even-k KNN); None otherwise
    tie_rule: str | None = None

    def to_text(self) -> str:
        lines = [
            f"model: {self.model}",
            f"test rows: {self.confusion.total} "
            f"(normal {self.test_counts[0]}, botnet {self.test_counts[1]})",
            f"decision threshold: score >= {self.threshold}",
            *([f"tie rule: {self.tie_rule}"] if self.tie_rule else []),
            "confusion matrix (positive = botnet):",
            f"  tp {self.confusion.tp}  fn {self.confusion.fn}",
            f"  fp {self.confusion.fp}  tn {self.confusion.tn}",
            "metrics (percent):",
        ]
        for name in METRIC_NAMES:
            lines.append(f"  {name:<10} {percent(getattr(self.metrics, name))}")
        flagged = ", ".join(self.metrics.degenerate) or "none"
        lines.append(f"degenerate (zero denominator, reported as 0): {flagged}")
        if self.cv is not None:
            lines.append(f"cross-validation (k={self.cv.k}, percent, mean +/- std):")
            for name in METRIC_NAMES:
                lines.append(
                    f"  {name:<10} {percent(self.cv.mean[name])} "
                    f"+/- {percent(self.cv.std[name])}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        payload = {
            "model": self.model,
            "threshold": self.threshold,
            "test_counts": {"normal": self.test_counts[0],
                            "botnet": self.test_counts[1]},
            "confusion": dataclasses.asdict(self.confusion),
            "metrics": self.metrics.as_dict(),
            "degenerate": list(self.metrics.degenerate),
            "cv": self.cv.as_dict() if self.cv is not None else None,
        }
        if self.tie_rule:
            payload["tie_rule"] = self.tie_rule
        return payload

    def write_files(self, base: str) -> None:
        """The report as base_report.txt, base_metrics.json and base_roc.tsv."""
        with open(f"{base}_report.txt", "w", encoding="utf-8") as fh:
            fh.write(self.to_text())
        _write_json(f"{base}_metrics.json", self.to_json_dict())
        self.curve.to_file(f"{base}_roc.tsv")


def evaluate_model(model, test: Dataset, model_name: str | None = None,
                   cv: CvResult | None = None) -> EvalReport:
    """Score a fitted model on a test dataset and assemble the report."""
    scores = score_batch(model, test)
    preds = labels_from_scores(model, test.features, scores)
    cm = ConfusionMatrix.from_labels(test.labels, preds)
    metrics, curve = _metrics_and_curve(cm, scores, test.labels)
    return EvalReport(model=model_name or model_kind(model), confusion=cm,
                      metrics=metrics, curve=curve,
                      test_counts=test.class_counts, cv=cv,
                      tie_rule=tie_rule(model))
