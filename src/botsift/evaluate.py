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
from typing import Callable

import numpy as np

from .classifiers import (THRESHOLD, _features_for, _seeded, check_params, fit_model,
                          labels_from_scores, model_kind, score_batch, tie_rule)
from ._pool import fork_map
from .errors import BotsiftError, EvaluationError, TrainingError
from .flows import Dataset, _counts_json, _write_json
from .preprocess import apply_scaler, fit_scaler
from .smote import SmoteConfig, smote, smote_counts
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


def roc_classes(y_true: np.ndarray) -> tuple[int, int]:
    """(positive, negative) counts of truth labels y_true; ROC needs both."""
    pos = int(np.sum(np.asarray(y_true) == 1))
    if not 0 < pos < len(y_true):
        raise EvaluationError(
            f"ROC needs both classes in the truth labels, got {pos} positive "
            f"and {len(y_true) - pos} negative rows")
    return pos, len(y_true) - pos


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
    pos, neg = roc_classes(y_true)
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


def split_indices(labels: np.ndarray, test_fraction: float,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, test_idx), both ascending and stratified.

    |test| = round(n * test_fraction), half up, computed exactly. The test
    quota is allocated over classes by largest remainder, keeping each
    class's test share within one row of proportional.
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
    class_idx = [np.flatnonzero(labels == c) for c in (0, 1)]
    quotas = [Fraction(test_fraction) * len(ci) for ci in class_idx]
    counts = [int(q) for q in quotas]  # floor of a non-negative Fraction
    # the t - sum(counts) rows left over (at most one per class) go to the
    # largest remainders first
    remainders = sorted(
        range(2),
        key=lambda c: (quotas[c] - counts[c], len(class_idx[c]), -c),
        reverse=True,
    )
    for c in remainders[:t - sum(counts)]:
        counts[c] += 1
    test = np.sort(np.concatenate([ci[rng.permutation(len(ci))[:m]]
                                   for ci, m in zip(class_idx, counts)]))
    mask = np.ones(n, dtype=bool)
    mask[test] = False
    return np.flatnonzero(mask), test


def train_test_split(dataset: Dataset, test_fraction: float = 0.2,
                     seed: int = 0) -> tuple[Dataset, Dataset]:
    train_idx, test_idx = split_indices(dataset.labels, test_fraction, seed)
    return dataset.take(train_idx), dataset.take(test_idx)


def make_folds(labels: np.ndarray, k: int, seed: int = 0) -> list[np.ndarray]:
    """Partition row indices into k stratified folds (each returned
    ascending).

    Fold sizes differ by at most one. Each class is dealt round-robin, so
    every fold's class counts are within one row of the class total
    divided by k.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if k < 2:
        raise EvaluationError(f"k must be >= 2, got {k}")
    if k > n:
        raise EvaluationError(f"cannot make {k} folds from {n} rows")
    rng = np.random.default_rng(seed)
    class_idx = [np.flatnonzero(labels == c) for c in (0, 1)]
    sequence = np.concatenate([ci[rng.permutation(len(ci))] for ci in class_idx])
    return [np.sort(sequence[f::k]) for f in range(k)]


# ---------------------------------------------------------------------------
# Cross-validation


def fold_error(f: int | None, error: type = TrainingError) -> Callable[[str], Exception]:
    """error's constructor for a fault of fold f: its text is prefixed
    "fold f: ", or left as it is when f is None (a whole training set)."""
    return lambda text: error(text if f is None else f"fold {f}: {text}")


def fold_counts(dataset: Dataset, folds: list[np.ndarray], f: int,
                smote_config: SmoteConfig | None = None) -> tuple[int, int]:
    """Fold f's training-part (normal, botnet) counts as fold_sets gives it,
    balanced by smote_config, or the fault fold_sets (or its smote) raises."""
    test = np.bincount(dataset.labels[folds[f]], minlength=2)
    train = tuple((np.bincount(dataset.labels, minlength=2) - test).tolist())
    for counts, name in ((train, "training"), (tuple(test.tolist()), "test")):
        if 0 in counts:
            raise fold_error(f, EvaluationError)(
                f"{name} part has a single class (counts {counts}); "
                "use a k no larger than the smaller class")
    return train if smote_config is None else smote_counts(train, smote_config)


def fold_sets(dataset: Dataset, folds: list[np.ndarray], f: int, seed: int, *,
              scale: bool, smote_config: SmoteConfig | None) -> tuple[Dataset, Dataset]:
    """Fold f's (training, test) parts of dataset, ready to fit and score.

    The test part is folds[f] and the training part every other row; each
    must hold both classes. The training part is prepared on its own, so
    no information crosses the fold boundary: with scale, it fits the
    scaler that both parts are scaled by, and with smote_config, it alone
    is balanced, seeded seed + f. With neither, as for a dataset already
    globally preprocessed, the parts are used as they are.
    """
    fold_counts(dataset, folds, f, smote_config)
    mask = np.ones(dataset.n_rows, dtype=bool)
    mask[folds[f]] = False
    train, test = dataset.take(np.flatnonzero(mask)), dataset.take(folds[f])
    if scale:
        scaler = fit_scaler(train)
        train, test = apply_scaler(train, scaler), apply_scaler(test, scaler)
    if smote_config is not None:
        train = smote(train, smote_config, seed=seed + f).dataset
    return train, test


@dataclass(frozen=True)
class CvResult:
    model: str
    k: int
    seed: int
    fold_sizes: tuple[int, ...]
    fold_metrics: tuple[Metrics, ...]
    mean: dict[str, float]
    std: dict[str, float]

    @classmethod
    def from_folds(cls, model: str, seed: int, folds: list[np.ndarray],
                   metrics: list[Metrics]) -> "CvResult":
        """The result of model scoring metrics on folds, in fold order.
        Per-metric mean and std are across folds (population std, divide
        by k)."""
        columns = {name: [getattr(m, name) for m in metrics] for name in METRIC_NAMES}
        return cls(model=model, k=len(folds), seed=seed,
                   fold_sizes=tuple(len(fold) for fold in folds),
                   fold_metrics=tuple(metrics),
                   mean={name: float(np.mean(v)) for name, v in columns.items()},
                   std={name: float(np.std(v)) for name, v in columns.items()})

    def metric_lines(self) -> list[str]:
        """Each metric's '  name mean +/- std' line, in percent."""
        return [f"  {name:<10} {percent(self.mean[name])} +/- {percent(self.std[name])}"
                for name in METRIC_NAMES]

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


def _labelled(step: str, call: Callable, *args, **kwargs):
    """call(*args, **kwargs), a toolkit error it raises given step as its stage."""
    try:
        return call(*args, **kwargs)
    except BotsiftError as exc:
        exc.stage = step
        raise


def run_fold_jobs(jobs: list, cv_sets: dict, full_sets: dict, seed: int, *,
                  scale: bool, save: Callable | None = None) -> dict[tuple, list]:
    """{(arm, name): its results in job order} of jobs (arm, f, models), run
    through fork_map once every job's size rules hold, asked in job order.
    A job fits and scores each (name, params) of models on fold f of
    cv_sets[arm] (fold_sets' dataset, folds and smote_config; seeded seed,
    scaled when scale), giving Metrics, or where f is None on full_sets[arm],
    the arm's (training, test) sets, giving an EvalReport and handing the
    model to save(arm, name, model) in the process that fitted it. A toolkit
    error leaves with its stage set to the step that raised it:
    cross_validate[arm/fold f] or cross_validate[arm/name] on a fold,
    train[arm/name] or evaluate[arm/name] on the whole sets."""
    for arm, f, models in jobs:
        phase = "train" if f is None else "cross_validate"
        counts = (full_sets[arm][0].class_counts if f is None else _labelled(
            f"cross_validate[{arm}/fold {f}]", fold_counts, f=f, **cv_sets[arm]))
        for name, params in models:
            _labelled(f"{phase}[{arm}/{name}]", check_params, name, params,
                      fold_error(f), counts)
            if f is None:
                _labelled(f"evaluate[{arm}/{name}]", roc_classes, full_sets[arm][1].labels)

    def run_job(job) -> list:
        arm, f, models = job
        phase = "train" if f is None else "cross_validate"
        train, test = full_sets[arm] if f is None else _labelled(
            f"cross_validate[{arm}/fold {f}]", fold_sets, f=f, seed=seed, scale=scale,
            **cv_sets[arm])
        scored = []
        for name, params in models:
            model = _labelled(f"{phase}[{arm}/{name}]", fit_model, name, train, params)
            if f is None and save is not None:
                save(arm, name, model)
            report = _labelled(f"{'evaluate' if f is None else phase}[{arm}/{name}]",
                               evaluate_model, model, test, model_name=name)
            scored.append(report if f is None else report.metrics)
        return scored

    results: dict[tuple, list] = {}
    for (arm, _, models), scored in zip(jobs, fork_map(run_job, jobs)):
        for (name, _), result in zip(models, scored):
            results.setdefault((arm, name), []).append(result)
    return results


def cross_validate(dataset: Dataset, model_name: str, k: int = 5,
                   seed: int = 0, *, params: dict | None = None,
                   scale: bool = True,
                   smote_config: SmoteConfig | None = None) -> CvResult:
    """k-fold cross-validation of one model, its folds fitted on both cores:
    once every fold's and fit's rule holds, each fold's parts come from
    fold_sets, and the model (seeded seed unless params set its seed) is
    fitted and scored on them."""
    params = _seeded(model_name, params, seed)
    check_params(model_name, params)
    folds = make_folds(dataset.labels, k, seed)
    arm = "raw" if smote_config is None else "smote"
    cv_sets = {arm: dict(dataset=dataset, folds=folds, smote_config=smote_config)}
    jobs = [(arm, f, ((model_name, params),)) for f in range(k)]
    metrics = run_fold_jobs(jobs, cv_sets, {}, seed, scale=scale)[(arm, model_name)]
    return CvResult.from_folds(model_name, seed, folds, metrics)


# ---------------------------------------------------------------------------
# Single-evaluation report


@dataclass(frozen=True)
class EvalReport:
    model: str
    confusion: ConfusionMatrix
    metrics: Metrics
    curve: RocCurve
    test_counts: tuple[int, int]
    cv: CvResult | None = None
    # how a score of exactly the threshold is labelled when the model
    # overrides the threshold there (even-k KNN); None otherwise
    tie_rule: str | None = None

    def to_text(self) -> str:
        lines = [
            f"model: {self.model}",
            f"test rows: {self.confusion.total} "
            f"(normal {self.test_counts[0]}, botnet {self.test_counts[1]})",
            f"decision threshold: score >= {THRESHOLD}",
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
            lines += self.cv.metric_lines()
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        payload = {
            "model": self.model,
            "threshold": THRESHOLD,
            "test_counts": _counts_json(self.test_counts),
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


def evaluate_model(model, test: Dataset, model_name: str | None = None) -> EvalReport:
    """Score a fitted model on a test dataset and assemble the report."""
    X = _features_for(model, test)
    scores = score_batch(model, X)
    preds = labels_from_scores(model, X, scores)
    cm = ConfusionMatrix.from_labels(test.labels, preds)
    metrics, curve = _metrics_and_curve(cm, scores, test.labels)
    return EvalReport(model=model_name or model_kind(model), confusion=cm,
                      metrics=metrics, curve=curve,
                      test_counts=test.class_counts,
                      tie_rule=tie_rule(model))
