"""Span recording for the traced benchmark run.

Nothing under ``src/`` is instrumented. Instead, for the length of one
traced iteration, the tracer replaces botsift's public functions where the
calling modules bind them:

- every public function in the globals of ``botsift.experiment``,
  ``botsift.evaluate`` and ``botsift.cli`` (what those modules define and
  what they import from other botsift modules), plus the ``cli`` handlers;
- ``botsift.smote.minority_neighbors``, which ``smote`` calls;
- ``RocCurve.to_file``.

A call through a wrapped binding records a span (name, start, end, parent,
run id) and, for some functions, exact counts computed from the call's
inputs and outputs. Spans stay in memory; the worker writes them out when
the run ends. ``layer_metrics`` turns spans and counts into the per-layer
metrics: self time (span time minus the time its child spans cover), a few
inclusive times, and the counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

PATCHED_MODULES = ("botsift.experiment", "botsift.evaluate", "botsift.cli")

# Self time of these spans (name without tag) feeds the named metric.
SELF_TIME_METRICS = {
    "synth.generate": "synth.generate_s",
    "flows.write_records_csv": "flows.write_records_csv_s",
    "flows.load_csv": "flows.load_csv_s",
    "flows.to_dataset": "flows.to_dataset_s",
    "flows.write_dataset_csv": "flows.write_dataset_csv_s",
    "flows.read_dataset_csv": "flows.read_dataset_csv_s",
    "flows.class_summary": "flows.class_summary_s",
    "preprocess.cleanse": "preprocess.cleanse_s",
    "preprocess.fit_encoding": "preprocess.encode_s",
    "preprocess.apply_encoding": "preprocess.encode_s",
    "preprocess.fit_scaler": "preprocess.scale_s",
    "preprocess.apply_scaler": "preprocess.scale_s",
    "features.chi2_scores": "features.chi2_s",
    "smote.smote": "smote.smote_s",
    "smote.minority_neighbors": "smote.neighbors_s",
    "classifiers.save_model": "classifiers.save_load_s",
    "classifiers.load_model": "classifiers.save_load_s",
    "evaluate.train_test_split": "evaluate.split_s",
    "evaluate.split_indices": "evaluate.split_s",
    "evaluate.cross_validate": "evaluate.cv_self_s",
    "evaluate.roc_curve": "evaluate.roc_s",
    "evaluate.RocCurve.to_file": "evaluate.roc_write_s",
}
MODEL_KINDS = ("gnb", "knn", "mlp")
CLI_COMMANDS = ("synth", "ingest", "profile-stats", "score-features", "smote",
                "train", "evaluate", "cross-validate")

TIME_METRICS = tuple(dict.fromkeys(
    list(SELF_TIME_METRICS.values())
    + [f"classifiers.fit_s.{m}" for m in MODEL_KINDS]
    + [f"classifiers.score_s.{m}" for m in MODEL_KINDS]
    + ["experiment.run_s", "experiment.self_s"]
    + [f"cli.{c.replace('-', '_')}_s" for c in CLI_COMMANDS]
    + ["cli.self_s"]))
BYTE_METRICS = ("flows.bytes_written", "flows.bytes_read",
                "experiment.bundle_bytes")
COUNT_METRICS = ("synth.rows_out", "preprocess.scale_calls",
                 "preprocess.rows_dropped", "features.selected_count",
                 "smote.calls", "smote.synthetic_rows",
                 "classifiers.rows_scored", "classifiers.knn_pairs",
                 "classifiers.mlp_row_epochs", "evaluate.cv_fold_preps",
                 "evaluate.roc_points")
COMPUTED_METRICS = BYTE_METRICS + COUNT_METRICS


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in TIME_METRICS}
    units.update({name: "bytes" for name in BYTE_METRICS})
    units.update({name: "count" for name in COUNT_METRICS})
    units["trace_overhead_frac"] = "ratio"
    return units


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def base(self) -> str:
        return self.name.split("[", 1)[0]

    @property
    def tag(self) -> str | None:
        return self.name[len(self.base) + 1:-1] if "[" in self.name else None

    def as_dict(self) -> dict:
        return asdict(self)


def _model_kind(model) -> str:
    return type(model).__name__.removesuffix("Model").lower()


def _tag(name: str, args: tuple) -> str | None:
    """Extra label for spans whose cost depends on an argument."""
    if name == "classifiers.fit_model":
        return str(args[0])
    if name == "classifiers.score_batch":
        return _model_kind(args[0])
    if name == "cli.main":
        return str(args[0][0])
    return None


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def _count(counts: Counter, name: str, args: tuple, result) -> None:
    """Exact counts taken from a call's inputs and outputs."""
    if name == "synth.generate":
        counts["synth.rows_out"] += len(result)
    elif name in ("flows.write_records_csv", "flows.write_dataset_csv"):
        counts["flows.bytes_written"] += os.path.getsize(args[1])
    elif name in ("flows.load_csv", "flows.read_dataset_csv"):
        counts["flows.bytes_read"] += os.path.getsize(args[0])
    elif name == "preprocess.cleanse":
        counts["preprocess.rows_dropped"] += len(args[0]) - len(result)
    elif name == "preprocess.fit_scaler":
        counts["preprocess.scale_calls"] += 1
    elif name == "features.chi2_scores":
        counts["features.selected_count"] += len(result.selected)
    elif name == "smote.smote":
        counts["smote.calls"] += 1
        counts["smote.synthetic_rows"] += int(result.synthetic.sum())
    elif name == "classifiers.fit_model":
        if args[0] == "mlp":
            counts["classifiers.mlp_row_epochs"] += (
                args[1].n_rows * result.config.epochs)
    elif name == "classifiers.score_batch":
        model, data = args[0], args[1]
        rows = data.n_rows if hasattr(data, "n_rows") else len(data)
        counts["classifiers.rows_scored"] += rows
        if _model_kind(model) == "knn":
            counts["classifiers.knn_pairs"] += rows * model.points.shape[0]
    elif name == "evaluate.roc_curve":
        counts["evaluate.roc_points"] += len(result.points)
    elif name == "experiment.run_experiment":
        counts["experiment.bundle_bytes"] += _dir_bytes(args[1])


def _positional(func, args: tuple, kwargs: dict) -> tuple:
    """The call's arguments in parameter order, keywords folded in."""
    if not kwargs:
        return args
    bound = inspect.signature(func).bind(*args, **kwargs)
    return tuple(bound.arguments.values())


class Tracer:
    """Records spans for one iteration of a workload.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name in PATCHED_MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value)
                        and value.__module__.startswith("botsift.")
                        and (not attr.startswith("_") or attr.startswith("_cmd_"))):
                    layer = value.__module__.rsplit(".", 1)[1]
                    self._patch(module, attr, f"{layer}.{value.__name__}")
        # botsift re-exports the function smote under the package, so the
        # submodule is fetched by its full name
        self._patch(importlib.import_module("botsift.smote"),
                    "minority_neighbors", "smote.minority_neighbors")
        self._patch(importlib.import_module("botsift.evaluate").RocCurve,
                    "to_file", "evaluate.RocCurve.to_file")
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            args_in = _positional(func, args, kwargs)
            tag = _tag(name, args_in)
            span_id = tracer._open()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span_id, f"{name}[{tag}]" if tag else name, start)
            _count(tracer.counts, name, args_in, result)
            return result

        return traced

    def _open(self) -> int:
        span_id = len(self.spans) + len(self._stack)
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(span_id, name, start, end, parent, self.run_id))


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get(span.id, ())
                   if min(e, span.end) > max(s, span.start)]
        out[span.id] = (span.end - span.start) - covered_length(clipped)
    return out


def _ancestors(span: Span, by_id: dict[int, Span]):
    parent = span.parent
    while parent is not None:
        yield by_id[parent]
        parent = by_id[parent].parent


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced iteration; absent layers read 0."""
    metrics: dict[str, float] = {name: 0.0 for name in TIME_METRICS}
    metrics.update({name: 0 for name in COMPUTED_METRICS})
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    for span in spans:
        base, tag, self_s = span.base, span.tag, own[span.id]
        if base in SELF_TIME_METRICS:
            metrics[SELF_TIME_METRICS[base]] += self_s
        elif base == "classifiers.fit_model" and tag in MODEL_KINDS:
            metrics[f"classifiers.fit_s.{tag}"] += self_s
        elif base == "classifiers.score_batch" and tag in MODEL_KINDS:
            metrics[f"classifiers.score_s.{tag}"] += self_s
        if span.layer in ("experiment", "cli"):
            metrics[f"{span.layer}.self_s"] += self_s
        if base == "experiment.run_experiment":
            metrics["experiment.run_s"] += span.end - span.start
        elif base == "cli.main" and tag in CLI_COMMANDS:
            metrics[f"cli.{tag.replace('-', '_')}_s"] += span.end - span.start
        if base in ("preprocess.fit_scaler", "smote.smote") and any(
                a.base == "evaluate.cross_validate"
                for a in _ancestors(span, by_id)):
            metrics["evaluate.cv_fold_preps"] += 1
    for name, value in counts.items():
        metrics[name] += value
    return metrics
