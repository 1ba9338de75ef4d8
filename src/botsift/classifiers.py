"""From-scratch classifiers: Gaussian naive Bayes, k-nearest-neighbour,
and a one-hidden-layer sigmoid MLP.

All three share one scoring convention: score(x) is the model's degree of
belief that x is botnet (label 1), in [0, 1]. labels_from_scores turns
scores into labels, and predict_batch and the evaluation reports go
through it: botnet when the score is at least 0.5, except that a KNN
model with even k gives a tied vote the label of the single nearest
training row. Models are frozen dataclasses over read-only arrays and
serialize to JSON, reloading bit-exactly.

One table, _KINDS, holds what differs between the kinds: the class, the
scorer, the array fields and their shapes, the checks a loaded model
must pass, and KNN's tie rule. Scoring, labelling, saving and loading
are each written once over it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import expit, logsumexp

from .errors import DivergenceError, LoadError, TrainingError
from .flows import Dataset, _finite, _read_json, _write_json

_LOG_2PI = float(np.log(2.0 * np.pi))


class _Model:
    """Base of the model dataclasses: every array field of the model's
    kind is held as a read-only float64 array."""

    def __post_init__(self) -> None:
        for name in _KINDS[model_kind(self)].arrays:
            a = np.asarray(getattr(self, name), dtype=np.float64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


# ---------------------------------------------------------------------------
# Gaussian naive Bayes


@dataclass(frozen=True)
class GnbModel(_Model):
    feature_names: tuple[str, ...]
    priors: np.ndarray      # class frequencies
    means: np.ndarray
    variances: np.ndarray   # already smoothed
    smoothing: float
    provenance: dict = field(default_factory=dict)


def gnb_fit(train: Dataset) -> GnbModel:
    """Fit per-class feature Gaussians with frequency priors.

    Variances are maximum-likelihood (divide by class count) plus a
    smoothing term of 1e-9 times the largest per-feature variance over the
    whole training set, so a within-class constant feature cannot produce
    a zero variance.
    """
    normal, botnet = train.class_counts
    if normal == 0 or botnet == 0:
        raise TrainingError(
            f"naive Bayes needs both classes, class counts are ({normal}, {botnet})")
    X, y = train.features, train.labels
    eps = 1e-9 * float(X.var(axis=0).max())
    if eps == 0.0:
        eps = 1e-12  # every feature constant over the whole set
    priors = np.array([normal, botnet], dtype=np.float64) / train.n_rows
    means = np.empty((2, train.n_features))
    variances = np.empty((2, train.n_features))
    for c in (0, 1):
        rows = X[y == c]
        means[c] = rows.mean(axis=0)
        variances[c] = rows.var(axis=0) + eps
    return GnbModel(feature_names=train.feature_names, priors=priors,
                    means=means, variances=variances, smoothing=eps)


def gnb_posteriors(model: GnbModel, X: np.ndarray) -> np.ndarray:
    """Class posteriors, shape (n, 2); each row sums to 1. The joint
    log(prior * likelihood) is normalized in log space."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    joint = np.empty((X.shape[0], 2))
    for c in (0, 1):
        var = model.variances[c]
        gap = X - model.means[c]
        log_like = -0.5 * (_LOG_2PI + np.log(var) + gap * gap / var).sum(axis=1)
        joint[:, c] = np.log(model.priors[c]) + log_like
    return np.exp(joint - logsumexp(joint, axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# k-nearest-neighbour


@dataclass(frozen=True)
class KnnModel(_Model):
    feature_names: tuple[str, ...]
    points: np.ndarray
    labels: np.ndarray
    k: int
    provenance: dict = field(default_factory=dict)
    # The k-d tree over points, built on first use and then kept, so the
    # tie rule's second query reuses the tree scoring built. It is not part
    # of the model's value: save_model and dataclasses.replace leave it out.
    _tree: object = field(default=None, init=False, repr=False, compare=False)

    def tree(self):
        if self._tree is None:
            # Deferred: importing scipy.spatial costs about 0.1 s and 11 MB,
            # which a process that never scores KNN should not pay.
            from scipy.spatial import cKDTree
            object.__setattr__(self, "_tree", cKDTree(self.points))
        return self._tree


def knn_fit(train: Dataset, k: int = 5) -> KnnModel:
    if k < 1:
        raise TrainingError(f"k must be >= 1, got {k}")
    if k > train.n_rows:
        raise TrainingError(f"k={k} exceeds the {train.n_rows} training rows")
    return KnnModel(feature_names=train.feature_names, points=train.features,
                    labels=train.labels, k=k)


def squared_distances(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances sum((q - p) ** 2) over the last axis.

    The leading axes of q and p broadcast against each other. Features are
    added one column at a time, left to right, so no temporary with a
    feature axis is built; below eight features this is bit-identical to
    np.sum((q - p) ** 2) on each pair. KNN and SMOTE both rank neighbours
    by this one definition.
    """
    out = np.zeros(np.broadcast_shapes(q.shape[:-1], p.shape[:-1]))
    for j in range(q.shape[-1]):
        out += (q[..., j] - p[..., j]) ** 2
    return out


def _rank(q: np.ndarray, points: np.ndarray, cand: np.ndarray):
    """Candidate indices and their squared distances to q, each row sorted
    by (distance, training index)."""
    d2 = squared_distances(q, points[cand])
    order = np.lexsort((cand, d2), axis=-1)
    return np.take_along_axis(d2, order, -1), np.take_along_axis(cand, order, -1)


# Relative slack on the k-th squared distance within which a further
# candidate may be tied with it. It absorbs the rounding difference between
# the k-d tree's own distance arithmetic and squared_distances.
_TIE_SLACK = 1e-9


def _knn_neighbors(model: KnnModel, X: np.ndarray) -> np.ndarray:
    """Training indices of each row's k nearest, shape (n, k), ordered by
    (squared distance, training index).

    Exact: a k-d tree proposes k + 1 candidates per row, which are ranked
    by squared_distances. A row whose (k+1)-th candidate lies within the
    tie slack of its k-th is ranked again over every training row in a
    ball of the k-th radius, so ties at the k-th rank admit the lower
    training index.
    """
    pts, k, tree = model.points, model.k, model.tree()
    m = min(k + 1, pts.shape[0])
    _, cand = tree.query(X, k=m)
    d2, cand = _rank(X[:, None, :], pts, cand.reshape(X.shape[0], m))
    nearest = cand[:, :k]
    if m > k:
        for i in np.flatnonzero(d2[:, k] <= d2[:, k - 1] * (1.0 + _TIE_SLACK)):
            radius = np.sqrt(d2[i, k - 1] * (1.0 + _TIE_SLACK))
            ball = np.asarray(tree.query_ball_point(X[i], radius), dtype=np.intp)
            nearest[i] = _rank(X[i], pts, ball)[1][:k]
    return nearest


# ---------------------------------------------------------------------------
# Multi-layer perceptron (one hidden layer, sigmoid activations)


@dataclass(frozen=True)
class MlpConfig:
    hidden: int = 16
    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def valid(self) -> bool:
        """Whether mlp_fit can train with this configuration."""
        return self.epochs >= 0 and self.batch_size >= 1 and self.hidden >= 1


@dataclass(frozen=True)
class MlpModel(_Model):
    feature_names: tuple[str, ...]
    w_in: np.ndarray
    b_in: np.ndarray
    w_out: np.ndarray
    b_out: float
    config: MlpConfig
    epoch_losses: tuple[float, ...] = ()
    provenance: dict = field(default_factory=dict)


def _param_views(flat: np.ndarray, feature_count: int, hidden: int):
    """w_in, b_in, w_out and b_out as views of one flat vector, in that
    order; b_out is a 0-d view of the last element."""
    split = np.cumsum([feature_count * hidden, hidden, hidden])
    w_in, b_in, w_out, b_out = np.split(flat, split)
    return w_in.reshape(feature_count, hidden), b_in, w_out, b_out.reshape(())


def _init_params(rng: np.random.Generator, feature_count: int,
                 hidden: int) -> np.ndarray:
    """Flat w_in, b_in, w_out and b_out drawn uniform on [-0.5, 0.5)."""
    return rng.uniform(-0.5, 0.5, feature_count * hidden + 2 * hidden + 1)


def _forward(X, w_in, b_in, w_out, b_out, a1, z2) -> None:
    """Hidden activations of rows X into a1, shape (n, hidden), and output
    pre-activations into z2, shape (n,)."""
    np.dot(X, w_in, out=a1)
    a1 += b_in
    expit(a1, out=a1)
    np.dot(a1, w_out, out=z2)
    z2 += b_out


class _Buffers:
    """Arrays one forward and backward pass writes for up to `rows` rows:
    the hidden activations, the output and hidden deltas, and the sigmoid
    slope."""

    def __init__(self, rows: int, hidden: int):
        self.a1 = np.empty((rows, hidden))
        self.delta2 = np.empty(rows)
        self.delta1 = np.empty((rows, hidden))
        self.slope = np.empty((rows, hidden))


def _backward(X, y, w_out, z2, buf: _Buffers, grads) -> None:
    """Gradients of the mean binary cross-entropy over rows X with labels
    y, given the forward pass's buf.a1 and z2, into the views grads of
    (w_in, b_in, w_out, b_out)."""
    g_w_in, g_b_in, g_w_out, g_b_out = grads
    a1, delta2, delta1, slope = buf.a1, buf.delta2, buf.delta1, buf.slope
    expit(z2, out=delta2)
    delta2 -= y
    delta2 /= X.shape[0]
    np.dot(a1.T, delta2, out=g_w_out)
    np.add.reduce(delta2, out=g_b_out)
    np.multiply.outer(delta2, w_out, out=delta1)
    delta1 *= a1
    np.subtract(1.0, a1, out=slope)
    delta1 *= slope
    np.dot(X.T, delta1, out=g_w_in)
    np.add.reduce(delta1, axis=0, out=g_b_in)


def mlp_loss_and_grads(model: MlpModel, X: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy over the batch and its exact gradients.

    Loss uses the softplus identity bce = softplus(z) - y*z on the output
    pre-activation, which stays finite for any finite z. The forward and
    backward passes are the ones mlp_fit steps through.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    (n, d), hidden = X.shape, model.w_in.shape[1]
    buf, z2 = _Buffers(n, hidden), np.empty(n)
    _forward(X, model.w_in, model.b_in, model.w_out, model.b_out, buf.a1, z2)
    loss = float(np.mean(np.logaddexp(0.0, z2) - y * z2))
    grads = _param_views(np.empty(d * hidden + 2 * hidden + 1), d, hidden)
    _backward(X, y, model.w_out, z2, buf, grads)
    return loss, {"w_in": grads[0], "b_in": grads[1], "w_out": grads[2],
                  "b_out": float(grads[3])}


def mlp_init(feature_count: int, config: MlpConfig,
             feature_names: tuple[str, ...] | None = None) -> MlpModel:
    """Seeded uniform [-0.5, 0.5] initialization (weights and biases)."""
    flat = _init_params(np.random.default_rng(config.seed), feature_count,
                        config.hidden)
    names = feature_names or tuple(f"f{i}" for i in range(feature_count))
    return _mlp_model(names, flat, feature_count, config)


def _mlp_model(names: tuple[str, ...], flat: np.ndarray, feature_count: int,
               config: MlpConfig, losses: tuple[float, ...] = ()) -> MlpModel:
    """A model over a copy of the flat parameter vector."""
    w_in, b_in, w_out, b_out = _param_views(flat.copy(), feature_count,
                                            config.hidden)
    return MlpModel(names, w_in, b_in, w_out, float(b_out), config, losses)


# Batches gathered at a time by mlp_fit, so its buffers hold at most
# _BLOCK_BATCHES * batch_size rows however large the training set is.
_BLOCK_BATCHES = 64


def mlp_fit(train: Dataset, config: MlpConfig = MlpConfig()) -> MlpModel:
    """Mini-batch gradient descent on mean binary cross-entropy.

    The initial weights are mlp_init's draws, and the same generator then
    reshuffles the rows every epoch. An epoch walks the shuffled rows in
    blocks of _BLOCK_BATCHES batches; a ragged last batch is a block of
    its own. A block's rows and labels are gathered into preallocated
    buffers and its batches are views of them. Every step runs the forward
    and backward pass of mlp_loss_and_grads into preallocated buffers and
    updates the weights, held in one flat vector, in place. Each step also
    leaves its output pre-activations in a block buffer; the batch losses
    are computed from it once per block and added to the epoch total in
    batch order. Weights and losses are bit-identical to stepping through
    one freshly allocated batch at a time, and the extra memory is
    O(block), not O(rows).

    The recorded per-epoch loss is the size-weighted mean of the batch
    losses seen during that epoch. A non-finite epoch loss aborts training
    with a divergence error naming the epoch (1-based).
    """
    if not config.valid():
        raise TrainingError(f"invalid MLP configuration: {config}")
    X, y = train.features, np.asarray(train.labels, dtype=np.float64)
    n, d, hidden = train.n_rows, train.n_features, config.hidden
    if n == 0:
        raise TrainingError("cannot train on an empty dataset")
    rng = np.random.default_rng(config.seed)
    params = _init_params(rng, d, hidden)
    w_in, b_in, w_out, b_out = _param_views(params, d, hidden)
    step = np.empty_like(params)
    grads = _param_views(step, d, hidden)
    lr, batch = config.learning_rate, config.batch_size

    # (start, stop, batch rows) of each block; full = rows in whole batches
    full = n - n % batch
    blocks = [(start, min(start + _BLOCK_BATCHES * batch, full), batch)
              for start in range(0, full, _BLOCK_BATCHES * batch)]
    if full < n:
        blocks.append((full, n, n - full))
    block_rows = max(stop - start for start, stop, _ in blocks)
    X_block, y_block, z_block = (np.empty((block_rows, d)), np.empty(block_rows),
                                 np.empty(block_rows))
    buffers = {rows: _Buffers(rows, hidden) for _, _, rows in blocks}

    losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start, stop, rows in blocks:
            m = stop - start
            # the indices are a permutation, so mode="clip" changes none of
            # them; it spares the buffered copy mode="raise" makes with out=
            Xs = np.take(X, order[start:stop], axis=0, out=X_block[:m], mode="clip")
            ys = np.take(y, order[start:stop], out=y_block[:m], mode="clip")
            zs = z_block[:m]
            buf = buffers[rows]
            for Xb, yb, zb in zip(Xs.reshape(-1, rows, d), ys.reshape(-1, rows),
                                  zs.reshape(-1, rows)):
                _forward(Xb, w_in, b_in, w_out, b_out, buf.a1, zb)
                _backward(Xb, yb, w_out, zb, buf, grads)
                step *= lr
                params -= step
            terms = np.logaddexp(0.0, zs) - ys * zs
            for batch_loss in terms.reshape(-1, rows).sum(axis=1).tolist():
                total += batch_loss
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise DivergenceError(epoch)
        losses.append(epoch_loss)

    return _mlp_model(train.feature_names, params, d, config, tuple(losses))


def _mlp_scores(model: MlpModel, X: np.ndarray) -> np.ndarray:
    a1, z2 = np.empty((X.shape[0], model.w_in.shape[1])), np.empty(X.shape[0])
    _forward(X, model.w_in, model.b_in, model.w_out, model.b_out, a1, z2)
    return expit(z2, out=z2)


# ---------------------------------------------------------------------------
# The model table


def _bad(key: str, why: str) -> LoadError:
    return LoadError(f"key {key!r} {why}")


_POSITIVE = (lambda a, dims: (a > 0).all(), "holds a value <= 0")

Model = GnbModel | KnnModel | MlpModel


@dataclass(frozen=True)
class _Kind:
    """What one model kind brings to the shared surface.

    arrays maps each array field to its shape, written with 2, d (the
    feature count), n (training rows) and h (hidden units). rules maps a
    field to a test of a loaded value, given those sizes, and the message
    for a value that fails it. tie_rule and tie_labels are KNN's even-k
    rule: the rule's text, or None when the threshold alone decides, and
    the labels of the rows X that scored exactly 0.5.
    """
    cls: type
    score: Callable[[Model, np.ndarray], np.ndarray]
    arrays: dict[str, tuple]
    rules: dict[str, tuple[Callable[[object, dict], bool], str]]
    tie_rule: Callable[[Model], str | None] = lambda model: None
    tie_labels: Callable[[Model, np.ndarray], np.ndarray] | None = None


_KINDS = {
    # GNB scores the botnet posterior
    "gnb": _Kind(GnbModel, lambda m, X: gnb_posteriors(m, X)[:, 1],
                 {"priors": (2,), "means": (2, "d"), "variances": (2, "d")},
                 {"priors": _POSITIVE, "variances": _POSITIVE}),
    # KNN scores the botnet share of the k nearest training rows; with
    # even k, a tied vote takes the label of the nearest
    "knn": _Kind(KnnModel,
                 lambda m, X: m.labels[_knn_neighbors(m, X)].sum(axis=1) / m.k,
                 {"points": ("n", "d"), "labels": ("n",)},
                 {"labels": (lambda a, dims: np.isin(a, (0.0, 1.0)).all(),
                             "holds a label other than 0 or 1"),
                  "k": (lambda k, dims: 1 <= k <= dims["n"],
                        "is {value}, outside 1..{n} (the training rows)")},
                 lambda m: None if m.k % 2 else (
                     f"k={m.k} is even, so a score of exactly 0.5 (a tied "
                     f"vote) takes the label of the nearest training row"),
                 lambda m, X: m.labels[_knn_neighbors(m, X)[:, 0]]),
    "mlp": _Kind(MlpModel, _mlp_scores,
                 {"w_in": ("d", "h"), "b_in": ("h",), "w_out": ("h",)},
                 {"config": (lambda c, dims: c.valid() and c.hidden == dims["h"],
                             "is invalid for w_in's {h} hidden units: {value}")}),
}

MODEL_NAMES = tuple(_KINDS)


def model_kind(model: Model) -> str:
    """The model's name in MODEL_NAMES."""
    for name, kind in _KINDS.items():
        if type(model) is kind.cls:
            return name
    raise TrainingError(f"unknown model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Shared prediction surface


def fit_model(name: str, train: Dataset, params: dict | None = None) -> Model:
    """Fit a classifier by name. params are the model's hyperparameters:
    {"k": ...} for knn, MlpConfig fields for mlp, nothing for gnb."""
    params = dict(params or {})
    if name == "gnb":
        if params:
            raise TrainingError(f"gnb takes no hyperparameters, got {params}")
        return gnb_fit(train)
    if name == "knn":
        k = params.pop("k", 5)
        if params:
            raise TrainingError(f"unknown knn hyperparameters: {params}")
        return knn_fit(train, k=k)
    if name == "mlp":
        try:
            config = MlpConfig(**params)
        except TypeError:
            raise TrainingError(f"invalid mlp hyperparameters: {params}")
        return mlp_fit(train, config)
    raise TrainingError(f"unknown model {name!r}, expected one of {MODEL_NAMES}")


def score_batch(model: Model, data: Dataset | np.ndarray) -> np.ndarray:
    """Botnet scores in [0, 1] for every row.

    The one input rule for every kind: a 2-d matrix with one column per
    model feature, all finite. Empty input yields an empty vector.
    """
    kind = _KINDS[model_kind(model)]
    X = data.features if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise LoadError("score_batch expects a 2-d feature matrix")
    if X.shape[1] != len(model.feature_names):
        raise LoadError(
            f"model expects {len(model.feature_names)} features, got {X.shape[1]}")
    if X.shape[0] == 0:
        return np.empty(0)
    if not np.isfinite(X).all():
        raise LoadError("scoring needs finite feature values")
    return kind.score(model, X)


def threshold_labels(scores: np.ndarray) -> np.ndarray:
    """Scores to labels: botnet (1) when score >= 0.5. This ignores the
    KNN even-k tie rule; labels_from_scores applies it."""
    return (np.asarray(scores) >= 0.5).astype(np.int64)


def tie_rule(model: Model) -> str | None:
    """The rule labels_from_scores applies to a score of exactly 0.5 that
    overrides the threshold, or None when the threshold alone decides."""
    return _KINDS[model_kind(model)].tie_rule(model)


def labels_from_scores(model: Model, X: np.ndarray,
                       scores: np.ndarray) -> np.ndarray:
    """Labels for rows X that model scored as scores.

    Botnet (1) when score >= 0.5. A KNN model with even k gives a row
    scoring exactly 0.5, a tied vote, the label of its single nearest
    training row (see tie_rule); only those rows are queried again, so
    other models and odd k cost nothing beyond the threshold.
    """
    labels, kind = threshold_labels(scores), _KINDS[model_kind(model)]
    if kind.tie_rule(model) is not None:
        tied = np.flatnonzero(np.asarray(scores) == 0.5)
        if tied.size:
            X = np.asarray(X, dtype=np.float64)
            labels[tied] = kind.tie_labels(model, X[tied])
    return labels


def predict_batch(model: Model, data: Dataset | np.ndarray) -> np.ndarray:
    """Labels for every row; empty input yields an empty vector."""
    X = data.features if isinstance(data, Dataset) else data
    return labels_from_scores(model, X, score_batch(model, X))


# ---------------------------------------------------------------------------
# Serialization


def save_model(model: Model, path: str) -> None:
    """Write a model to structured text (JSON): its kind, then each init
    field in declaration order. Floats keep full precision via repr, so
    load_model(save_model(m)) reproduces m bit-exactly."""
    payload = {"kind": model_kind(model)}
    for f in dataclasses.fields(model):
        if f.init:
            value = getattr(model, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif dataclasses.is_dataclass(value):
                value = dataclasses.asdict(value)
            payload[f.name] = value
    _write_json(path, payload, sort_keys=False)


# What a JSON value must be to decode into a non-array field, by the
# field's declared type
_ACCEPTS = {
    "tuple[str, ...]": ("a non-empty list of strings", lambda v: type(v) is list
                        and len(v) > 0 and all(type(s) is str for s in v)),
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", _finite),
    "tuple[float, ...]": ("a list of finite numbers",
                          lambda v: type(v) is list and all(map(_finite, v))),
    "dict": ("a JSON object", lambda v: type(v) is dict),
    "MlpConfig": ("a JSON object", lambda v: type(v) is dict),
}


def _array(key: str, value, shape: tuple, dims: dict) -> np.ndarray:
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        raise _bad(key, "is not a rectangular array") from None
    if a.dtype.kind not in "iuf":
        raise _bad(key, "is not an array of numbers")
    sizes = tuple(dims.setdefault(dim, got) if isinstance(dim, str) else dim
                  for dim, got in zip(shape, a.shape))
    if a.ndim != len(shape) or a.shape != sizes:
        bound = ", ".join(f"{dim}={size}" for dim, size in dims.items())
        raise _bad(key, f"has shape {a.shape}, expected "
                        f"({', '.join(map(str, shape))}) with {bound}")
    if not np.isfinite(a).all():
        raise _bad(key, "holds a non-finite value")
    return np.asarray(a, dtype=np.float64)


def _decode(cls, payload: dict, arrays: dict, dims: dict, prefix: str = "") -> dict:
    """The values of cls's init fields in payload, which must hold exactly
    those keys: the arrays in the shapes arrays gives, the other fields by
    their declared type. dims binds each shape letter to the first size
    seen for it; feature_names binds d."""
    fields = {f.name: f.type for f in dataclasses.fields(cls) if f.init}
    for key in [*fields, *payload]:
        if (key in fields) != (key in payload):
            raise _bad(prefix + key, "is missing" if key in fields
                       else f"is not a field of {cls.__name__}")
    values = {}
    for name, type_ in fields.items():
        key, value = prefix + name, payload[name]
        if name in arrays:
            value = _array(key, value, arrays[name], dims)
        elif not _ACCEPTS[type_][1](value):
            raise _bad(key, f"is not {_ACCEPTS[type_][0]}")
        elif type_ == "MlpConfig":
            value = MlpConfig(**_decode(MlpConfig, value, {}, {}, key + "."))
        values[name] = tuple(value) if type_.startswith("tuple") else value
        if name == "feature_names":
            dims["d"] = len(value)
    return values


def load_model(path: str) -> Model:
    """Read a model file save_model wrote, checking all scoring relies on.

    The file must be a UTF-8 JSON object of "kind" and exactly that kind's
    fields. feature_names fixes d, and each array must have its kind's
    shape. Every field must have its declared type, numbers outside
    provenance must be finite, and the kind's own rules must hold: GNB
    priors and variances > 0; KNN labels 0 or 1 and 1 <= k <= n; an MLP
    config mlp_fit accepts, with hidden equal to w_in's column count.
    Anything else raises LoadError naming the file and the offending key.
    """
    payload = _read_json(path, "model file", LoadError)
    try:
        if not isinstance(payload, dict):
            raise LoadError(f"holds a JSON {type(payload).__name__}, not an object")
        if "kind" not in payload:
            raise _bad("kind", "is missing")
        name = payload.pop("kind")
        if name not in MODEL_NAMES:
            raise _bad("kind", f"is {name!r}, not one of {MODEL_NAMES}")
        kind, dims = _KINDS[name], {}
        values = _decode(kind.cls, payload, kind.arrays, dims)
        for key, (holds, why) in kind.rules.items():
            if not holds(values[key], dims):
                raise _bad(key, why.format(value=values[key], **dims))
        return kind.cls(**values)
    except LoadError as exc:
        raise LoadError(f"{path}: {exc}") from None
