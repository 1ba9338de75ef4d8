"""From-scratch classifiers: Gaussian naive Bayes, k-nearest-neighbour,
and a one-hidden-layer sigmoid MLP.

All three share one scoring convention: score(x) is the model's degree of
belief that x is botnet (label 1), in [0, 1]. labels_from_scores turns
scores into labels, and predict_batch and the evaluation reports go
through it: botnet when the score is at least THRESHOLD, except that a KNN
model with even k gives a tied vote the label of the single nearest
training row. Models are frozen dataclasses over read-only arrays and
serialize to JSON, reloading bit-exactly.

One table, _KINDS, holds what differs between the kinds: the class, the
private fit and the hyperparameters it takes with their defaults, the
rule those values and the training class counts must meet, the scorer,
the array fields and their shapes, the checks a loaded model must pass,
and KNN's tie rule. Checking hyperparameters, fitting (fit_model is the
only way to fit), scoring, labelling, saving and loading each use it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, LoadError, TrainingError
from .flows import _ACCEPTS, CHUNK_ROWS, Dataset, _read_json, _write_json

# The decision threshold: a row is labelled botnet when its score is at
# least this.
THRESHOLD = 0.5

_LOG_2PI = float(np.log(2.0 * np.pi))

# Deferred: importing scipy.special costs about 0.2 s and 20 MB, which a
# process that never scores GNB or runs an MLP should not pay. _special()
# binds these on first use; _forward and _backward read them here. A
# command that will need them calls it before it reads its rows: the import
# leaves about 6 MB of heap blocks for good, and blocks made above the rows
# keep the heap from shrinking once the rows are freed.
expit = logsumexp = None


def _special() -> None:
    global expit, logsumexp
    if expit is None:
        from scipy.special import expit, logsumexp


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


def _group_sums(X: np.ndarray, y: np.ndarray, centers: list | None = None) -> list:
    """numpy's axis-0 sums over all rows of X, the normal rows and the
    botnet rows; with centers (one per group), of (x - center) ** 2.

    numpy adds a C-contiguous matrix's rows one after another when it has
    two or more columns, so the rows are gathered CHUNK_ROWS at a time and
    each block is summed behind the sum carried so far; that starts as
    numpy's own sum of the group's first rows. One column is summed
    pairwise, so it is gathered whole.
    """
    n, d = X.shape
    step = CHUNK_ROWS if d > 1 else max(n, 1)
    buf, sums = np.empty((min(step, n) + 1, d)), [None, None, None]
    for start in range(0, n, step):
        labels = y[start:start + step]
        for g, pick in enumerate((labels >= 0, labels == 0, labels == 1)):
            index = np.flatnonzero(pick)
            if index.size:  # mode="clip" spares the copy mode="raise" makes of out
                rows = np.take(X[start:start + step], index, axis=0,
                               out=buf[1:index.size + 1], mode="clip")
                if centers is not None:
                    np.square(np.subtract(rows, centers[g], out=rows), out=rows)
                if sums[g] is not None:
                    buf[0], rows = sums[g], buf[:index.size + 1]
                sums[g] = np.add.reduce(rows, axis=0)
    return sums


def _gnb_fit(train: Dataset) -> GnbModel:
    """Fit per-class feature Gaussians with frequency priors.

    Variances are maximum-likelihood (divide by class count) plus a
    smoothing term of 1e-9 times the largest per-feature variance over the
    whole training set, so a within-class constant feature cannot produce
    a zero variance. Means and variances are bit-identical to np.mean and
    np.var, with temporaries of one block of rows (see _group_sums).
    """
    normal, botnet = train.class_counts
    X, y, counts = train.features, train.labels, (train.n_rows, normal, botnet)
    means = [total / count for total, count in zip(_group_sums(X, y), counts)]
    var = [total / count for total, count in zip(_group_sums(X, y, means), counts)]
    eps = 1e-9 * float(var[0].max())
    if eps == 0.0:
        eps = 1e-12  # every feature constant over the whole set
    priors = np.array([normal, botnet], dtype=np.float64) / train.n_rows
    return GnbModel(feature_names=train.feature_names, priors=priors,
                    means=np.array(means[1:]), variances=np.array(var[1:]) + eps,
                    smoothing=eps)


def gnb_posteriors(model: GnbModel, X: np.ndarray) -> np.ndarray:
    """Class posteriors, shape (n, 2); each row sums to 1. The joint
    log(prior * likelihood) is normalized in log space, CHUNK_ROWS rows at
    a time, so the temporaries are of one block. Each row's arithmetic is
    that of numpy's whole-array formula on a C-contiguous X, whatever X's
    layout, so the posteriors do not depend on the blocking."""
    _special()
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty((X.shape[0], 2))
    for start in range(0, X.shape[0], CHUNK_ROWS):
        block, joint = X[start:start + CHUNK_ROWS], out[start:start + CHUNK_ROWS]
        gap = np.empty((block.shape[0], X.shape[1]))
        for c in (0, 1):
            var = model.variances[c]
            np.subtract(block, model.means[c], out=gap)
            gap *= gap
            gap /= var
            gap += _LOG_2PI + np.log(var)
            joint[:, c] = np.log(model.priors[c]) + -0.5 * gap.sum(axis=1)
        del gap  # before logsumexp, whose temporaries take about 140 bytes a row
        joint -= logsumexp(joint, axis=1, keepdims=True)
        np.exp(joint, out=joint)
    return out


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


def _nearest(X: np.ndarray, points: np.ndarray, k: int, cand: np.ndarray,
             ball: Callable[[int, float], np.ndarray]) -> np.ndarray:
    """The one neighbour rule of KNN and SMOTE: each row of X's k nearest
    points, shape (n, k), by (squared distance, index). cand proposes each
    row's k + 1 nearest allowed points, or all when there are no more. A
    row whose (k+1)-th lies within the tie slack of its k-th is ranked
    instead over ball(i, r2), every allowed point within squared distance
    r2, so a tie at the k-th rank admits the lower index."""
    d2, cand = _rank(X[:, None, :], points, cand)
    nearest = cand[:, :k]
    if cand.shape[1] > k:
        for i in np.flatnonzero(d2[:, k] <= d2[:, k - 1] * (1.0 + _TIE_SLACK)):
            r2 = d2[i, k - 1] * (1.0 + _TIE_SLACK)
            nearest[i] = _rank(X[i], points, ball(i, r2))[1][:k]
    return nearest


def _knn_neighbors(model: KnnModel, X: np.ndarray) -> np.ndarray:
    """Training indices of each row's k nearest by _nearest's rule; a k-d
    tree proposes the candidates and answers the ball queries."""
    pts, k, tree = model.points, model.k, model.tree()
    m = min(k + 1, pts.shape[0])
    _, cand = tree.query(X, k=m)
    return _nearest(X, pts, k, cand.reshape(X.shape[0], m), lambda i, r2: np.asarray(
        tree.query_ball_point(X[i], np.sqrt(r2)), dtype=np.intp))


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
        """Whether the MLP can train with this configuration."""
        return (self.epochs >= 0 and self.batch_size >= 1 and self.hidden >= 1
                and self.seed >= 0)


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
    backward passes are the ones _mlp_fit steps through.
    """
    _special()
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


def _mlp_model(names: tuple[str, ...], flat: np.ndarray, feature_count: int,
               config: MlpConfig, losses: tuple[float, ...] = ()) -> MlpModel:
    """A model over a copy of the flat parameter vector."""
    w_in, b_in, w_out, b_out = _param_views(flat.copy(), feature_count,
                                            config.hidden)
    return MlpModel(names, w_in, b_in, w_out, float(b_out), config, losses)


# Batches gathered at a time by _mlp_fit, so its buffers hold at most
# _BLOCK_BATCHES * batch_size rows however large the training set is.
_BLOCK_BATCHES = 64


def _mlp_fit(train: Dataset, config: MlpConfig) -> MlpModel:
    """Mini-batch gradient descent on mean binary cross-entropy.

    The initial weights are drawn uniform on [-0.5, 0.5) seeded
    config.seed (epochs=0 returns them), and the same generator then
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
    _special()
    X, y = train.features, np.asarray(train.labels, dtype=np.float64)
    n, d, hidden = train.n_rows, train.n_features, config.hidden
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
    _special()
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
    the labels of the rows X that scored exactly THRESHOLD. fit(train,
    **params) trains a model on params holding a value for every key of
    defaults, the kind's hyperparameters, checking nothing; fault(params,
    counts) is the text of the rule they break for class counts, or None.
    """
    cls: type
    score: Callable[[Model, np.ndarray], np.ndarray]
    arrays: dict[str, tuple]
    rules: dict[str, tuple[Callable[[object, dict], bool], str]]
    fit: Callable[..., Model]
    defaults: dict
    fault: Callable[[dict, tuple[int, int] | None], str | None]
    tie_rule: Callable[[Model], str | None] = lambda model: None
    tie_labels: Callable[[Model, np.ndarray], np.ndarray] | None = None


_KINDS = {
    # GNB scores the botnet posterior
    "gnb": _Kind(GnbModel, lambda m, X: gnb_posteriors(m, X)[:, 1],
                 {"priors": (2,), "means": (2, "d"), "variances": (2, "d")},
                 {"priors": _POSITIVE, "variances": _POSITIVE}, _gnb_fit, {},
                 lambda p, counts: None if not counts or 0 not in counts else (
                     f"naive Bayes needs both classes, class counts are {counts}")),
    # KNN scores the botnet share of the k nearest training rows; with
    # even k, a tied vote takes the label of the nearest
    "knn": _Kind(KnnModel,
                 lambda m, X: m.labels[_knn_neighbors(m, X)].sum(axis=1) / m.k,
                 {"points": ("n", "d"), "labels": ("n",)},
                 {"labels": (lambda a, dims: np.isin(a, (0.0, 1.0)).all(),
                             "holds a label other than 0 or 1"),
                  "k": (lambda k, dims: not _KINDS["knn"].fault({"k": k}, (dims["n"], 0)),
                        "is {value}, outside 1..{n} (the training rows)")},
                 lambda train, k: KnnModel(train.feature_names, train.features,
                                           train.labels, k), {"k": 5},
                 lambda p, counts: (
                     f"knn hyperparameter 'k' must be >= 1, got {p['k']}" if p["k"] < 1
                     else f"k={p['k']} exceeds the {sum(counts)} training rows"
                     if counts and p["k"] > sum(counts) else None),
                 tie_rule=lambda m: None if m.k % 2 else (
                     f"k={m.k} is even, so a score of exactly {THRESHOLD} (a tied "
                     f"vote) takes the label of the nearest training row"),
                 tie_labels=lambda m, X: m.labels[_knn_neighbors(m, X)[:, 0]]),
    "mlp": _Kind(MlpModel, _mlp_scores,
                 {"w_in": ("d", "h"), "b_in": ("h",), "w_out": ("h",)},
                 {"config": (lambda c, dims: c.valid() and c.hidden == dims["h"],
                             "is invalid for w_in's {h} hidden units: {value}")},
                 lambda train, **p: _mlp_fit(train, MlpConfig(**p)),
                 dataclasses.asdict(MlpConfig()),
                 lambda p, counts: (
                     f"invalid mlp hyperparameters: {MlpConfig(**p)}"
                     if not MlpConfig(**p).valid() else "cannot train on an empty dataset"
                     if counts == (0, 0) else None)),
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


def check_params(name: str, params: dict, error: Callable[[str], Exception] = TrainingError,
                 counts: tuple[int, int] | None = None) -> dict:
    """params with the defaults of the model name filled in. Raise error
    unless name is in MODEL_NAMES and params are its hyperparameters: each
    a key of the kind's defaults, of its default's type (see load_model),
    meeting the kind's rule for training class counts counts (None: any)."""
    if name not in MODEL_NAMES:
        raise error(f"unknown model {name!r}, expected one of {MODEL_NAMES}")
    kind = _KINDS[name]
    unknown = {key: value for key, value in params.items() if key not in kind.defaults}
    if unknown:
        raise error(f"unknown {name} hyperparameters: {unknown}")
    filled = {**kind.defaults, **params}
    for key, value in filled.items():
        what, accepts = _ACCEPTS[type(kind.defaults[key]).__name__]
        if not accepts(value):
            raise error(f"{name} hyperparameter {key!r} is not {what}, got {value!r}")
    if fault := kind.fault(filled, counts):
        raise error(fault)
    return filled


def _seeded(name: str, params: dict | None, seed: int | None) -> dict:
    """A copy of params with seed appended as "seed" when the model name
    takes a seed that params leave unset, so a caller's seed reaches every
    seeded fit."""
    params, kind = dict(params or {}), _KINDS.get(name)
    if seed is not None and kind is not None and "seed" in kind.defaults:
        params.setdefault("seed", seed)
    return params


def fit_model(name: str, train: Dataset, params: dict | None = None) -> Model:
    """Fit a classifier by name, the only way to fit one; params are its
    hyperparameters as check_params accepts them for train's class counts."""
    params = check_params(name, params or {}, TrainingError, train.class_counts)
    return _KINDS[name].fit(train, **params)


def _features_for(model: Model, data: Dataset | np.ndarray) -> np.ndarray:
    """data's feature matrix in the model's column order. A Dataset's
    columns are taken by name, with no copy when they already match, and
    a LoadError names any the model needs that data lacks; a bare array
    is taken as it is."""
    if not isinstance(data, Dataset):
        return np.asarray(data, dtype=np.float64)
    if data.feature_names != tuple(model.feature_names):
        data = data.with_columns(model.feature_names)
    return data.features


def score_batch(model: Model, data: Dataset | np.ndarray) -> np.ndarray:
    """Botnet scores in [0, 1] for every row.

    The one input rule for every kind: a 2-d matrix with one column per
    model feature, all finite; a Dataset's columns are matched to the
    model's by name. Empty input yields an empty vector.
    """
    kind = _KINDS[model_kind(model)]
    X = _features_for(model, data)
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


def tie_rule(model: Model) -> str | None:
    """The rule labels_from_scores applies to a score of exactly
    THRESHOLD that overrides the threshold, or None when the threshold
    alone decides."""
    return _KINDS[model_kind(model)].tie_rule(model)


def labels_from_scores(model: Model, X: np.ndarray,
                       scores: np.ndarray) -> np.ndarray:
    """Labels for rows X that model scored as scores.

    Botnet (1) when score >= THRESHOLD. A KNN model with even k gives a
    row scoring exactly THRESHOLD, a tied vote, the label of its single
    nearest training row (see tie_rule); only those rows are queried again, so
    other models and odd k cost nothing beyond the threshold.
    """
    labels = (np.asarray(scores) >= THRESHOLD).astype(np.int64)
    kind = _KINDS[model_kind(model)]
    if kind.tie_rule(model) is not None:
        tied = np.flatnonzero(np.asarray(scores) == THRESHOLD)
        if tied.size:
            X = np.asarray(X, dtype=np.float64)
            labels[tied] = kind.tie_labels(model, X[tied])
    return labels


def predict_batch(model: Model, data: Dataset | np.ndarray) -> np.ndarray:
    """Labels for every row; empty input yields an empty vector."""
    X = _features_for(model, data)
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
    for attr, type_ in fields.items():
        key, value = prefix + attr, payload[attr]
        if attr in arrays:
            value = _array(key, value, arrays[attr], dims)
        elif not _ACCEPTS[type_][1](value):
            raise _bad(key, f"is not {_ACCEPTS[type_][0]}")
        elif type_ == "MlpConfig":
            value = MlpConfig(**_decode(MlpConfig, value, {}, {}, key + "."))
        values[attr] = tuple(value) if type_.startswith("tuple") else value
        if attr == "feature_names":
            dims["d"] = len(value)
    return values


def load_model(path: str) -> Model:
    """Read a model file save_model wrote, checking all scoring relies on.

    The file must be a UTF-8 JSON object of "kind" and exactly that kind's
    fields. feature_names fixes d, and each array must have its kind's
    shape. Every field must have its declared type, numbers outside
    provenance must be finite, and the kind's own rules must hold: GNB
    priors and variances > 0; KNN labels 0 or 1 and 1 <= k <= n; an MLP
    config training accepts, with hidden equal to w_in's column count.
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
