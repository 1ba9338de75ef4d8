"""The MLP fit against the per-batch training loop it replaced, bit for bit."""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import dataclasses

from botsift import DivergenceError, MlpConfig, fit_model
from botsift.classifiers import _BLOCK_BATCHES

from conftest import make_dataset


def _reference_mlp_fit(X, y, n_features, config):
    """The training loop the MLP fit ran before it gathered rows in blocks:
    one fancy-indexed batch and freshly allocated arrays per step, the loss
    summed per batch. Returns (w_in, b_in, w_out, b_out, epoch_losses)."""
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    rng = np.random.default_rng(config.seed)
    w_in = rng.uniform(-0.5, 0.5, (n_features, config.hidden))
    b_in = rng.uniform(-0.5, 0.5, config.hidden)
    w_out = rng.uniform(-0.5, 0.5, config.hidden)
    b_out = float(rng.uniform(-0.5, 0.5))
    lr = config.learning_rate

    losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            Xb, yb = X[idx], y[idx]
            b = len(idx)
            z1 = Xb @ w_in + b_in
            a1 = expit(z1)
            z2 = a1 @ w_out + b_out
            p = expit(z2)
            total += float(np.sum(np.logaddexp(0.0, z2) - yb * z2))
            delta2 = (p - yb) / b
            delta1 = np.outer(delta2, w_out) * a1 * (1.0 - a1)
            w_out = w_out - lr * (a1.T @ delta2)
            b_out = b_out - lr * float(delta2.sum())
            w_in = w_in - lr * (Xb.T @ delta1)
            b_in = b_in - lr * delta1.sum(axis=0)
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise DivergenceError(epoch)
        losses.append(epoch_loss)
    return w_in, b_in, w_out, b_out, tuple(losses)


def _bits(*arrays) -> list[bytes]:
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


@st.composite
def training_runs(draw):
    batch = draw(st.integers(1, 64))
    # from a single row up to three blocks and a ragged tail
    n = draw(st.one_of(st.integers(1, 2 * batch),
                       st.integers(1, 3 * _BLOCK_BATCHES * batch + batch - 1)))
    d = draw(st.integers(1, 8))
    data_seed = draw(st.integers(0, 2**32 - 1))
    config = MlpConfig(hidden=draw(st.integers(1, 16)),
                       learning_rate=draw(st.sampled_from([0.0, 0.05, 0.1, 0.7, 3.0])),
                       epochs=draw(st.integers(1, 3)), batch_size=batch,
                       seed=draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(data_seed)
    X = rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 10.0])), (n, d))
    y = rng.integers(0, 2, n)
    return X, y, config


@settings(max_examples=60, deadline=None)
@given(training_runs())
def test_mlp_fit_matches_the_per_batch_loop_bit_for_bit(run):
    X, y, config = run
    expected = _reference_mlp_fit(X, y, X.shape[1], config)
    model = fit_model("mlp", make_dataset(X, y), dataclasses.asdict(config))
    assert _bits(model.w_in, model.b_in, model.w_out, model.b_out,
                 model.epoch_losses) == _bits(*expected)


def test_mlp_fit_bytes_are_pinned():
    """2,000 rows of 13-row batches span three blocks and end in a ragged
    batch; the digest was recorded with the per-batch loop."""
    rng = np.random.default_rng(20260418)
    X = rng.normal(0.0, 1.0, (2000, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(0.0, 0.5, 2000) > 0).astype(np.int64)
    model = fit_model("mlp", make_dataset(X, y), dict(
        hidden=7, learning_rate=0.3, epochs=3, batch_size=13, seed=5))
    digest = hashlib.sha256()
    for part in _bits(model.w_in, model.b_in, model.w_out, model.b_out,
                      model.epoch_losses):
        digest.update(part)
    assert digest.hexdigest() == (
        "02e8d258abc13f06e0697277321ff73294e8fc29e2bbb9237dca4f25414510f0")
