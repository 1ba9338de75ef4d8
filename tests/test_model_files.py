"""Model files: pinned bytes, round trips, and the malformed files
load_model rejects."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from botsift import (GnbModel, KnnModel, LoadError, MlpConfig, MlpModel,
                     fit_model, load_model, save_model, score_batch)
from botsift.classifiers import MODEL_NAMES

from conftest import make_dataset

ARRAY_FIELDS = {"gnb": ("priors", "means", "variances"),
                "knn": ("points", "labels"),
                "mlp": ("w_in", "b_in", "w_out")}


def pinned_model(name):
    """A small fitted model of each kind, tagged like a saved experiment
    model."""
    rng = np.random.default_rng(11)
    X = rng.normal(0.0, 1.0, (12, 2))
    X[6:] += 3.0
    train = make_dataset(X, np.repeat([0, 1], 6), names=("pkts", "bytes"))
    params = {"knn": {"k": 3}, "mlp": {"hidden": 3, "epochs": 2, "seed": 5}}.get(name)
    model = fit_model(name, train, params)
    return dataclasses.replace(model, provenance={"arm": "smote", "rows": 12})


@pytest.mark.parametrize("name, digest", [
    ("gnb", "2deb6df04da2ec6443808eb286a2f9693fd8ac4fc3e3784a481117c37a888377"),
    ("knn", "eabec5a35ab1b7b5d4efa4a2814359ca6b280a30d0fd3d3aaa8d2318b45ddd52"),
    ("mlp", "cf1f6801fc591b10084a373350dd68e00535d69fd16dc667eb739901922789fa"),
])
def test_saved_bytes_are_pinned(tmp_path, name, digest):
    path = tmp_path / f"{name}.json"
    save_model(pinned_model(name), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


finite = st.floats(-1e6, 1e6, allow_nan=False, width=64)
positive = st.floats(0.0, 1e6, exclude_min=True, width=64)


@st.composite
def models(draw):
    """A model of any kind with arbitrary valid values, not a fitted one."""
    name = draw(st.sampled_from(MODEL_NAMES))
    d = draw(st.integers(1, 4))
    names = tuple(f"f{i}" for i in range(d))
    provenance = draw(st.dictionaries(st.text(max_size=4), st.integers(),
                                      max_size=2))
    if name == "gnb":
        return GnbModel(names, draw(arrays(np.float64, 2, elements=positive)),
                        draw(arrays(np.float64, (2, d), elements=finite)),
                        draw(arrays(np.float64, (2, d), elements=positive)),
                        draw(finite), provenance)
    if name == "knn":
        n = draw(st.integers(1, 6))
        return KnnModel(names, draw(arrays(np.float64, (n, d), elements=finite)),
                        draw(arrays(np.int64, n, elements=st.integers(0, 1))),
                        draw(st.integers(1, n)), provenance)
    h = draw(st.integers(1, 4))
    config = MlpConfig(hidden=h, learning_rate=draw(finite),
                       epochs=draw(st.integers(0, 9)),
                       batch_size=draw(st.integers(1, 64)),
                       seed=draw(st.integers(0, 2**32)))
    return MlpModel(names, draw(arrays(np.float64, (d, h), elements=finite)),
                    draw(arrays(np.float64, h, elements=finite)),
                    draw(arrays(np.float64, h, elements=finite)), draw(finite),
                    config, tuple(draw(st.lists(finite, max_size=3))),
                    provenance)


@settings(max_examples=80, deadline=None)
@given(models())
def test_round_trip_is_bit_exact(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("round") / "model.json"
    save_model(model, str(path))
    again = load_model(str(path))
    assert type(again) is type(model)
    for f in dataclasses.fields(model):
        if not f.init:
            continue
        before, after = getattr(model, f.name), getattr(again, f.name)
        if isinstance(before, np.ndarray):
            assert after.dtype == np.float64 and not after.flags.writeable
            assert after.tobytes() == before.tobytes()
        else:
            assert after == before
    first = path.read_bytes()
    save_model(again, str(path))
    assert path.read_bytes() == first


def _first_cell(value):
    """The innermost list that holds the first number of a nested list."""
    while isinstance(value[0], list):
        value = value[0]
    return value


@settings(max_examples=120, deadline=None)
@given(models(), st.data())
def test_mutated_payloads_raise_load_error(tmp_path_factory, model, data):
    path = tmp_path_factory.mktemp("bad") / "model.json"
    save_model(model, str(path))
    payload = json.loads(path.read_text())
    name = payload["kind"]
    edit = data.draw(st.sampled_from(["drop", "extra", "shape", "nan"] + (
        ["label", "big_k"] if name == "knn" else [])))
    if edit == "drop":
        del payload[data.draw(st.sampled_from(sorted(payload)))]
    elif edit == "extra":
        payload[data.draw(st.text(min_size=1).filter(
            lambda k: k not in payload))] = 1
    elif edit == "shape":
        key = data.draw(st.sampled_from(ARRAY_FIELDS[name]))
        payload[key].append(payload[key][0])  # one more row along axis 0
    elif edit == "nan":
        key = data.draw(st.sampled_from(ARRAY_FIELDS[name]))
        _first_cell(payload[key])[0] = float("nan")
    elif edit == "label":
        payload["labels"][data.draw(st.integers(0, len(payload["labels"]) - 1))] = 7
    else:
        payload["k"] = len(payload["points"]) + data.draw(st.integers(1, 3))
    path.write_text(json.dumps(payload))
    with pytest.raises(LoadError) as err:
        load_model(str(path))
    assert str(err.value).startswith(f"{path}: ")


def _payload(tmp_path, name):
    path = tmp_path / "valid.json"
    save_model(pinned_model(name), str(path))
    return json.loads(path.read_text())


@pytest.mark.parametrize("text, why", [
    ('{"kind": "knn", "feature_names": ["a"]}', "key 'points' is missing"),
    ("not json", "model file is not valid JSON"),
    ("[1, 2]", "holds a JSON list, not an object"),
    ('{"kind": "forest"}', "key 'kind' is 'forest'"),
    ('{"feature_names": ["a"]}', "key 'kind' is missing"),
])
def test_files_that_are_not_models_are_named(tmp_path, text, why):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: {why}"):
        load_model(str(path))


def test_bytes_that_are_not_utf8_are_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"kind": "gnb\xff"}')
    with pytest.raises(LoadError, match="model file is not valid JSON"):
        load_model(str(path))


@pytest.mark.parametrize("name, edit, why", [
    ("gnb", {"variances": [[1.0, 0.0], [1.0, 1.0]]}, "key 'variances' holds a value <= 0"),
    ("gnb", {"priors": [1.0, 0.0]}, "key 'priors' holds a value <= 0"),
    ("gnb", {"smoothing": float("inf")}, "key 'smoothing' is not a finite number"),
    ("gnb", {"feature_names": ["pkts"]}, r"key 'means' has shape \(2, 2\), expected \(2, d\) with d=1"),
    ("knn", {"k": 0}, "key 'k' is 0, outside 1..12"),
    ("knn", {"k": True}, "key 'k' is not an integer"),
    ("knn", {"points": [[1, "2"]] * 12}, "key 'points' is not an array of numbers"),
    ("knn", {"points": [[1.0]] * 11 + [[1.0, 2.0]]}, "key 'points' is not a rectangular array"),
    ("mlp", {"config": {"hidden": 3, "learning_rate": 0.1, "epochs": 2,
                        "batch_size": 32, "seed": 5, "bogus": 1}},
     "key 'config.bogus' is not a field of MlpConfig"),
    ("mlp", {"config": {"hidden": 4, "learning_rate": 0.1, "epochs": 2,
                        "batch_size": 32, "seed": 5}},
     "key 'config' is invalid for w_in's 3 hidden units"),
    ("mlp", {"config": {"hidden": 3, "learning_rate": 0.1, "epochs": 2,
                        "batch_size": 0, "seed": 5}},
     "key 'config' is invalid for w_in's 3 hidden units"),
    ("mlp", {"epoch_losses": [0.5, None]}, "key 'epoch_losses' is not a list of finite numbers"),
    ("mlp", {"provenance": []}, "key 'provenance' is not a JSON object"),
])
def test_invalid_values_are_named(tmp_path, name, edit, why):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_payload(tmp_path, name) | edit))
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: {why}"):
        load_model(str(path))


def test_loaded_model_scores_like_the_saved_one(tmp_path):
    probe = np.random.default_rng(3).normal(1.5, 2.0, (20, 2))
    for name in MODEL_NAMES:
        model = pinned_model(name)
        path = str(tmp_path / f"{name}.json")
        save_model(model, path)
        assert score_batch(load_model(path), probe).tobytes() == (
            score_batch(model, probe).tobytes())
