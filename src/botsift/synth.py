"""Seeded synthetic flow generator.

A traffic profile gives, per class, a mean and coefficient of variation
for each numeric feature plus token weights for proto/state. Features are
drawn independently from log-normal marginals matched to (mean, cv), with
one exception: when spkts and dpkts are both profiled, pkts is their sum
rather than an independent draw. Class counts are exact and deterministic
(round half up of row_count * class_ratio botnet rows), and every value
stream is derived from the seed, so equal (profile, rows, seed) inputs
reproduce files byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

import numpy as np

from .errors import SynthError
from .flows import FlowTable, _finite, _read_json

CLASS_KEYS = {"normal": 0, "botnet": 1}
PROFILE_KEYS = {"features", "tokens", "class_ratio", "row_count", "seed"}


@dataclass(frozen=True)
class FeatureSpec:
    mean: float
    cv: float = 1.0


@dataclass
class TrafficProfile:
    """features: name -> {class_label: FeatureSpec}.
    tokens: column -> {class_label: {token: weight}}.
    class_ratio is the botnet fraction of generated rows."""

    features: dict[str, dict[int, FeatureSpec]]
    tokens: dict[str, dict[int, dict[str, float]]] = field(default_factory=dict)
    class_ratio: float = 0.5
    row_count: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.features:
            raise SynthError("profile defines no features")
        if not 0.0 < self.class_ratio < 1.0:
            raise SynthError(f"class_ratio must be in (0, 1), got {self.class_ratio}")
        if self.row_count < 1:
            raise SynthError(f"row_count must be >= 1, got {self.row_count}")
        for name, per_class in self.features.items():
            if set(per_class) != {0, 1}:
                raise SynthError(f"feature {name!r} needs both class entries")
            for spec in per_class.values():
                if not (spec.mean > 0 and math.isfinite(spec.mean)):
                    raise SynthError(f"feature {name!r}: mean must be positive")
                if not (spec.cv > 0 and math.isfinite(spec.cv)):
                    raise SynthError(f"feature {name!r}: cv must be positive")
        for column, per_class in self.tokens.items():
            if set(per_class) != {0, 1}:
                raise SynthError(f"token column {column!r} needs both classes")
            for weights in per_class.values():
                if not weights:
                    raise SynthError(f"token column {column!r} has no tokens")
                if any(w < 0 for w in weights.values()) or sum(weights.values()) <= 0:
                    raise SynthError(f"token column {column!r}: bad weights")
        if "pkts" in self.features and self._derives_pkts():
            for c in (0, 1):
                stated = self.features["pkts"][c].mean
                implied = (self.features["spkts"][c].mean
                           + self.features["dpkts"][c].mean)
                if abs(stated - implied) > 1e-6 * max(stated, implied):
                    raise SynthError(
                        f"profile pkts mean {stated} conflicts with "
                        f"spkts+dpkts = {implied} (pkts is derived)")

    def _derives_pkts(self) -> bool:
        return "spkts" in self.features and "dpkts" in self.features

    def sampled_features(self) -> list[str]:
        """Feature names drawn from their own marginal, sorted."""
        skip = {"pkts"} if self._derives_pkts() else set()
        return sorted(name for name in self.features if name not in skip)

    @classmethod
    def from_json(cls, path: str) -> "TrafficProfile":
        """The profile in the JSON file at path. A malformed one, or one
        with a key the format does not define, raises a SynthError naming
        path and the key, such as features.dur.normal.mean. Token names are
        free."""
        raw = _read_json(path, "profile", SynthError)

        def need(ok: bool, key: str, what: str, value) -> None:
            if not ok:
                raise SynthError(f"{path}: {key} must be {what}, got {value!r}")

        def table(value, key: str) -> dict:
            need(isinstance(value, dict), key, "an object", value)
            return value

        def number(value, key: str) -> float:
            need(_finite(value), key, "a finite number", value)
            return float(value)

        def whole(value, key: str) -> int:
            need(_finite(value) and value == int(value), key, "a whole number", value)
            return int(value)

        def weights(value, key: str) -> dict[str, float]:
            return {t: number(w, f"{key}.{t}") for t, w in table(value, key).items()}

        if not isinstance(raw, dict) or "features" not in raw:
            raise SynthError(f"{path}: profile must be an object with 'features'")
        if unknown := sorted(raw.keys() - PROFILE_KEYS):
            raise SynthError(f"{path}: unknown profile key {unknown[0]!r}")
        features: dict[str, dict[int, FeatureSpec]] = {}
        for name, per_class in table(raw["features"], "features").items():
            features[name] = {}
            for key, spec in table(per_class, f"features.{name}").items():
                where = f"features.{name}.{key}"
                if key not in CLASS_KEYS:
                    raise SynthError(f"{path}: {where}: unknown class key {key!r}")
                if "mean" not in table(spec, where):
                    raise SynthError(f"{path}: {where} has no 'mean'")
                if unknown := sorted(spec.keys() - {"mean", "cv"}):
                    raise SynthError(f"{path}: {where}: unknown key {unknown[0]!r}")
                features[name][CLASS_KEYS[key]] = FeatureSpec(
                    mean=number(spec["mean"], f"{where}.mean"),
                    cv=number(spec.get("cv", 1.0), f"{where}.cv"))
        tokens: dict[str, dict[int, dict[str, float]]] = {}
        for column, value in table(raw.get("tokens", {}), "tokens").items():
            where = f"tokens.{column}"
            if set(table(value, where)) <= set(CLASS_KEYS):
                tokens[column] = {CLASS_KEYS[k]: weights(v, f"{where}.{k}")
                                  for k, v in value.items()}
            else:  # one flat weight table shared by both classes
                shared = weights(value, where)
                tokens[column] = {0: shared, 1: dict(shared)}
        fields = dict(class_ratio=number(raw.get("class_ratio", 0.5), "class_ratio"),
                      row_count=whole(raw.get("row_count", 1000), "row_count"),
                      seed=whole(raw.get("seed", 0), "seed"))
        try:
            return cls(features=features, tokens=tokens, **fields)
        except SynthError as exc:
            raise SynthError(f"{path}: {exc}") from None


def bundled_profile_path(name: str = "botiot-means") -> str:
    """Filesystem path of a profile shipped inside the package."""
    path = resources.files("botsift").joinpath(f"profiles/{name}.profile")
    if not path.is_file():
        available = sorted(
            p.name.removesuffix(".profile")
            for p in resources.files("botsift").joinpath("profiles").iterdir()
            if p.name.endswith(".profile"))
        raise SynthError(
            f"no bundled profile named {name!r}; available: {available}")
    with resources.as_file(path) as p:
        return str(p)


def default_profile() -> TrafficProfile:
    return TrafficProfile.from_json(bundled_profile_path())


def _lognormal_params(spec: FeatureSpec) -> tuple[float, float]:
    """(mu, sigma) of the log-normal with the spec's mean and cv."""
    sigma2 = math.log1p(spec.cv * spec.cv)
    mu = math.log(spec.mean) - 0.5 * sigma2
    return mu, math.sqrt(sigma2)


def round_half_up(value: Fraction) -> int:
    """Exact round-half-up of a rational (0.5 always rounds toward +inf)."""
    return math.floor(value + Fraction(1, 2))


def class_counts_for(row_count: int, class_ratio: float) -> tuple[int, int]:
    """Exact (normal, botnet) counts: botnet = round half up of n*ratio.

    The ratio is taken at its decimal face value (via its shortest
    round-trip representation), so 0.99527 of 50,000 is exactly 49,763.5
    and rounds up; the nearest binary float would land a hair below the
    half and silently round down.
    """
    botnet = round_half_up(Fraction(str(class_ratio)) * row_count)
    return row_count - botnet, botnet


def generate(profile: TrafficProfile, rows: int | None = None,
             seed: int | None = None) -> FlowTable:
    """Generate a flow table from a profile.

    rows and seed default to the profile's own values. Row order is a
    seeded shuffle of the two class blocks: the i-th row of a class takes
    that class's i-th draw of every column.
    """
    n = profile.row_count if rows is None else rows
    if n < 1:
        raise SynthError(f"need at least one row, got {n}")
    rng_seed = profile.seed if seed is None else seed
    rng = np.random.default_rng(rng_seed)
    normal_count, botnet_count = class_counts_for(n, profile.class_ratio)

    labels = np.concatenate([
        np.zeros(normal_count, dtype=np.int64),
        np.ones(botnet_count, dtype=np.int64),
    ])
    labels = labels[rng.permutation(n)]
    # row positions of the normal rows, then of the botnet rows
    class_rows = np.concatenate([np.flatnonzero(labels == 0),
                                 np.flatnonzero(labels == 1)])

    def in_row_order(per_class: dict[int, np.ndarray]) -> np.ndarray:
        drawn = np.concatenate([per_class[0], per_class[1]])
        column = np.empty_like(drawn)
        column[class_rows] = drawn
        return column

    counts = {0: normal_count, 1: botnet_count}
    values: dict[str, dict[int, np.ndarray]] = {}
    for name in profile.sampled_features():
        values[name] = {}
        for c in (0, 1):
            mu, sigma = _lognormal_params(profile.features[name][c])
            values[name][c] = rng.lognormal(mu, sigma, counts[c])
    if profile._derives_pkts():
        values["pkts"] = {c: values["spkts"][c] + values["dpkts"][c]
                          for c in (0, 1)}

    for column in sorted(profile.tokens):
        values[column] = {}
        for c in (0, 1):
            weights = profile.tokens[column][c]
            names = sorted(weights)
            p = np.array([weights[t] for t in names], dtype=np.float64)
            values[column][c] = rng.choice(names, size=counts[c], p=p / p.sum())

    return FlowTable({name: in_row_order(per_class)
                      for name, per_class in values.items()}, labels)
