"""Seeded synthetic flow generation."""

import json
import math

import numpy as np
import pytest

from botsift import (FeatureSpec, SynthError, TrafficProfile,
                     bundled_profile_path, class_counts_for, class_summary,
                     default_profile, generate)


def tiny_profile(**overrides):
    fields = dict(
        features={
            "dur": {0: FeatureSpec(mean=70.0), 1: FeatureSpec(mean=7.0)},
            "rate": {0: FeatureSpec(mean=30.0), 1: FeatureSpec(mean=900.0)},
        },
        tokens={"proto": {0: {"tcp": 0.7, "udp": 0.3},
                          1: {"tcp": 0.2, "udp": 0.8}}},
        class_ratio=0.8,
        row_count=400,
        seed=3,
    )
    fields.update(overrides)
    return TrafficProfile(**fields)


class TestClassCounts:
    def test_exact_split(self):
        assert class_counts_for(10_000, 0.995) == (50, 9_950)
        assert class_counts_for(50_000, 0.995) == (250, 49_750)

    def test_half_rounds_up(self):
        assert class_counts_for(101, 0.5) == (50, 51)
        assert class_counts_for(1, 0.5) == (0, 1)


class TestGenerate:
    def test_row_count_and_labels(self):
        flows = generate(tiny_profile())
        assert len(flows) == 400
        botnet = int(flows.labels.sum())
        assert botnet == 320 and len(flows) - botnet == 80

    def test_rows_and_seed_overrides(self):
        profile = tiny_profile()
        flows = generate(profile, rows=50, seed=99)
        assert len(flows) == 50
        other = generate(profile, rows=50, seed=100)
        assert flows.columns["dur"].tolist() != other.columns["dur"].tolist()

    def test_same_inputs_reproduce_exactly(self):
        profile = tiny_profile()
        a = generate(profile)
        b = generate(profile)
        assert a.labels.tolist() == b.labels.tolist()
        for name in ("dur", "rate", "proto"):
            assert a.columns[name].tolist() == b.columns[name].tolist()

    def test_feature_insertion_order_does_not_matter(self):
        base = tiny_profile()
        flipped = tiny_profile(features={
            "rate": {0: FeatureSpec(mean=30.0), 1: FeatureSpec(mean=900.0)},
            "dur": {0: FeatureSpec(mean=70.0), 1: FeatureSpec(mean=7.0)},
        })
        a = generate(base)
        b = generate(flipped)
        for name in ("dur", "rate"):
            assert a.columns[name].tolist() == b.columns[name].tolist()

    def test_values_positive_and_tokens_from_profile(self):
        flows = generate(tiny_profile())
        assert (flows.columns["dur"] > 0).all() and (flows.columns["rate"] > 0).all()
        assert set(flows.columns["proto"].tolist()) <= {"tcp", "udp"}

    def test_token_weights_differ_by_class(self):
        flows = generate(tiny_profile(row_count=4000))
        tcp_share = {}
        for c in (0, 1):
            proto = flows.columns["proto"][flows.labels == c]
            tcp_share[c] = float(np.mean(proto == "tcp"))
        assert tcp_share[0] > 0.5 > tcp_share[1]

    def test_packet_total_is_the_sum_of_directions(self):
        profile = TrafficProfile(
            features={
                "spkts": {0: FeatureSpec(mean=1100.0), 1: FeatureSpec(mean=2.0)},
                "dpkts": {0: FeatureSpec(mean=400.0), 1: FeatureSpec(mean=1.5)},
                "pkts": {0: FeatureSpec(mean=1500.0), 1: FeatureSpec(mean=3.5)},
            },
            class_ratio=0.6, row_count=300, seed=1)
        flows = generate(profile)
        assert np.array_equal(flows.columns["pkts"],
                              flows.columns["spkts"] + flows.columns["dpkts"])

    def test_zero_rows_rejected(self):
        with pytest.raises(SynthError, match="at least one row"):
            generate(tiny_profile(), rows=0)


class TestStatisticalRecovery:
    def test_class_means_land_within_three_standard_errors(self):
        profile = default_profile()
        summary = class_summary(generate(profile))
        counts = {0: summary.counts[0], 1: summary.counts[1]}
        for name, per_class in profile.features.items():
            for c, spec in per_class.items():
                got = summary.means[c][name]
                if name == "pkts" and "spkts" in profile.features:
                    # derived column: its variance is the sum of the
                    # direction variances
                    var = sum(
                        (profile.features[col][c].mean *
                         profile.features[col][c].cv) ** 2
                        for col in ("spkts", "dpkts"))
                    se = math.sqrt(var / counts[c])
                else:
                    se = spec.mean * spec.cv / math.sqrt(counts[c])
                assert abs(got - spec.mean) <= 3.0 * se, (
                    f"{name} class {c}: mean {got} vs {spec.mean} "
                    f"(3se {3 * se})")


class TestProfileValidation:
    def test_ratio_bounds(self):
        with pytest.raises(SynthError, match="class_ratio"):
            tiny_profile(class_ratio=0.0)
        with pytest.raises(SynthError, match="class_ratio"):
            tiny_profile(class_ratio=1.5)

    def test_row_count_bound(self):
        with pytest.raises(SynthError, match="row_count"):
            tiny_profile(row_count=0)

    def test_feature_needs_both_classes(self):
        with pytest.raises(SynthError, match="both class"):
            tiny_profile(features={"dur": {0: FeatureSpec(mean=1.0)}})

    def test_mean_and_cv_must_be_positive(self):
        with pytest.raises(SynthError, match="mean must be positive"):
            tiny_profile(features={"dur": {0: FeatureSpec(mean=0.0),
                                           1: FeatureSpec(mean=1.0)}})
        with pytest.raises(SynthError, match="cv must be positive"):
            tiny_profile(features={"dur": {0: FeatureSpec(mean=1.0, cv=0.0),
                                           1: FeatureSpec(mean=1.0)}})

    def test_token_tables_validated(self):
        with pytest.raises(SynthError, match="no tokens"):
            tiny_profile(tokens={"proto": {0: {}, 1: {"tcp": 1.0}}})
        with pytest.raises(SynthError, match="bad weights"):
            tiny_profile(tokens={"proto": {0: {"tcp": -2.0},
                                           1: {"tcp": 1.0}}})

    @pytest.mark.parametrize("per_class", [{0: {"tcp": 1.0}}, {1: {"tcp": 1.0}}, {},
                                           {0: {"tcp": 1.0}, 2: {"tcp": 1.0}}])
    def test_token_tables_need_both_classes(self, per_class):
        # built in code as from a file, a half table never reaches generate
        with pytest.raises(SynthError, match="^token column 'proto' needs both classes$"):
            tiny_profile(tokens={"proto": per_class})

    def test_inconsistent_packet_means_rejected(self):
        with pytest.raises(SynthError, match="pkts"):
            TrafficProfile(
                features={
                    "spkts": {0: FeatureSpec(mean=10.0), 1: FeatureSpec(mean=1.0)},
                    "dpkts": {0: FeatureSpec(mean=10.0), 1: FeatureSpec(mean=1.0)},
                    "pkts": {0: FeatureSpec(mean=999.0), 1: FeatureSpec(mean=2.0)},
                },
                class_ratio=0.5, row_count=10, seed=0)


# A valid profile, then malformed ones: each with the key its SynthError names.
GOOD_FEATURES = {"dur": {"normal": {"mean": 70.0}, "botnet": {"mean": 7.0, "cv": 2.0}}}
BAD_PROFILES = [
    ([1], "profile must be an object with 'features'"),
    ({"features": 1}, "features must be an object, got 1"),
    ({"features": {"dur": []}}, "features.dur must be an object"),
    ({"features": {"dur": {"normal": 1}}}, "features.dur.normal must be an object"),
    ({"features": {"dur": {"normal": {"cv": 1.0}}}}, "features.dur.normal has no 'mean'"),
    ({"features": {"dur": {"normal": {"mean": "x"}}}},
     "features.dur.normal.mean must be a finite number, got 'x'"),
    ({"features": {"dur": {"normal": {"mean": True}}}},
     "features.dur.normal.mean must be a finite number, got True"),
    ({"features": {"dur": {"botnet": {"mean": 1.0, "cv": None}}}},
     "features.dur.botnet.cv must be a finite number, got None"),
    ({"features": {"dur": {"other": {"mean": 1.0}}}}, "unknown class key 'other'"),
    ({"features": GOOD_FEATURES, "tokens": 1}, "tokens must be an object"),
    ({"features": GOOD_FEATURES, "tokens": {"proto": "tcp"}},
     "tokens.proto must be an object"),
    ({"features": GOOD_FEATURES, "tokens": {"proto": {"tcp": "x"}}},
     "tokens.proto.tcp must be a finite number"),
    ({"features": GOOD_FEATURES, "tokens": {"proto": {"normal": 1, "botnet": {}}}},
     "tokens.proto.normal must be an object"),
    ({"features": GOOD_FEATURES,
      "tokens": {"proto": {"normal": {"tcp": [1]}, "botnet": {"tcp": 1.0}}}},
     "tokens.proto.normal.tcp must be a finite number"),
    ({"features": GOOD_FEATURES, "tokens": {"proto": {"normal": {"tcp": 1.0}}}},
     "token column 'proto' needs both classes"),
    ({"features": GOOD_FEATURES, "class_ratio": "0.5"},
     "class_ratio must be a finite number"),
    ({"features": GOOD_FEATURES, "row_count": 10.5}, "row_count must be a whole number"),
    ({"features": GOOD_FEATURES, "row_count": "10"}, "row_count must be a whole number"),
    ({"features": GOOD_FEATURES, "seed": None}, "seed must be a whole number"),
    ({"features": GOOD_FEATURES, "class_ratio": 1.5}, "class_ratio must be in (0, 1)"),
    ({"features": GOOD_FEATURES, "class_ration": 0.9},
     "unknown profile key 'class_ration'"),
    ({"features": {"dur": {"normal": {"mean": 1.0, "cvv": 9}}}},
     "features.dur.normal: unknown key 'cvv'"),
]


class TestProfileFiles:
    def test_a_valid_file_loads(self, tmp_path):
        path = tmp_path / "ok.profile"
        path.write_text(json.dumps({"features": GOOD_FEATURES, "row_count": 1e3}))
        profile = TrafficProfile.from_json(str(path))
        assert profile.row_count == 1000 and profile.features["dur"][1].cv == 2.0

    @pytest.mark.parametrize("raw, message", BAD_PROFILES,
                             ids=[m for _, m in BAD_PROFILES])
    def test_a_malformed_file_names_itself_and_the_key(self, tmp_path, raw, message):
        path = tmp_path / "bad.profile"
        path.write_text(json.dumps(raw))
        with pytest.raises(SynthError) as info:
            TrafficProfile.from_json(str(path))
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)


class TestBundledProfile:
    def test_loads_with_published_shape(self):
        profile = default_profile()
        assert profile.class_ratio == 0.995
        assert profile.row_count == 50_000
        assert profile.features["pkts"][0].mean == 1509.39
        assert profile.features["pkts"][1].mean == 3.61
        assert profile.features["spkts"][0].mean == 1106.28
        assert profile.features["dpkts"][1].mean == 1.46
        assert set(profile.tokens) == {"proto", "state"}

    def test_bundled_path_exists(self):
        import os
        assert os.path.exists(bundled_profile_path())

    def test_unknown_bundled_name_rejected(self):
        with pytest.raises(SynthError, match="no bundled profile"):
            bundled_profile_path("missing-name")

    def test_json_profile_round_trip(self, tmp_path):
        import json
        path = str(tmp_path / "custom.profile")
        payload = {
            "features": {
                "dur": {"normal": {"mean": 70.0, "cv": 1.0},
                        "botnet": {"mean": 7.0, "cv": 2.0}},
            },
            "tokens": {"proto": {"tcp": 0.5, "udp": 0.5}},
            "class_ratio": 0.9,
            "row_count": 120,
            "seed": 11,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        profile = TrafficProfile.from_json(path)
        assert profile.class_ratio == 0.9
        assert profile.features["dur"][1].cv == 2.0
        # a flat token table is shared by both classes
        assert profile.tokens["proto"][0] == {"tcp": 0.5, "udp": 0.5}
        assert profile.tokens["proto"][1] == {"tcp": 0.5, "udp": 0.5}
        assert len(generate(profile)) == 120
