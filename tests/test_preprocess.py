"""Cleansing, encoding, and min-max scaling."""

import json
import re

import numpy as np
import pytest

from botsift import (CleanseError, EncodingError, EncodingMap, LoadError, Schema,
                     ScalerParams, apply_encoding, apply_scaler, cleanse,
                     fit_encoding, fit_scaler)

from conftest import make_dataset, make_flows


class TestCleanse:
    def test_drops_rows_with_missing_enforced_values(self):
        flows = make_flows([
            dict(pkts=1.0, dur=1.0, attack=0),
            dict(pkts=None, dur=2.0, attack=1),
            dict(pkts=3.0, dur=3.0, attack=1),
        ])
        kept = cleanse(flows)
        assert kept.columns["pkts"].tolist() == [1.0, 3.0]

    def test_disjoint_missing_sets_accumulate(self):
        # 10 records: 4 missing proto, 2 others missing dur -> 4 remain
        rows = []
        for i in range(10):
            proto = None if i < 4 else "tcp"
            dur = None if 4 <= i < 6 else 1.0
            rows.append(dict(proto=proto, dur=dur, attack=0))
        kept = cleanse(make_flows(rows))
        assert len(kept) == 4

    def test_reports_missing_values_per_enforced_column(self):
        flows = make_flows([dict(pkts=None, dur=None, proto="tcp", attack=0),
                            dict(pkts=1.0, dur=None, proto=None, attack=1),
                            dict(pkts=2.0, dur=3.0, proto="udp", attack=1)])
        kept = cleanse(flows)
        assert len(kept) == 1
        assert kept.missing_counts == {"pkts": 1, "dur": 2, "proto": 1}
        schema = Schema(roles={"attack": "label", "pkts": "numeric"})
        assert cleanse(flows, schema).missing_counts == {"pkts": 1}
        assert cleanse(flows, columns=["dur"]).missing_counts == {"dur": 2}

    def test_order_preserved(self):
        rows = [dict(pkts=float(i), attack=0) for i in range(20)]
        rows[3] = dict(pkts=None, attack=0)
        kept = cleanse(make_flows(rows))
        values = kept.columns["pkts"].tolist()
        assert values == sorted(values)

    def test_all_dropped_is_an_error(self):
        flows = make_flows([dict(pkts=None, dur=1.0, attack=0),
                            dict(pkts=None, dur=2.0, attack=1)])
        with pytest.raises(CleanseError):
            cleanse(flows, columns=["pkts"])

    def test_column_absent_everywhere_is_not_enforced(self):
        # dur never appears, so its absence drops nothing
        flows = make_flows([dict(pkts=1.0, attack=0), dict(pkts=2.0, attack=1)])
        assert len(cleanse(flows)) == 2

    def test_schema_restricts_enforced_columns(self):
        schema = Schema(roles={"attack": "label", "pkts": "numeric"})
        flows = make_flows([dict(pkts=1.0, dur=None, attack=0)])
        assert len(cleanse(flows, schema)) == 1

    def test_explicit_columns_override(self):
        flows = make_flows([dict(pkts=1.0, dur=None, attack=0),
                            dict(pkts=2.0, dur=1.0, attack=1)])
        assert len(cleanse(flows, columns=["dur"])) == 1


class TestEncoding:
    def test_proto_codes_start_at_one_in_first_appearance_order(self):
        flows = make_flows([dict(proto=p, attack=0) for p in ["tcp", "udp", "tcp", "icmp"]])
        mapping = fit_encoding(flows)
        assert mapping.proto_codes == {"tcp": 1, "udp": 2, "icmp": 3}

    def test_state_codes_start_at_ten(self):
        flows = make_flows([dict(state=s, attack=0) for s in ["CON", "INT", "CON"]])
        mapping = fit_encoding(flows)
        assert mapping.state_codes == {"CON": 10, "INT": 11}

    def test_apply_replaces_tokens_with_codes(self):
        flows = make_flows([dict(proto="tcp", state="CON", attack=0),
                            dict(proto="udp", state="INT", attack=1)])
        encoded = apply_encoding(flows, fit_encoding(flows))
        assert encoded.columns["proto"].tolist() == [1.0, 2.0]
        assert encoded.columns["state"].tolist() == [10.0, 11.0]
        # the inputs are untouched
        assert flows.columns["proto"][0] == "tcp"

    def test_unknown_token_errors_with_field_and_token(self):
        mapping = fit_encoding(make_flows([dict(proto="tcp", attack=0)]))
        with pytest.raises(EncodingError, match=r"proto.*'icmp'"):
            apply_encoding(make_flows([dict(proto="icmp", attack=0)]), mapping)

    def test_round_trips_through_json(self, tmp_path):
        flows = make_flows([dict(proto="tcp", state="RST", attack=0),
                            dict(proto="arp", state="CON", attack=1)])
        mapping = fit_encoding(flows)
        path = str(tmp_path / "encoding.json")
        mapping.to_json(path)
        again = EncodingMap.from_json(path)
        assert again.proto_codes == mapping.proto_codes
        assert again.state_codes == mapping.state_codes

    @pytest.mark.parametrize("payload, message", [
        ([1], "encoding file must hold a JSON object"),
        ({"proto": ["tcp"]}, "key 'proto' must hold an object"),
        ({"proto": {"tcp": "1"}}, "key 'proto': code of token 'tcp' is '1'"),
        ({"state": {"CON": 1.5}}, "key 'state': code of token 'CON' is 1.5"),
        ({"flag": {"x": True}}, "key 'flag': code of token 'x' is True"),
    ])
    def test_malformed_file_names_path_and_key(self, tmp_path, payload, message):
        path = tmp_path / "encoding.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(LoadError, match="^" + re.escape(f"{path}: {message}")):
            EncodingMap.from_json(str(path))


class TestScaler:
    def test_basic_scaling(self):
        ds = make_dataset([[0.0], [5.0], [10.0]], [0, 1, 1])
        scaled = apply_scaler(ds, fit_scaler(ds))
        assert list(scaled.features[:, 0]) == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        ds = make_dataset([[7.0], [7.0], [7.0]], [0, 1, 1])
        scaled = apply_scaler(ds, fit_scaler(ds))
        assert list(scaled.features[:, 0]) == [0.0, 0.0, 0.0]

    def test_out_of_range_values_clamp(self):
        train = make_dataset([[0.0], [10.0]], [0, 1])
        params = fit_scaler(train)
        test = make_dataset([[12.0], [-4.0]], [1, 0])
        scaled = apply_scaler(test, params)
        assert list(scaled.features[:, 0]) == [1.0, 0.0]

    def test_output_range_and_endpoints(self, rng):
        ds = make_dataset(rng.normal(13.0, 5.0, (100, 3)), rng.integers(0, 2, 100))
        scaled = apply_scaler(ds, fit_scaler(ds))
        assert scaled.features.min() >= 0.0
        assert scaled.features.max() <= 1.0
        for j in range(3):
            col = scaled.features[:, j]
            assert col.min() == 0.0 and col.max() == 1.0

    def test_scaling_preserves_order(self, rng):
        ds = make_dataset(rng.lognormal(1.0, 2.0, (60, 2)), rng.integers(0, 2, 60))
        scaled = apply_scaler(ds, fit_scaler(ds))
        for j in range(2):
            raw_order = np.argsort(ds.features[:, j], kind="stable")
            new_order = np.argsort(scaled.features[:, j], kind="stable")
            assert np.array_equal(raw_order, new_order)

    def test_idempotent_on_scaled_data(self, rng):
        ds = make_dataset(rng.random((50, 2)) * 40 - 7, rng.integers(0, 2, 50))
        once = apply_scaler(ds, fit_scaler(ds))
        twice = apply_scaler(once, fit_scaler(once))
        assert np.allclose(once.features, twice.features, atol=1e-15)

    def test_mismatched_columns_rejected(self):
        ds = make_dataset([[1.0], [2.0]], [0, 1], names=("a",))
        other = make_dataset([[1.0], [2.0]], [0, 1], names=("b",))
        with pytest.raises(Exception, match="fitted"):
            apply_scaler(other, fit_scaler(ds))

    def test_round_trips_through_json(self, tmp_path, rng):
        ds = make_dataset(rng.random((20, 3)), rng.integers(0, 2, 20))
        params = fit_scaler(ds)
        path = str(tmp_path / "scaler.json")
        params.to_json(path)
        again = ScalerParams.from_json(path)
        assert again.feature_names == params.feature_names
        assert np.array_equal(again.minima, params.minima)
        assert np.array_equal(again.maxima, params.maxima)
        before = apply_scaler(ds, params).features
        after = apply_scaler(ds, again).features
        assert np.array_equal(before, after)

    @pytest.mark.parametrize("payload, message", [
        ([1], "scaler file must hold a JSON object"),
        ({"features": ["a"], "max": [1.0]}, "key 'min' is missing"),
        ({"min": [0.0], "max": [1.0]}, "key 'features' is missing"),
        ({"features": ["a"], "min": [0.0]}, "key 'max' is missing"),
        ({"features": "a", "min": [0.0], "max": [1.0]}, "key 'features' must hold a list"),
        ({"features": [1], "min": [0.0], "max": [1.0]}, "key 'features' must list names"),
        ({"features": ["a", "b"], "min": [0.0], "max": [1.0, 2.0]},
         "key 'min' has 1 values for 2 features"),
        ({"features": ["a"], "min": [0.0], "max": [1.0, 2.0]},
         "key 'max' has 2 values for 1 features"),
        ({"features": ["a"], "min": ["0"], "max": [1.0]}, "key 'min' must hold finite"),
        ({"features": ["a"], "min": [0.0], "max": [float("nan")]},
         "key 'max' must hold finite"),
    ])
    def test_malformed_file_names_path_and_key(self, tmp_path, payload, message):
        path = tmp_path / "scaler.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(LoadError, match="^" + re.escape(f"{path}: {message}")):
            ScalerParams.from_json(str(path))
