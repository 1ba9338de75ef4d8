"""Cleansing, encoding, and min-max scaling."""

import numpy as np
import pytest

from botsift import (CleanseError, LoadError, Schema, apply_scaler, cleanse,
                     encode, fit_scaler, load_csv)

from conftest import make_dataset, make_flows


def write(tmp_path, text: str) -> str:
    path = tmp_path / "flows.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


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

    def test_order_preserved(self):
        rows = [dict(pkts=float(i), attack=0) for i in range(20)]
        rows[3] = dict(pkts=None, attack=0)
        kept = cleanse(make_flows(rows))
        values = kept.columns["pkts"].tolist()
        assert values == sorted(values)

    def test_a_table_that_drops_nothing_keeps_its_columns(self):
        flows = make_flows([dict(pkts=1.0, proto="tcp", attack=0),
                            dict(pkts=2.0, proto="udp", attack=1)])
        kept = cleanse(flows)
        assert all(kept.columns[name] is column for name, column in flows.columns.items())
        assert kept.missing_counts == {"pkts": 0, "proto": 0}

    def test_all_dropped_is_an_error(self):
        # each row lacks a different observed column, so none survives
        flows = make_flows([dict(pkts=None, dur=1.0, attack=0),
                            dict(pkts=2.0, dur=None, attack=1)])
        with pytest.raises(CleanseError):
            cleanse(flows)

    def test_column_absent_everywhere_is_not_enforced(self):
        # dur never appears, so its absence drops nothing
        flows = make_flows([dict(pkts=1.0, attack=0), dict(pkts=2.0, attack=1)])
        assert len(cleanse(flows)) == 2

    @pytest.mark.parametrize("default_role, rows, missing", [
        ("ignore", 2, {"pkts": 0}),  # dur is not loaded, so it drops nothing
        ("numeric", 1, {"pkts": 0, "dur": 1}),
        ("categorical", 1, {"pkts": 0, "dur": 1}),
    ], ids=["ignore", "numeric", "categorical"])
    def test_schema_restricts_enforced_columns(self, tmp_path, default_role, rows,
                                               missing):
        # the schema lists pkts; dur has the default role
        path = write(tmp_path, "pkts,dur,attack\n1,,0\n2,3,1\n")
        schema = Schema(roles={"attack": "label", "pkts": "numeric"},
                        default_role=default_role)
        kept = cleanse(load_csv(path, schema))
        assert len(kept) == rows
        assert kept.missing_counts == missing

class TestEncoding:
    def test_proto_codes_start_at_one_in_first_appearance_order(self):
        flows = make_flows([dict(proto=p, attack=0) for p in ["tcp", "udp", "tcp", "icmp"]])
        encoded, codes = encode(flows)
        assert codes["proto"] == {"tcp": 1, "udp": 2, "icmp": 3}
        assert encoded.columns["proto"].tolist() == [1.0, 2.0, 1.0, 3.0]

    def test_state_codes_start_at_ten(self):
        flows = make_flows([dict(state=s, attack=0) for s in ["CON", "INT", "CON"]])
        assert encode(flows)[1]["state"] == {"CON": 10, "INT": 11}

    def test_replaces_tokens_with_codes(self):
        flows = make_flows([dict(proto="tcp", state="CON", attack=0),
                            dict(proto="udp", state="INT", attack=1)])
        encoded, _ = encode(flows)
        assert encoded.columns["proto"].tolist() == [1.0, 2.0]
        assert encoded.columns["state"].tolist() == [10.0, 11.0]
        # the inputs are untouched
        assert flows.columns["proto"][0] == "tcp"

    def test_extra_token_column_is_encoded_from_one(self):
        flows = make_flows([dict(proto="tcp", flgs="eU", attack=0),
                            dict(proto="tcp", flgs=None, attack=1),
                            dict(proto="tcp", flgs="e", attack=1)])
        encoded, codes = encode(flows)
        assert codes == {"proto": {"tcp": 1}, "state": {}, "flgs": {"eU": 1, "e": 2}}
        assert np.array_equal(encoded.columns["flgs"], [1.0, np.nan, 2.0],
                              equal_nan=True)

    def test_numeric_columns_and_missing_counts_are_kept(self):
        flows = cleanse(make_flows([dict(pkts=1.5, proto="tcp", attack=0),
                                    dict(pkts=None, proto="udp", attack=1),
                                    dict(pkts=2.5, proto="udp", attack=1)]))
        encoded, codes = encode(flows)
        assert codes == {"proto": {"tcp": 1, "udp": 2}, "state": {}}
        assert encoded.columns["pkts"].tolist() == [1.5, 2.5]
        assert encoded.columns["proto"].tolist() == [1.0, 2.0]
        assert encoded.missing_counts == {"pkts": 1, "proto": 0}

    def test_zero_rows(self):
        flows = make_flows([dict(proto="tcp", attack=0)]).take(np.array([], dtype=np.int64))
        encoded, codes = encode(flows)
        assert codes == {"proto": {}, "state": {}}
        assert encoded.columns["proto"].dtype == np.float64
        assert len(encoded) == 0

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

    def test_empty_dataset_is_a_load_error(self):
        ds = make_dataset(np.empty((0, 1)), [], names=("a",))
        with pytest.raises(LoadError, match="empty dataset"):
            fit_scaler(ds)

    def test_mismatched_columns_rejected(self):
        ds = make_dataset([[1.0], [2.0]], [0, 1], names=("a",))
        other = make_dataset([[1.0], [2.0]], [0, 1], names=("b",))
        with pytest.raises(Exception, match="fitted"):
            apply_scaler(other, fit_scaler(ds))
