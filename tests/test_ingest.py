import json
import logging
import re

import numpy as np
import pytest

from optbench import (
    CsvRowError,
    Dataset,
    GbdtConfig,
    IncompatibleModelError,
    MlpTrainConfig,
    SchemaError,
    THREE_LAYER,
    forward,
    load_model,
    predict_gbdt,
    read_csv,
    save_model,
    train_gbdt,
    train_mlp,
    write_csv,
)
from optbench.ingest import (
    CSV_HEADER,
    MAGIC_NET,
    MAGIC_TREES,
    load_model_manifest,
    load_network,
    load_tree_ensemble,
    write_metrics_csv,
)

from conftest import make_dataset, make_quote


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        from optbench import OptionType

        quotes = [
            make_quote(),
            make_quote(option_type=OptionType.PUT, strike=95.0, implied_vol=None),
            make_quote(midpoint=0.01),
        ]
        path = write_csv(quotes, tmp_path / "q.csv")
        back = read_csv(path)
        assert back == quotes

    def test_header_written(self, tmp_path):
        path = write_csv([make_quote()], tmp_path / "q.csv")
        first = path.read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER)
        assert first.startswith("option_type,strike,underlying_price")
        assert first.endswith("lag_20,midpoint")

    def test_missing_vol_is_empty_cell(self, tmp_path):
        path = write_csv([make_quote(implied_vol=None)], tmp_path / "q.csv")
        row = path.read_text().splitlines()[1]
        cells = row.split(",")
        assert cells[6] == ""
        assert read_csv(path)[0].implied_vol is None

    def test_float_precision_survives(self, tmp_path):
        q = make_quote(strike=100.0 / 3.0, midpoint=1.0 / 7.0)
        back = read_csv(write_csv([q], tmp_path / "q.csv"))[0]
        assert back.strike == q.strike
        assert back.midpoint == q.midpoint

    def test_byte_determinism(self, tmp_path):
        quotes = [make_quote(strike=90.0 + i) for i in range(10)]
        a = write_csv(quotes, tmp_path / "a.csv").read_bytes()
        b = write_csv(quotes, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_empty_file_round_trip(self, tmp_path):
        path = write_csv([], tmp_path / "q.csv")
        assert read_csv(path) == []

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(SchemaError):
            read_csv(path)

    def test_single_bad_row_in_tiny_file(self, tmp_path):
        path = write_csv([make_quote()], tmp_path / "q.csv")
        with path.open("a") as fh:
            fh.write("C,not_a_number" + ",1" * 26 + "\n")
        with pytest.raises(CsvRowError) as exc:
            read_csv(path)
        assert "line 3" in str(exc.value)

    def test_few_bad_rows_skipped_with_warning(self, tmp_path, caplog):
        quotes = [make_quote(strike=50.0 + i) for i in range(300)]
        path = write_csv(quotes, tmp_path / "q.csv")
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace("C", "X", 1)  # corrupt one row of 300
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING):
            back = read_csv(path)
        assert len(back) == 299
        assert any("line 6" in r.message for r in caplog.records)

    def test_wrong_cell_count_is_bad_row(self, tmp_path):
        path = write_csv([make_quote()], tmp_path / "q.csv")
        with path.open("a") as fh:
            fh.write("C,1,2\n")
        with pytest.raises(CsvRowError):
            read_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "nope.csv")


class TestModelFiles:
    def make_tree_model(self):
        train = make_dataset(120, seed=3)
        val = make_dataset(30, seed=4)
        return train_gbdt(train, val, GbdtConfig(max_depth=3, num_rounds=4)), train

    def make_net_model(self):
        train = make_dataset(60, seed=5)
        val = make_dataset(20, seed=6)
        cfg = MlpTrainConfig(max_epochs=3, batch_size=16, seed=1)
        net, _ = train_mlp(train, val, THREE_LAYER, cfg)
        return net, train

    def test_tree_round_trip_identical_predictions(self, tmp_path):
        model, train = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        back = load_tree_ensemble(path)
        a = predict_gbdt(model, train.features)
        b = predict_gbdt(back, train.features)
        assert np.array_equal(a, b)
        assert back.base_score == model.base_score
        assert back.best_round == model.best_round

    def test_net_round_trip_identical_predictions(self, tmp_path):
        net, train = self.make_net_model()
        path = save_model(net, tmp_path / "n.model")
        back = load_network(path)
        assert np.array_equal(forward(net, train.features), forward(back, train.features))

    def test_magic_bytes(self, tmp_path):
        model, _ = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        assert path.read_bytes()[:8] == MAGIC_TREES
        net, _ = self.make_net_model()
        npath = save_model(net, tmp_path / "n.model")
        assert npath.read_bytes()[:8] == MAGIC_NET

    def test_file_bytes_reproducible(self, tmp_path):
        model, _ = self.make_tree_model()
        a = save_model(model, tmp_path / "a.model").read_bytes()
        b = save_model(model, tmp_path / "b.model").read_bytes()
        assert a == b

    def test_generic_loader_dispatches(self, tmp_path):
        model, _ = self.make_tree_model()
        net, _ = self.make_net_model()
        t = load_model(save_model(model, tmp_path / "t.model"))
        n = load_model(save_model(net, tmp_path / "n.model"))
        assert type(t).__name__ == "TreeEnsemble"
        assert type(n).__name__ == "NetworkParams"

    def test_wrong_kind_loader_rejects(self, tmp_path):
        model, _ = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        with pytest.raises(IncompatibleModelError):
            load_network(path)

    def test_garbage_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_bytes(b"NOTMAGIC" + b"{}")
        with pytest.raises(IncompatibleModelError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model, _ = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(IncompatibleModelError):
            load_model(path)

    def test_corrupt_counts_rejected(self, tmp_path):
        import json

        model, _ = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        doc["model"]["n_trees"] = 99
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        with pytest.raises(IncompatibleModelError):
            load_model(path)

    @pytest.mark.parametrize(
        "patch",
        [
            {"left": 0, "right": 0},  # the root is its own child: a cycle
            {"right": 10**6},  # a child past the last node
            {"feature": 99},  # no such feature column
            {"threshold": float("nan")},
            {"value": float("inf")},
            {"left": 2**40},  # does not fit a node index
        ],
        ids=["cycle", "child_out_of_range", "feature_out_of_range",
             "nan_threshold", "inf_value", "oversized_index"],
    )
    def test_corrupt_tree_rejected(self, tmp_path, patch):
        model, _ = self.make_tree_model()
        assert model.trees[0].feature[0] >= 0  # the root splits
        path = save_model(model, tmp_path / "m.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        for key, value in patch.items():
            doc["model"]["trees"][0][key][0] = value
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        with pytest.raises(IncompatibleModelError):
            load_model(path)

    def test_tree_without_nodes_rejected(self, tmp_path):
        model, _ = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        doc["model"]["trees"][0] = {k: [] for k in doc["model"]["trees"][0]}
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        with pytest.raises(IncompatibleModelError):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("feature_std", 0.0),
            ("feature_std", -1.0),
            ("feature_std", float("inf")),
            ("feature_std", float("nan")),
            ("feature_mean", float("nan")),
            ("feature_mean", float("-inf")),
        ],
        ids=["zero_std", "negative_std", "inf_std", "nan_std", "nan_mean", "inf_mean"],
    )
    def test_bad_feature_stats_rejected(self, tmp_path, key, value):
        net, _ = self.make_net_model()
        path = save_model(net, tmp_path / "n.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        doc["model"][key][0] = value
        path.write_bytes(raw[:8] + json.dumps(doc).encode())  # NaN/Infinity literals
        with pytest.raises(IncompatibleModelError, match=re.escape(str(path))):
            load_model(path)

    def test_older_file_with_etas_still_loads(self, tmp_path):
        # format-v1 files written before `etas` was dropped carry one eta per tree
        model, train = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        assert "etas" not in doc["model"]
        doc["model"]["etas"] = [r.eta for r in model.history[: len(model.trees)]]
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        back = load_tree_ensemble(path)
        assert np.array_equal(predict_gbdt(back, train.features), predict_gbdt(model, train.features))
        assert back.history == model.history
        doc["model"]["etas"].append(0.5)
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        with pytest.raises(IncompatibleModelError, match="etas do not align"):
            load_model(path)

    def test_manifest_round_trip(self, tmp_path):
        model, _ = self.make_tree_model()
        manifest = {"kind": "gbdt5", "dataset_digest": "abc123"}
        path = save_model(model, tmp_path / "m.model", manifest=manifest)
        assert load_model_manifest(path) == manifest

    def test_no_nan_in_file(self, tmp_path):
        model, _ = self.make_tree_model()
        text = save_model(model, tmp_path / "m.model").read_bytes()[8:].decode()
        assert "NaN" not in text
        assert "Infinity" not in text


class TestMetricsCsv:
    def test_round_records(self, tmp_path):
        model_train = make_dataset(50, seed=9)
        model = train_gbdt(model_train, model_train, GbdtConfig(max_depth=2, num_rounds=3))
        path = write_metrics_csv(model.history, tmp_path / "m.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "round_index,eta,train_mae,val_mae"
        assert len(lines) == 4
