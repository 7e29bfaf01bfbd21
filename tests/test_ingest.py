import ast
import json
import logging
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import optbench
from optbench import (
    Architecture,
    CsvRowError,
    Dataset,
    GbdtConfig,
    IncompatibleModelError,
    LayerSpec,
    MlpTrainConfig,
    SchemaError,
    THREE_LAYER,
    TreeEnsemble,
    ValidationError,
    forward,
    load_model,
    predict_gbdt,
    read_csv,
    save_model,
    train_gbdt,
    train_mlp,
    write_csv,
)
from optbench.core import QUOTE_COLUMNS, QUOTE_WIDTH
from optbench.ingest import (
    MAGIC_NET,
    MAGIC_TREES,
    _WRITE_CHUNK,
    load_model_and_manifest,
    write_file,
    write_metrics_csv,
    write_rows,
)

from conftest import make_dataset, make_quote, make_quotes, per_cell_csv


def bits(table: np.ndarray) -> np.ndarray:
    """The table's raw float64 bit patterns, so -0.0 and NaNs compare exactly."""
    return table.view(np.uint64)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        quotes = make_quotes(
            make_quote(),
            make_quote(option_type=0.0, strike=95.0, implied_vol=np.nan),
            make_quote(midpoint=0.01),
        )
        path = write_csv(quotes, tmp_path / "q.csv")
        back = read_csv(path)
        assert back.shape == quotes.shape
        assert np.array_equal(bits(back), bits(quotes))

    def test_header_written(self, tmp_path):
        path = write_csv(make_quote(), tmp_path / "q.csv")
        first = path.read_text().splitlines()[0]
        assert first == ",".join(QUOTE_COLUMNS)
        assert first.startswith("option_type,strike,underlying_price")
        assert first.endswith("lag_20,midpoint")

    def test_missing_vol_is_empty_cell(self, tmp_path):
        path = write_csv(make_quote(implied_vol=np.nan), tmp_path / "q.csv")
        row = path.read_text().splitlines()[1]
        cells = row.split(",")
        assert cells[0] == "C"
        assert cells[6] == ""
        assert np.isnan(read_csv(path)[0, 6])

    def test_float_precision_survives(self, tmp_path):
        q = make_quote(strike=100.0 / 3.0, midpoint=1.0 / 7.0)
        back = read_csv(write_csv(q, tmp_path / "q.csv"))
        assert np.array_equal(bits(back), bits(q))

    def test_byte_determinism(self, tmp_path):
        quotes = make_quotes(*(make_quote(strike=90.0 + i) for i in range(10)))
        a = write_csv(quotes, tmp_path / "a.csv").read_bytes()
        b = write_csv(quotes, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_empty_file_round_trip(self, tmp_path):
        path = write_csv(make_quotes(), tmp_path / "q.csv")
        assert path.read_text() == ",".join(QUOTE_COLUMNS) + "\n"
        assert read_csv(path).shape == (0, QUOTE_WIDTH)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(SchemaError):
            read_csv(path)
        path.write_text("")
        with pytest.raises(SchemaError, match="empty file"):
            read_csv(path)

    def test_single_bad_row_in_tiny_file(self, tmp_path):
        path = write_csv(make_quote(), tmp_path / "q.csv")
        with path.open("a") as fh:
            fh.write("C,not_a_number" + ",1" * 26 + "\n")
        with pytest.raises(CsvRowError) as exc:
            read_csv(path)
        assert "line 3" in str(exc.value)

    def test_few_bad_rows_skipped_with_warning(self, tmp_path, caplog):
        quotes = make_quotes(*(make_quote(strike=50.0 + i) for i in range(300)))
        path = write_csv(quotes, tmp_path / "q.csv")
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace("C", "X", 1)  # corrupt one row of 300
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING):
            back = read_csv(path)
        assert len(back) == 299
        assert np.array_equal(back, np.delete(quotes, 4, axis=0))
        assert any("line 6" in r.message for r in caplog.records)

    def test_wrong_cell_count_is_bad_row(self, tmp_path):
        path = write_csv(make_quote(), tmp_path / "q.csv")
        with path.open("a") as fh:
            fh.write("C,1,2\n")
        with pytest.raises(CsvRowError):
            read_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "nope.csv")

    def test_undecodable_line_is_bad_row(self, tmp_path, caplog):
        quotes = make_quotes(*(make_quote(strike=50.0 + i) for i in range(300)))
        path = write_csv(quotes, tmp_path / "q.csv")
        lines = path.read_bytes().splitlines()
        lines[10] = lines[10][:4] + b"\xff" + lines[10][4:]  # line 11 of the file
        path.write_bytes(b"\n".join(lines) + b"\n")
        with caplog.at_level(logging.WARNING):
            back = read_csv(path)
        assert np.array_equal(back, np.delete(quotes, 9, axis=0))
        assert any("line 11" in r.message for r in caplog.records)

        tiny = write_csv(make_quote(), tmp_path / "tiny.csv")
        tiny.write_bytes(tiny.read_bytes() + b"C,\xff\n")
        with pytest.raises(CsvRowError, match="line 3"):
            read_csv(tiny)

    def test_undecodable_header_is_schema_error(self, tmp_path):
        path = write_csv(make_quote(), tmp_path / "q.csv")
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(SchemaError, match="header"):
            read_csv(path)

    @pytest.mark.parametrize(
        "column, first, second",
        [
            ("rate", 0.0, -0.0),
            ("lag_7", 100.07, np.nextafter(100.07, np.inf)),
            ("implied_vol", np.nan, 0.25),
        ],
        ids=["signed-zero", "one-ulp", "nan-vol"],
    )
    def test_terms_differing_only_in_bits(self, tmp_path, column, first, second):
        # runs of one chain's terms, then twins that differ only in `column`
        quotes = make_quotes(*(make_quote(strike=90.0 + i) for i in range(8)))
        quotes[:, QUOTE_COLUMNS.index(column)] = [first, first, second, first, second, second, first, second]
        path = write_csv(quotes, tmp_path / "q.csv")
        assert path.read_bytes() == per_cell_csv(quotes)
        assert np.array_equal(bits(read_csv(path)), bits(quotes))

    def test_runs_across_write_chunks(self, tmp_path):
        # one chain longer than a write chunk; -0.0 and 0.0 share a chunk
        n = _WRITE_CHUNK + 3
        quotes = np.repeat(make_quote(rate=-0.0), n, axis=0)
        quotes[:, QUOTE_COLUMNS.index("strike")] = 50.0 + np.arange(n) / 8
        quotes[::2, QUOTE_COLUMNS.index("dividend_yield")] = 0.0
        quotes[-2:, QUOTE_COLUMNS.index("rate")] = 0.0
        path = write_csv(quotes, tmp_path / "q.csv")
        assert path.read_bytes() == per_cell_csv(quotes)
        assert np.array_equal(bits(read_csv(path)), bits(quotes))

    def test_malformed_line_after_a_good_line_of_its_chain(self, tmp_path, caplog):
        chain_a = [make_quote(strike=50.0 + i) for i in range(400)]
        chain_b = [make_quote(strike=50.0 + i, rate=0.03) for i in range(400)]
        quotes = make_quotes(*chain_a, *chain_b)
        path = write_csv(quotes, tmp_path / "q.csv")
        header, *rows = path.read_bytes().splitlines()

        def edit(row: bytes, index: int, cell: bytes) -> bytes:
            cells = row.split(b",")
            cells[index] = cell
            return b",".join(cells)

        lag_3, midpoint = QUOTE_COLUMNS.index("lag_3"), QUOTE_COLUMNS.index("midpoint")
        utf8_at = len(b",".join(rows[61].split(b",")[:lag_3])) + 1
        # (row the bad line follows, bad line, the warning it gives)
        bad = [
            (10, rows[11] + b",", "expected 28 columns, got 29"),
            (20, b"X" + rows[21][1:], "option_type: expected 'C' or 'P', got 'X'"),
            (30, edit(rows[31], 1, b"9O.0"), "could not convert string to float: '9O.0'"),
            (40, edit(rows[41], lag_3, b"1e"), "could not convert string to float: '1e'"),
            (50, edit(rows[51], midpoint, b""), "could not convert string to float: ''"),
            (60, edit(rows[61], lag_3, b"\xff"),
             f"'utf-8' codec can't decode byte 0xff in position {utf8_at}: invalid start byte"),
            # chain b's terms after a good line of chain a: parsed, then refused
            (399, edit(rows[400], midpoint, b"-"), "could not convert string to float: '-'"),
        ]
        lines, expected = [header], []
        for i, row in enumerate(rows):
            lines.append(row)
            for after, line, message in bad:
                if after == i:
                    lines.append(line)
                    expected.append(f"{path}: skipping malformed line {len(lines)}: {message}")
        path.write_bytes(b"\n".join(lines) + b"\n")
        with caplog.at_level(logging.WARNING):
            back = read_csv(path)
        assert [r.getMessage() for r in caplog.records] == expected
        assert np.array_equal(bits(back), bits(quotes))

    def test_write_checks_the_table(self, tmp_path):
        with pytest.raises(ValidationError, match="quotes"):
            write_csv(np.ones((2, QUOTE_WIDTH - 1)), tmp_path / "q.csv")
        with pytest.raises(ValidationError, match="option_type: .* got 0.5"):
            write_csv(make_quote(option_type=0.5), tmp_path / "q.csv")


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
        back = load_model(path)
        a = predict_gbdt(model, train.features)
        b = predict_gbdt(back, train.features)
        assert np.array_equal(a, b)
        assert back.base_score == model.base_score
        assert back.best_round == model.best_round

    def test_net_round_trip_identical_predictions(self, tmp_path):
        net, train = self.make_net_model()
        path = save_model(net, tmp_path / "n.model")
        back = load_model(path)
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
            {"right": 1},  # node 1 is both children of the root; node 2 has no parent
            {"feature": -1},  # the root is a leaf, so no other node has a parent
        ],
        ids=["cycle", "child_out_of_range", "feature_out_of_range",
             "nan_threshold", "inf_value", "oversized_index", "shared_child", "orphan_node"],
    )
    def test_corrupt_tree_rejected(self, tmp_path, patch):
        model, _ = self.make_tree_model()
        tree = model.trees[0]
        assert tree.feature[0] >= 0 and (tree.left[0], tree.right[0]) == (1, 2)  # the root splits
        path = save_model(model, tmp_path / "m.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        for key, value in patch.items():
            doc["model"]["trees"][0][key][0] = value
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        with pytest.raises(IncompatibleModelError, match=re.escape(str(path))):
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("key", ["weights", "biases", "base_score"])
    def test_non_finite_parameter_rejected(self, tmp_path, key, value):
        # json reads NaN and Infinity, so the loader has to refuse them
        model, _ = self.make_tree_model() if key == "base_score" else self.make_net_model()
        path = save_model(model, tmp_path / "m.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        if key == "base_score":
            doc["model"][key] = value
        else:
            numbers = doc["model"][key][0]
            while isinstance(numbers[0], list):
                numbers = numbers[0]
            numbers[0] = value
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
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
        back = load_model(path)
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
        assert load_model_and_manifest(path)[1] == manifest

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


PROBE = make_dataset(64, seed=8).features
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
ODD_NUMBERS = [
    b"NaN", b"Infinity", b"-Infinity", b"0", b"-1", b"0.5", b"-0.0", b"99", b"1e300",
    b"2147483648",
]


@pytest.fixture(scope="module")
def small_model_files(tmp_path_factory):
    """The bytes of a small saved tree-ensemble file and a small network file."""
    out = tmp_path_factory.mktemp("models")
    train, val = make_dataset(120, seed=3), make_dataset(30, seed=4)
    trees = train_gbdt(train, val, GbdtConfig(max_depth=3, num_rounds=3))
    arch = Architecture((LayerSpec(4, "relu"), LayerSpec(1, "linear")))
    net, _ = train_mlp(train, val, arch, MlpTrainConfig(max_epochs=1, batch_size=32, seed=1))
    blobs = {
        "tree": save_model(trees, out / "tree.model", {"kind": "gbdt3"}).read_bytes(),
        "net": save_model(net, out / "net.model", {"kind": "mlp1"}).read_bytes(),
    }
    return out, blobs


class TestModelFileFuzz:
    @settings(max_examples=40, deadline=1000)
    @given(kind=st.sampled_from(["tree", "net"]), data=st.data())
    def test_mutated_file_is_rejected_or_predicts(self, small_model_files, kind, data):
        """One changed number or byte: IncompatibleModelError or a (64,) prediction."""
        out, blobs = small_model_files
        blob = blobs[kind]
        if data.draw(st.booleans(), label="mutate a number"):
            numbers = [m.span() for m in NUMBER.finditer(blob, 8)]  # after the magic
            start, end = data.draw(st.sampled_from(numbers), label="number")
            blob = blob[:start] + data.draw(st.sampled_from(ODD_NUMBERS)) + blob[end:]
        else:
            i = data.draw(st.integers(0, len(blob) - 1), label="byte")
            blob = blob[:i] + bytes([data.draw(st.integers(0, 255))]) + blob[i + 1 :]
        path = out / f"mutated_{kind}.model"
        path.write_bytes(blob)
        try:
            model = load_model(path)
        except IncompatibleModelError:
            return
        with np.errstate(all="ignore"):  # a huge weight may overflow; the shape still holds
            if isinstance(model, TreeEnsemble):
                prediction = model.predict(PROBE)
            else:
                prediction = forward(model, PROBE)
        assert prediction.shape == (64,)


WRITE_CALLS = {"open", "write_text", "write_bytes", "save", "savez", "savetxt", "tofile"}


class TestWriteFile:
    @pytest.mark.parametrize("old", [b"old content\n", None], ids=["existing", "absent"])
    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path, old):
        target = tmp_path / "out.csv"
        if old is not None:
            target.write_bytes(old)

        def chunks():
            yield b"new content"
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            write_file(target, chunks())
        assert (target.read_bytes() if target.exists() else None) == old
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["out.csv"])

    def test_write_leaves_no_temporary_file(self, tmp_path):
        path = write_file(tmp_path / "a.txt", [b"one ", b"two\n"])
        assert path.read_bytes() == b"one two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_permissions_follow_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            path = write_file(tmp_path / "a.txt", [b"x"])
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o640

    def test_cell_rule(self, tmp_path):
        rows = [(None, np.float64(0.1), 3, "x"), (1.5, None, np.int64(2), 0.1 + 0.2)]
        path = write_rows(tmp_path / "r.csv", ("a", "b", "c", "d"), rows)
        assert path.read_text() == "a,b,c,d\n,0.1,3,x\n1.5,,2,0.30000000000000004\n"

    def test_only_write_file_writes(self):
        """No function but ingest.write_file opens or writes a file."""
        writers = []
        for source in sorted(Path(optbench.__file__).parent.glob("*.py")):
            tree = ast.parse(source.read_text(encoding="utf-8"))
            allowed = {
                id(node)
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "write_file"
                for node in ast.walk(fn)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in WRITE_CALLS:
                        writers.append((source.name, node.lineno, id(node) in allowed))
        assert [(f, allowed) for f, _, allowed in writers] == [("ingest.py", True)], writers
