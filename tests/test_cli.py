import io
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from optbench import (
    Dataset,
    SplitSpec,
    filter_quotes,
    forward,
    load_model,
    predict_gbdt,
    read_csv,
    split_dataset,
    split_indices,
    write_csv,
)
from optbench.blackscholes import VOL_FLOOR, bs_prices
from optbench.cli import (
    KNOWN_KEYS,
    SECTIONS,
    build_config,
    build_parser,
    load_config,
    main,
    parse_config_file,
)
from optbench.core import QUOTE_COLUMNS
from optbench.errors import UsageError, ValidationError
from optbench.pipeline import bs_implied, bs_realized
from optbench.simgen import realized_vol

from conftest import make_quote, make_quotes, same_bits


TINY = [
    "--set", "sim.n_underlyings=1",
    "--set", "sim.days_per_underlying=25",
]


def run(*argv):
    return main(list(argv))


def gen_tiny(out, seed="9", extra=()):
    code = run("gen", "--out", str(out), "--seed", seed, *TINY, *extra)
    assert code == 0
    return out / "dataset.csv"


def set_column(data, name, value):
    """Rewrite one column of every quote row of a dataset CSV."""
    lines = data.read_text().splitlines()
    col = QUOTE_COLUMNS.index(name)
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[col] = value
        lines[i] = ",".join(cells)
    data.write_text("\n".join(lines) + "\n")


class TestGen:
    def test_writes_dataset_and_manifest(self, tmp_path):
        data = gen_tiny(tmp_path)
        assert data.exists()
        lines = data.read_text().splitlines()
        assert lines[0] == ",".join(QUOTE_COLUMNS)
        manifest = json.loads((tmp_path / "dataset.manifest.json").read_text())
        assert manifest["rows"] == len(lines) - 1
        assert manifest["config"]["n_underlyings"] == 1
        assert manifest["config"]["seed"] == 9

    def test_byte_determinism(self, tmp_path):
        a = gen_tiny(tmp_path / "a").read_bytes()
        b = gen_tiny(tmp_path / "b").read_bytes()
        assert a == b
        # and so do the binary twins, named by the same digest
        [twin_a], [twin_b] = ((tmp_path / d).glob(".dataset.csv.*.npy") for d in "ab")
        assert twin_a.name == twin_b.name and twin_a.read_bytes() == twin_b.read_bytes()

    def test_different_seed_different_data(self, tmp_path):
        a = gen_tiny(tmp_path / "a", seed="1").read_bytes()
        b = gen_tiny(tmp_path / "b", seed="2").read_bytes()
        assert a != b

    def test_zero_underlyings_header_only(self, tmp_path):
        code = run("gen", "--out", str(tmp_path), "--set", "sim.n_underlyings=0")
        assert code == 0
        lines = (tmp_path / "dataset.csv").read_text().splitlines()
        assert lines == [",".join(QUOTE_COLUMNS)]

    def test_bad_key_rejected(self, tmp_path):
        code = run("gen", "--out", str(tmp_path), "--set", "sim.nonsense=3")
        assert code == 1

    def test_zero_vol_regime_is_usage_error(self, tmp_path, capsys):
        # SimConfig accepts a zero sigma, but no Black-Scholes quote exists for it
        code = run("gen", "--out", str(tmp_path), *TINY, "--set", "sim.vol_regimes=0:1")
        assert code == 1
        assert "sim.vol_regimes" in capsys.readouterr().err
        assert not (tmp_path / "dataset.csv").exists()

    def test_malformed_set_rejected(self, tmp_path):
        code = run("gen", "--out", str(tmp_path), "--set", "sim.n_underlyings")
        assert code == 1


class TestSplit:
    def test_sizes_and_manifest(self, tmp_path):
        data = gen_tiny(tmp_path)
        code = run("split", "--data", str(data), "--out", str(tmp_path), "--seed", "9")
        assert code == 0
        manifest = json.loads((tmp_path / "split.manifest.json").read_text())
        sizes = {k: v["rows"] for k, v in manifest["parts"].items()}
        total = sum(sizes.values())
        assert total == manifest["kept_rows"]
        assert sizes["val"] == round(total * 0.01)
        assert sizes["test"] == round(total * 0.01)
        for part in ("train", "val", "test"):
            lines = (tmp_path / f"{part}.csv").read_text().splitlines()
            assert len(lines) - 1 == sizes[part]

    def test_parts_get_no_binary_twin(self, tmp_path):
        data = gen_tiny(tmp_path)
        [dataset_twin] = tmp_path.glob(".*.npy")
        write_csv(read_csv(data)[:3], tmp_path / "train.csv")  # an earlier part, with a twin
        assert run("split", "--data", str(data), "--out", str(tmp_path), "--seed", "9") == 0
        assert list(tmp_path.glob(".*.npy")) == [dataset_twin]
        manifest = json.loads((tmp_path / "split.manifest.json").read_text())
        for info in manifest["parts"].values():
            assert len(read_csv(tmp_path / info["path"])) == info["rows"]

    def test_custom_fractions(self, tmp_path):
        data = gen_tiny(tmp_path)
        code = run(
            "split", "--data", str(data), "--out", str(tmp_path / "s"),
            "--set", "split.train_fraction=0.5",
            "--set", "split.val_fraction=0.2", "--set", "split.test_fraction=0.3",
        )
        assert code == 0
        manifest = json.loads((tmp_path / "s" / "split.manifest.json").read_text())
        sizes = {k: v["rows"] for k, v in manifest["parts"].items()}
        total = sum(sizes.values())
        assert sizes["val"] == round(total * 0.2)
        assert sizes["test"] == round(total * 0.3)

    def test_undecodable_row_is_skipped(self, tmp_path, caplog):
        data = gen_tiny(tmp_path)
        lines = data.read_bytes().splitlines()
        rows = len(lines) - 1
        assert rows > 100  # one bad row stays under the 1% limit
        lines[3] = lines[3].replace(b",", b"\xff,", 1)  # line 4 of the file
        data.write_bytes(b"\n".join(lines) + b"\n")
        with caplog.at_level(logging.WARNING):
            code = run("split", "--data", str(data), "--out", str(tmp_path / "s"))
        assert code == 0
        assert any("line 4" in r.getMessage() for r in caplog.records)
        manifest = json.loads((tmp_path / "s" / "split.manifest.json").read_text())
        assert manifest["kept_rows"] == rows - 1

    def test_undecodable_header_is_data_error(self, tmp_path, capsys):
        data = gen_tiny(tmp_path)
        data.write_bytes(b"\xff" + data.read_bytes())
        assert run("split", "--data", str(data), "--out", str(tmp_path / "s")) == 2
        assert "header" in capsys.readouterr().err

    def test_missing_data_flag(self, tmp_path):
        assert run("split", "--out", str(tmp_path)) == 1

    def test_nonexistent_data_file(self, tmp_path):
        assert run("split", "--data", str(tmp_path / "no.csv"), "--out", str(tmp_path)) == 2


class TestTrain:
    def test_gbdt5_outputs(self, tmp_path):
        data = gen_tiny(tmp_path)
        code = run(
            "train", "gbdt5", "--data", str(data), "--out", str(tmp_path),
            "--seed", "9", "--set", "gbdt.num_rounds=3",
        )
        assert code == 0
        assert (tmp_path / "gbdt5.model").exists()
        assert (tmp_path / "gbdt5_metrics.csv").exists()
        side = json.loads((tmp_path / "gbdt5.manifest.json").read_text())
        assert side["kind"] == "gbdt5"
        assert side["hyperparameters"]["max_depth"] == 5
        assert side["hyperparameters"]["num_rounds"] == 3
        assert set(side["hyperparameters"]) == {
            "max_depth", "num_rounds", "early_stopping_rounds", "n_bins", "reg_lambda",
            "min_child_weight", "eta_base", "eta_min", "max_iter_decay",
        }
        assert side["training_seconds"] > 0
        metrics = (tmp_path / "gbdt5_metrics.csv").read_text().splitlines()
        assert metrics[0] == "round_index,eta,train_mae,val_mae"
        assert [line.split(",")[0] for line in metrics[1:]] == ["0", "1", "2"]

    def test_model_file_reproducible(self, tmp_path):
        data = gen_tiny(tmp_path)
        args = ("--data", str(data), "--seed", "9", "--set", "gbdt.num_rounds=2")
        run("train", "gbdt5", "--out", str(tmp_path / "a"), *args)
        run("train", "gbdt5", "--out", str(tmp_path / "b"), *args)
        a = (tmp_path / "a" / "gbdt5.model").read_bytes()
        b = (tmp_path / "b" / "gbdt5.model").read_bytes()
        assert a == b

    def test_mlp3_trains(self, tmp_path):
        data = gen_tiny(tmp_path)
        code = run(
            "train", "mlp3", "--data", str(data), "--out", str(tmp_path),
            "--seed", "9", "--set", "mlp.max_epochs=2", "--set", "mlp.batch_size=64",
        )
        assert code == 0
        side = json.loads((tmp_path / "mlp3.manifest.json").read_text())
        assert side["epochs_trained"] == 2
        assert set(side["hyperparameters"]) == {
            "layers", "initial_lr", "plateau_factor", "plateau_patience", "min_lr",
            "early_stop_patience", "max_epochs", "batch_size", "seed",
        }
        metrics = (tmp_path / "mlp3_metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,lr,train_mae,val_mae"
        assert len(metrics) == 3
        val_maes = [float(line.split(",")[3]) for line in metrics[1:]]
        assert side["best_epoch"] == 1 + int(np.argmin(val_maes))

    def test_unknown_kind_usage_error(self, tmp_path):
        data = gen_tiny(tmp_path)
        assert run("train", "forest", "--data", str(data), "--out", str(tmp_path)) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_is_training_error(self, tmp_path, capsys):
        data = gen_tiny(tmp_path)
        capsys.readouterr()
        code = run(
            "train", "mlp3", "--data", str(data), "--out", str(tmp_path), "--seed", "9",
            "--set", "mlp.max_epochs=2", "--set", "mlp.initial_lr=1e300",
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("training error: ")
        assert not (tmp_path / "mlp3.model").exists()

    def test_invalid_hyperparameter_usage_error(self, tmp_path):
        data = gen_tiny(tmp_path)
        code = run(
            "train", "gbdt5", "--data", str(data), "--out", str(tmp_path),
            "--set", "gbdt.num_rounds=0",
        )
        assert code == 1


class TestTune:
    ARGS = ("--seed", "9", "--set", "gbdt.num_rounds=30")

    def tune(self, data, out, *extra):
        assert run("tune", "gbdt5", "--data", str(data), "--out", str(out), *self.ARGS, *extra) == 0
        return (out / "gbdt5.tuned.conf").read_bytes()

    def test_winner_is_a_config_that_train_reads(self, tmp_path):
        data = gen_tiny(tmp_path)
        self.tune(data, tmp_path)
        doc = json.loads((tmp_path / "gbdt5.tune.json").read_text())
        winner = doc["candidates"][doc["winner"]]
        assert [rung["rounds"] for rung in doc["rungs"]] == [20, 30]
        assert run(
            "train", "gbdt5", "--config", str(tmp_path / "gbdt5.tuned.conf"),
            "--data", str(data), "--out", str(tmp_path), "--seed", "9",
        ) == 0
        side = json.loads((tmp_path / "gbdt5.manifest.json").read_text())
        assert side["hyperparameters"] == winner
        assert (side["dataset_digest"], side["split"]) == (doc["dataset_digest"], doc["split"])

    def test_same_seed_same_bytes_whatever_the_test_targets(self, tmp_path):
        data = gen_tiny(tmp_path)
        first = self.tune(data, tmp_path / "a")
        assert self.tune(data, tmp_path / "b") == first
        # double the midpoint of every test row: the filter keeps them all
        kept = filter_quotes(read_csv(data)).kept
        assert len(kept) == len(read_csv(data))  # so kept row i is the file's row i
        _, _, test_idx = split_indices(len(kept), SplitSpec(seed=9))
        lines = data.read_text().splitlines()
        col = QUOTE_COLUMNS.index("midpoint")
        for row in test_idx:
            cells = lines[row + 1].split(",")
            cells[col] = repr(2 * float(cells[col]))
            lines[row + 1] = ",".join(cells)
        data.write_text("\n".join(lines) + "\n")
        assert len(filter_quotes(read_csv(data)).kept) == len(kept)
        assert self.tune(data, tmp_path / "c") == first

    def test_a_network_kind_is_a_usage_error(self, tmp_path, capsys):
        data = gen_tiny(tmp_path)
        assert run("tune", "mlp3", "--data", str(data), "--out", str(tmp_path)) == 1
        assert "invalid choice" in capsys.readouterr().err


class TestEvaluate:
    def setup_trained(self, tmp_path, extra_gen=()):
        data = gen_tiny(tmp_path, extra=extra_gen)
        run(
            "train", "gbdt5", "--data", str(data), "--out", str(tmp_path),
            "--seed", "9", "--set", "gbdt.num_rounds=3",
        )
        return data

    def test_report_files_written(self, tmp_path, capsys):
        data = self.setup_trained(tmp_path)
        code = run(
            "evaluate", str(tmp_path / "gbdt5.model"), "--include-bs",
            "--data", str(data), "--out", str(tmp_path), "--seed", "9",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "model" in out and "gbdt5" in out
        table = (tmp_path / "report_table.csv").read_text().splitlines()
        assert table[0] == "model,mae,mape_pct,training_seconds"
        names = {line.split(",")[0] for line in table[1:]}
        assert names == {"gbdt5", "bs_implied", "bs_realized"}
        manifest = json.loads((tmp_path / "evaluate.manifest.json").read_text())
        assert set(manifest["models"]) == names

    def test_noiseless_implied_baseline_is_exact(self, tmp_path):
        data = self.setup_trained(tmp_path, extra_gen=("--set", "sim.half_spread=0"))
        code = run(
            "evaluate", "--include-bs",
            "--data", str(data), "--out", str(tmp_path), "--seed", "9",
        )
        assert code == 0
        table = (tmp_path / "report_table.csv").read_text().splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in table[1:]}
        assert rows["bs_implied"][1] == "0.0"

    def test_digest_mismatch_rejected(self, tmp_path):
        data = self.setup_trained(tmp_path)
        other = gen_tiny(tmp_path / "other", seed="10")
        code = run(
            "evaluate", str(tmp_path / "gbdt5.model"),
            "--data", str(other), "--out", str(tmp_path), "--seed", "9",
        )
        assert code == 2

    def test_split_mismatch_rejected(self, tmp_path):
        data = self.setup_trained(tmp_path)
        code = run(
            "evaluate", str(tmp_path / "gbdt5.model"),
            "--data", str(data), "--out", str(tmp_path), "--seed", "11",
        )
        assert code == 2

    def test_corrupt_model_is_data_error(self, tmp_path, capsys):
        data = self.setup_trained(tmp_path)
        path = tmp_path / "gbdt5.model"
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        doc["model"]["trees"][0]["left"][0] = 0  # a cycle at the root
        doc["model"]["trees"][0]["right"][0] = 0
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        code = run(
            "evaluate", str(path), "--data", str(data), "--out", str(tmp_path), "--seed", "9",
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_network_stats_is_data_error(self, tmp_path, capsys):
        data = gen_tiny(tmp_path)
        run(
            "train", "mlp3", "--data", str(data), "--out", str(tmp_path),
            "--seed", "9", "--set", "mlp.max_epochs=2", "--set", "mlp.batch_size=64",
        )
        path = tmp_path / "mlp3.model"
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        doc["model"]["feature_std"][0] = 0.0
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        code = run(
            "evaluate", str(path), "--data", str(data), "--out", str(tmp_path), "--seed", "9",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err

    def test_model_manifest_with_eval_metric_still_evaluates(self, tmp_path):
        # files written while GbdtConfig had eval_metric record it
        data = self.setup_trained(tmp_path)
        path = tmp_path / "gbdt5.model"
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        doc["manifest"]["hyperparameters"]["eval_metric"] = "mae"
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        code = run(
            "evaluate", str(path), "--data", str(data), "--out", str(tmp_path), "--seed", "9",
        )
        assert code == 0

    def patch_manifest(self, path, **changes):
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        for key, value in changes.items():
            if value is None:
                del doc["manifest"][key]
            else:
                doc["manifest"][key] = value
        path.write_bytes(raw[:8] + json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "key, value", [("dataset_digest", 5), ("split", "98/1/1"), ("kind", 5)]
    )
    def test_mistyped_manifest_is_data_error(self, tmp_path, capsys, key, value):
        data = self.setup_trained(tmp_path)
        path = tmp_path / "gbdt5.model"
        self.patch_manifest(path, **{key: value})
        code = run(
            "evaluate", str(path), "--data", str(data), "--out", str(tmp_path), "--seed", "9",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err

    @pytest.mark.parametrize("kind", ["gbdt5,extra", "gbdt5\nbs_implied,0.0,0.0,", "a/b"])
    def test_kind_outside_the_name_rule_is_data_error(self, tmp_path, capsys, kind):
        data = self.setup_trained(tmp_path)
        path = tmp_path / "gbdt5.model"
        self.patch_manifest(path, kind=kind)
        out = tmp_path / "eval"
        code = run("evaluate", str(path), "--data", str(data), "--out", str(out), "--seed", "9")
        assert code == 2
        assert "[A-Za-z0-9_.-]+" in capsys.readouterr().err
        assert not out.exists()

    def test_unchecked_model_warns(self, tmp_path, caplog):
        # without a digest and a split in its manifest a model cannot be checked
        data = self.setup_trained(tmp_path)
        path = tmp_path / "gbdt5.model"
        self.patch_manifest(path, dataset_digest=None, split=None)
        with caplog.at_level(logging.WARNING):
            code = run(
                "evaluate", str(path), "--data", str(data), "--out", str(tmp_path), "--seed", "9",
            )
        assert code == 0
        warnings = [r.getMessage() for r in caplog.records if str(path) in r.getMessage()]
        assert len(warnings) == 2
        assert "dataset_digest" in warnings[0] and "split" in warnings[1]

    def test_each_model_file_read_once(self, tmp_path, monkeypatch):
        data = self.setup_trained(tmp_path)
        path = tmp_path / "gbdt5.model"
        reads = []
        read_bytes = Path.read_bytes

        def counted(self):
            reads.append(self)
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", counted)
        code = run(
            "evaluate", str(path), "--data", str(data), "--out", str(tmp_path), "--seed", "9",
        )
        assert code == 0
        assert reads.count(path) == 1

    @pytest.mark.parametrize("side", ['[1]', '{"training_seconds": "slow"}'])
    def test_malformed_training_seconds_is_na(self, tmp_path, capsys, caplog, side):
        data = self.setup_trained(tmp_path)
        manifest = tmp_path / "gbdt5.manifest.json"
        manifest.write_text(side)
        with caplog.at_level(logging.WARNING):
            code = run(
                "evaluate", str(tmp_path / "gbdt5.model"),
                "--data", str(data), "--out", str(tmp_path), "--seed", "9",
            )
        assert code == 0
        assert any(str(manifest) in r.getMessage() for r in caplog.records)
        row = [line for line in capsys.readouterr().out.splitlines() if line.startswith("gbdt5")]
        assert row[0].split()[-1] == "n/a"

    def test_scores_match_the_library_on_its_test_split(self, tmp_path):
        data = gen_tiny(tmp_path)
        fractions = ("split.train_fraction=0.6", "split.val_fraction=0.1",
                     "split.test_fraction=0.3")
        common = ("--data", str(data), "--out", str(tmp_path), "--seed", "9",
                  *(arg for f in fractions for arg in ("--set", f)))
        assert run("train", "gbdt5", *common, "--set", "gbdt.num_rounds=3") == 0
        assert run("train", "mlp3", *common,
                   "--set", "mlp.max_epochs=2", "--set", "mlp.batch_size=64") == 0
        models = [str(tmp_path / "gbdt5.model"), str(tmp_path / "mlp3.model")]
        assert run("evaluate", *models, *common) == 0

        spec = SplitSpec(0.6, 0.1, 0.3, seed=9)
        ds = Dataset.from_quotes(filter_quotes(read_csv(data)).kept)
        _, _, test = split_dataset(ds, spec)
        expected = {
            "gbdt5": predict_gbdt(load_model(models[0]), test.features),
            "mlp3": forward(load_model(models[1]), test.features),
        }
        table = (tmp_path / "report_table.csv").read_text().splitlines()[1:]
        reported = {line.split(",")[0]: float(line.split(",")[1]) for line in table}
        assert set(reported) == set(expected)
        for name, preds in expected.items():
            mae = float(np.mean(np.abs(preds - test.targets)))
            assert reported[name] == pytest.approx(mae, rel=1e-12, abs=0)
        manifest = json.loads((tmp_path / "evaluate.manifest.json").read_text())
        assert manifest["rows_evaluated"] == len(test)

    def test_baseline_without_implied_vol_is_data_error(self, tmp_path, capsys):
        data = gen_tiny(tmp_path)
        set_column(data, "implied_vol", "")
        n_test = round(len(filter_quotes(read_csv(data)).kept) * 0.01)
        assert n_test > 0
        capsys.readouterr()
        code = run("evaluate", "--include-bs", "--data", str(data), "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert f"implied_vol: {n_test} evaluation rows have no implied volatility" in err

    def test_empty_test_part_is_data_error(self, tmp_path, capsys):
        data = gen_tiny(tmp_path)
        code = run(
            "evaluate", "--include-bs", "--data", str(data), "--out", str(tmp_path),
            "--set", "split.train_fraction=0.999", "--set", "split.val_fraction=0",
            "--set", "split.test_fraction=0.001",
        )
        assert code == 2
        assert "selects zero rows" in capsys.readouterr().err
        assert not (tmp_path / "evaluate.manifest.json").exists()

    def test_no_models_no_baseline_usage_error(self, tmp_path):
        data = gen_tiny(tmp_path)
        assert run("evaluate", "--data", str(data), "--out", str(tmp_path)) == 1


class TestBaselines:
    """The repricing baselines read each quote row's own terms."""

    # (option_type, strike, maturity_years, rate, dividend_yield, implied_vol, lags)
    ROWS = (
        (1.0, 90.0, 0.5, 0.02, 0.01, 0.25, tuple(100.0 + 0.5 * (-1) ** i for i in range(20))),
        (0.0, 110.0, 1.25, 0.04, 0.0, 0.4, tuple(100.0 * 1.01 ** i for i in range(20))),
        (1.0, 100.0, 0.1, -0.01, 0.03, 0.15, (100.0,) * 20),
    )

    def table(self):
        return make_quotes(*(
            make_quote(option_type=flag, strike=k, maturity_years=t, rate=r,
                       dividend_yield=q, implied_vol=vol, lags=lags)
            for flag, k, t, r, q, vol, lags in self.ROWS
        ))

    def priced_each(self, sigma_of_row):
        return np.array([
            bs_prices(100.0, k, t, r, q, sigma_of_row(vol, lags), flag)
            for flag, k, t, r, q, vol, lags in self.ROWS
        ])

    def test_realized_prices_at_each_rows_floored_realized_vol(self):
        expected = self.priced_each(lambda vol, lags: max(realized_vol(lags), VOL_FLOOR))
        preds = bs_realized(self.table())
        assert same_bits(preds, expected)
        # constant lags have realized vol 0, so that row prices at the floor
        flag, k, t, r, q, _, lags = self.ROWS[2]
        assert realized_vol(lags) == 0.0
        assert same_bits(preds[2], bs_prices(100.0, k, t, r, q, VOL_FLOOR, flag))

    def test_implied_prices_at_each_rows_implied_vol(self):
        expected = self.priced_each(lambda vol, lags: vol)
        assert same_bits(bs_implied(self.table()), expected)

    def test_implied_refuses_a_missing_implied_vol(self):
        table = self.table()
        table[1, QUOTE_COLUMNS.index("implied_vol")] = np.nan
        with pytest.raises(ValidationError, match="^implied_vol: 1 evaluation rows have no"):
            bs_implied(table)


class TestOneValidityRule:
    def test_rows_the_rule_drops_never_reach_a_command(self, tmp_path, capsys):
        # split, report, train and evaluate all drop the same two rows
        data = gen_tiny(tmp_path)
        lines = data.read_text().splitlines()
        cols = {name: i for i, name in enumerate(QUOTE_COLUMNS)}
        for name, value in (("implied_vol", "5.0"), ("rate", "1.5")):
            cells = lines[1].split(",")
            cells[cols[name]] = value
            lines.append(",".join(cells))
        data.write_text("\n".join(lines) + "\n")

        assert run("split", "--data", str(data), "--out", str(tmp_path / "s")) == 0
        manifest = json.loads((tmp_path / "s" / "split.manifest.json").read_text())
        assert manifest["dropped_by_reason"] == {"implied_vol": 1, "rate": 1}
        assert manifest["kept_rows"] == len(lines) - 3
        assert run("report", "--data", str(data), "--out", str(tmp_path / "r")) == 0
        common = ("--data", str(data), "--out", str(tmp_path), "--seed", "9")
        assert run("train", "gbdt5", *common, "--set", "gbdt.num_rounds=2") == 0
        assert run("evaluate", str(tmp_path / "gbdt5.model"), "--include-bs", *common) == 0
        assert "np.float64" not in capsys.readouterr().err


DATA_COMMANDS = [["split"], ["train", "gbdt5"], ["report"], ["evaluate", "--include-bs"]]


class TestLoad:
    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_no_usable_quotes_is_data_error(self, tmp_path, capsys, command):
        data = gen_tiny(tmp_path)
        set_column(data, "rate", "1.5")  # outside the rule's rate bounds on every row
        capsys.readouterr()
        assert run(*command, "--data", str(data), "--out", str(tmp_path / "o")) == 2
        assert "no usable quotes after filtering" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_missing_data_is_usage_error(self, tmp_path, capsys, command):
        assert run(*command, "--out", str(tmp_path)) == 1
        assert "no dataset given" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["train", "gbdt5", "--set", "gbdt.num_rounds=1"], ["evaluate", "--include-bs"]]
    )
    def test_dataset_read_once(self, tmp_path, monkeypatch, command):
        # the dataset digest a model records comes from the one pass over the
        # file that finds its rows' twin: each byte of the CSV is read once
        data = gen_tiny(tmp_path)
        read = []
        read_bytes = Path.read_bytes

        class CountedFileIO(io.FileIO):
            def readinto(self, buffer):
                size = super().readinto(buffer)
                read.extend([size] * (Path(self.name) == data))
                return size

        def counted_read_bytes(self):
            out = read_bytes(self)
            read.extend([len(out)] * (self == data))
            return out

        monkeypatch.setattr(io, "FileIO", CountedFileIO)
        monkeypatch.setattr(Path, "read_bytes", counted_read_bytes)
        assert run(*command, "--data", str(data), "--out", str(tmp_path / "o"), "--seed", "9") == 0
        assert sum(read) == data.stat().st_size

    @pytest.mark.parametrize(
        "command, setting",
        [
            (["split"], "split.test_fraction=2"),
            (["train", "gbdt5"], "gbdt.num_rounds=0"),
            (["train", "mlp3"], "mlp.batch_size=0"),
            (["evaluate", "--include-bs"], "split.val_fraction=0.5"),
        ],
    )
    def test_config_mistake_exits_before_the_dataset_is_read(self, tmp_path, command, setting):
        missing = tmp_path / "no.csv"  # reading it would be a data error, exit 2
        code = run(*command, "--data", str(missing), "--out", str(tmp_path), "--set", setting)
        assert code == 1


class TestReport:
    def test_summary_and_histograms(self, tmp_path, capsys):
        data = gen_tiny(tmp_path)
        code = run("report", "--data", str(data), "--out", str(tmp_path),
                   "--set", "report.hist_bins=4")
        assert code == 0
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "hist_implied_vol.csv").exists()
        out = capsys.readouterr().out
        assert "midpoint" in out
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("column,count")
        count = next(line for line in summary if line.startswith("midpoint,")).split(",")[1]
        hist = (tmp_path / "hist_midpoint.csv").read_text().splitlines()
        assert hist[0] == "lower,upper,count"
        assert len(hist) == 5
        assert sum(int(line.split(",")[2]) for line in hist[1:]) == int(count)

    def test_unexpected_exception_is_one_line_exit_2(self, tmp_path, capsys, monkeypatch):
        data = gen_tiny(tmp_path)
        capsys.readouterr()

        def broken(values):
            raise KeyError("count")

        monkeypatch.setattr("optbench.cli.summary_stats", broken)
        code = run("report", "--data", str(data), "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err == "internal error: KeyError: 'count'\n"


class TestConfigPlumbing:
    def test_config_file_and_set_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "sim.n_underlyings = 1\n"
            "sim.days_per_underlying = 25\n"
            "seed = 3\n"
        )
        code = run(
            "gen", "--config", str(cfg), "--out", str(tmp_path),
            "--set", "sim.days_per_underlying=24",
        )
        assert code == 0
        manifest = json.loads((tmp_path / "dataset.manifest.json").read_text())
        assert manifest["config"]["days_per_underlying"] == 24  # --set beats file
        assert manifest["config"]["seed"] == 3

    def test_seed_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sim.n_underlyings = 1\nsim.days_per_underlying = 25\nseed = 3\n")
        run("gen", "--config", str(cfg), "--out", str(tmp_path), "--seed", "8")
        manifest = json.loads((tmp_path / "dataset.manifest.json").read_text())
        assert manifest["config"]["seed"] == 8

    def test_known_keys(self):
        assert sorted(KNOWN_KEYS) == [
            "data", "eval.curve_bins",
            "gbdt.early_stopping_rounds", "gbdt.eta_base", "gbdt.eta_min",
            "gbdt.max_iter_decay", "gbdt.min_child_weight", "gbdt.n_bins",
            "gbdt.num_rounds", "gbdt.reg_lambda",
            "mlp.batch_size", "mlp.early_stop_patience", "mlp.initial_lr", "mlp.max_epochs",
            "mlp.min_lr", "mlp.plateau_factor", "mlp.plateau_patience", "mlp.seed",
            "report.hist_bins", "seed",
            "sim.days_per_underlying", "sim.drift", "sim.half_spread", "sim.maturities",
            "sim.moneyness", "sim.n_underlyings", "sim.rate_max", "sim.rate_min",
            "sim.s0_max", "sim.s0_min", "sim.seed", "sim.vol_regimes", "sim.yield_max",
            "sim.yield_min",
            "split.seed", "split.test_fraction", "split.train_fraction", "split.val_fraction",
        ]

    @pytest.mark.parametrize(
        "setting, section, field, expected",
        [
            ("mlp.batch_size=64", "mlp", "batch_size", 64),
            ("gbdt.reg_lambda=2.5", "gbdt", "reg_lambda", 2.5),
            ("gbdt.early_stopping_rounds=7", "gbdt", "early_stopping_rounds", 7),
            ("gbdt.early_stopping_rounds=none", "gbdt", "early_stopping_rounds", None),
            ("sim.maturities=0.5,1", "sim", "maturities", (0.5, 1.0)),
            ("sim.vol_regimes=0.2:0.7,0.4:0.3", "sim", "vol_regimes", ((0.2, 0.7), (0.4, 0.3))),
            ("sim.rate_max=0.09", "sim", "rate_max", 0.09),
            ("sim.moneyness=0.9,1.1", "sim", "moneyness", (0.9, 1.1)),
            ("gbdt.eta_min=0.1", "gbdt", "eta_min", 0.1),
            ("seed=4", "split", "seed", 4),
        ],
    )
    def test_set_reaches_built_config(self, setting, section, field, expected):
        cfg = load_config(build_parser().parse_args(["gen", "--set", setting]))
        assert getattr(build_config(section, cfg), field) == expected

    # One value per key that a rule refuses. sim.s0_min, sim.yield_min,
    # gbdt.eta_min and mlp.min_lr fail a cross-field check: each lies above
    # the default of the field that bounds it.
    BAD_VALUES = {
        "seed": "-1", "eval.curve_bins": "0", "report.hist_bins": "0",
        "sim.n_underlyings": "-1", "sim.days_per_underlying": "20", "sim.s0_min": "3000",
        "sim.s0_max": "inf", "sim.vol_regimes": "0.2:0", "sim.drift": "inf",
        "sim.rate_min": "nan", "sim.rate_max": "1", "sim.yield_min": "0.05",
        "sim.yield_max": "-inf", "sim.maturities": "0", "sim.moneyness": "0,1",
        "sim.half_spread": "1", "sim.seed": "-1",
        "split.train_fraction": "-0.1", "split.val_fraction": "nan",
        "split.test_fraction": "2", "split.seed": "-1",
        "gbdt.num_rounds": "0", "gbdt.early_stopping_rounds": "0", "gbdt.n_bins": "1",
        "gbdt.reg_lambda": "nan", "gbdt.min_child_weight": "-1", "gbdt.eta_base": "0",
        "gbdt.eta_min": "0.6", "gbdt.max_iter_decay": "0",
        "mlp.initial_lr": "0", "mlp.plateau_factor": "1", "mlp.plateau_patience": "0",
        "mlp.min_lr": "0.5", "mlp.early_stop_patience": "0", "mlp.max_epochs": "-1",
        "mlp.batch_size": "0", "mlp.seed": "-1",
    }

    # `data` is any path string; no rule refuses it
    @pytest.mark.parametrize("key", sorted(set(KNOWN_KEYS) - {"data"}))
    def test_rejection_names_the_key(self, key):
        section, _, field = key.rpartition(".")
        setting = f"{key}={self.BAD_VALUES[key]}"
        with pytest.raises(UsageError) as info:
            cfg = load_config(build_parser().parse_args(["gen", "--set", setting]))
            for name in SECTIONS:
                build_config(name, cfg)
        # "<section> configuration: <field>: ..." for a config field; the
        # master seed is first refused as sim's; the other keys are named whole
        if section in SECTIONS:
            prefix = f"{section} configuration: {field}: "
        elif key == "seed":
            prefix = "sim configuration: seed: "
        else:
            prefix = f"configuration: {key}: "
        assert str(info.value).startswith(prefix), str(info.value)

    def test_fraction_sum_names_its_keys(self, tmp_path, capsys):
        code = run("split", "--data", str(tmp_path / "no.csv"), "--out", str(tmp_path),
                   "--set", "split.train_fraction=0.5")
        assert code == 1
        assert ("split configuration: train_fraction, val_fraction, test_fraction: "
                "must sum to 1 within 1e-12, got 0.52") in capsys.readouterr().err

    def test_manifest_records_are_keys(self, tmp_path):
        data = gen_tiny(tmp_path)
        records = {"sim": json.loads((tmp_path / "dataset.manifest.json").read_text())["config"]}
        for kind, section in (("gbdt5", "gbdt"), ("mlp3", "mlp")):
            budget = "gbdt.num_rounds=1" if section == "gbdt" else "mlp.max_epochs=1"
            code = run("train", kind, "--data", str(data), "--out", str(tmp_path),
                       "--set", budget)
            assert code == 0
            side = json.loads((tmp_path / f"{kind}.manifest.json").read_text())
            # layers come from the mlp kind and max_depth from the gbdt kind
            records[section] = {
                name: value for name, value in side["hyperparameters"].items()
                if name not in ("layers", "max_depth")
            }
        for section, record in records.items():
            assert record and {f"{section}.{name}" for name in record} <= set(KNOWN_KEYS)

    def test_readme_configuration_is_current(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n# example.cfg\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "example.cfg"
        path.write_text(example, encoding="utf-8")
        cfg = parse_config_file(path)
        for section in SECTIONS:
            build_config(section, cfg)
        table = readme.split("Selected keys:", 1)[1].split("\n## ", 1)[0]
        keys = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
        assert keys and set(keys) <= set(KNOWN_KEYS)

    @pytest.mark.parametrize(
        "command, settings",
        [
            (["evaluate", "--include-bs"], ["eval.curve_bins=0"]),
            (["report"], ["report.hist_bins=0"]),
            (["gen"], ["sim.rate_min=2", "sim.rate_max=3"]),
            (["gen"], ["sim.maturities=inf"]),
            (["gen"], ["sim.moneyness=nan"]),
            (["gen"], ["sim.drift=nan"]),
            (["gen"], ["sim.vol_regimes=1e-13:1"]),
            (["gen"], ["sim.maturities=1e-30"]),
        ],
    )
    def test_config_mistake_is_usage_error(self, tmp_path, command, settings):
        data = gen_tiny(tmp_path)
        sets = [arg for s in settings for arg in ("--set", s)]
        code = run(*command, "--data", str(data), "--out", str(tmp_path / "o"), *TINY, *sets)
        assert code == 1

    def test_undecodable_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"sim.n_underlyings = 2\xff\n")
        assert run("gen", "--config", str(cfg), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and str(cfg) in err

    def test_missing_config_file(self, tmp_path):
        assert run("gen", "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path)) in (1, 2)

    def test_version_flag(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out.startswith("optbench ")

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "gen" in capsys.readouterr().out
