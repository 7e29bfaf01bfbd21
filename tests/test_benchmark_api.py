"""The library calls the benchmark in perfbench/ makes, at tiny scale.

perfbench/workloads.py drives the package in-process and through the
CLI, parses the CLI's output files, and perfbench/tracer.py wraps
package functions by name, so a change to any of these names, call
shapes or output files would break the benchmark; here it fails the
unit tests first.
"""

import importlib
import math
import sys
from pathlib import Path

import numpy as np

import optbench as ob
from optbench import cli as ob_cli, ingest, mlp, pipeline
from optbench.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_workload_call_chain(tmp_path):
    sim = ob.SimConfig(n_underlyings=1, days_per_underlying=25, seed=42)
    spec = ob.SplitSpec(train_fraction=0.8, val_fraction=0.1, test_fraction=0.1, seed=3)

    # InProcessFit.setup
    ds = ob.Dataset.from_quotes(ob.generate_dataset(sim))
    train, val, test = ob.split_dataset(ds, spec)
    assert ds.features.tobytes() and ds.targets.tobytes()  # the set-up digest

    # BatchScore._build
    quotes = ob.generate_dataset(sim)
    assert len(quotes) == len(ds)
    data = ob.write_csv(quotes, tmp_path / "dataset.csv")
    kept = ob.filter_quotes(quotes).kept
    assert ob.filter_quotes(quotes).dropped_count == 0
    parts = ob.split_dataset(ob.Dataset.from_quotes(kept), spec)
    assert [len(p) for p in parts] == [len(train), len(val), len(test)]
    assert data.is_file()

    # GbdtFit: warm-up, a fit, scoring and saving
    ob.train_gbdt(train, val, ob.GbdtConfig(max_depth=5, num_rounds=1))
    model = ob.train_gbdt(train, val, ob.GbdtConfig(max_depth=3, num_rounds=2))
    assert len(model.history) == 2 and sum(t.n_nodes for t in model.trees) > 0
    assert math.isfinite(ob.mae(ob.predict_gbdt(model, test.features), test.targets))
    ob.save_model(model, tmp_path / "gbdt3.model", {"kind": "gbdt3"})
    assert len(val.subset([])) == 0

    # MlpFit: warm-up rows and one epoch per preset
    rows = train.subset(range(min(len(train), ob.MlpTrainConfig().batch_size)))
    for arch in (ob.THREE_LAYER, ob.FIVE_LAYER):
        net, history = ob.train_mlp(rows, val, arch, ob.MlpTrainConfig(max_epochs=1))
        assert len(history) == 1
        assert math.isfinite(ob.mae(ob.forward(net, test.features), test.targets))


def test_tracer_targets_resolve():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import TARGETS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    # the CSV spans, traced where the commands look them up
    for span in ("ingest.read_csv", "ingest.write_csv"):
        assert TARGETS[span][:2] == ("optbench.ingest", span.split(".")[1])
    assert pipeline.read_csv is ingest.read_csv and ob_cli.write_csv is ingest.write_csv
    for span, (module_name, attr, _) in TARGETS.items():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{span}: {module_name}.{attr} is gone"


def test_one_forward_call_is_one_traced_pass(monkeypatch):
    # perfbench times mlp.forward by wrapping _forward_scaled, so a pass
    # over several scoring blocks must still be one call
    calls = []
    forward_scaled = mlp._forward_scaled

    def counted(net, scaled):
        calls.append(len(scaled))
        return forward_scaled(net, scaled)

    monkeypatch.setattr(mlp, "_forward_scaled", counted)
    rows = np.zeros((3 * mlp._SCORE_BLOCK + 7, 26))
    ob.forward(ob.init_network(ob.THREE_LAYER, 26), rows)
    assert calls == [len(rows)]


def test_cli_outputs_the_benchmark_parses(tmp_path, monkeypatch):
    # the benchmark's own steps and checks, with each command run in-process
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))

    def cli(args, tracer):
        assert main(args) == 0, args
        return 0.0

    ctx = workloads.Context(ROOT, tmp_path, seed=3, sabotage=False)
    monkeypatch.setattr(ctx, "cli", cli)
    monkeypatch.chdir(tmp_path)
    cli_data = workloads.CliData({"n_underlyings": 1, "split": (0.6, 0.1, 0.3)})
    cli_data._gen(ctx, tmp_path, "3", "1", None)
    cli_data._split(ctx, tmp_path, "3", None)
    cli_data._report(ctx, tmp_path, None)

    common = ["--data", "dataset.csv", "--seed", "3", *cli_data.split_args]
    cli(["train", "gbdt5", *common, "--set", "gbdt.num_rounds=2"], None)
    cli(["evaluate", "gbdt5.model", "--include-bs", "--out", "eval", *common], None)
    # every output file, and report_table.csv read by read_report_table
    workloads.check_evaluate_outputs(ctx, tmp_path / "eval", ["gbdt5", "bs_implied", "bs_realized"])


def test_cli_data_chain_parses_no_text(tmp_path, monkeypatch):
    # gen -> split -> report -> evaluate, as in the cli_data workload: every
    # dataset read comes from the binary twin that gen wrote
    def no_parse(*args):
        raise AssertionError("a CLI command parsed the CSV text")

    monkeypatch.setattr(ingest, "_parse_line", no_parse)
    data = str(tmp_path / "dataset.csv")
    tiny = ["--set", "sim.n_underlyings=1", "--set", "sim.days_per_underlying=25"]
    assert main(["gen", "--out", str(tmp_path), "--seed", "3", *tiny]) == 0
    assert main(["split", "--data", data, "--out", str(tmp_path), "--seed", "3"]) == 0
    assert main(["report", "--data", data, "--out", str(tmp_path / "report")]) == 0
    evaluate = ["evaluate", "--include-bs", "--data", data, "--out", str(tmp_path / "eval")]
    assert main([*evaluate, "--seed", "3"]) == 0
