"""The four benchmark workloads and the operation bookkeeping they share.

Each workload is one client in a closed loop: every operation starts
when the previous one has finished, from this process or from one CLI
subprocess at a time. A workload has

- `setup`: builds the inputs (repeated, so its time is a median and
  its outputs can be checked for byte-identical repeats);
- `warm_up`: one untimed operation, for in-process workloads;
- `cycle`: one unit of timed work, returning its wall time, the
  per-operation times and the test MAE.

The dataset is always generated with sim seed 42 (the seed of the
README walkthrough); the workload seed drives the train/val/test split
and the CLI master seed. The work per operation is therefore the same
for every seed, while the rows each learner fits and scores change.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import optbench as ob
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SIM_SEED = 42
CLI_TIMEOUT_S = 150
SETUPS = 3  # set-up repeats per run; setup_s is their median
REPORT_COLUMNS = ("midpoint", "strike", "underlying_price", "rate", "dividend_yield",
                  "maturity_years", "implied_vol")  # `optbench report` writes hist_<column>.csv
MIN_CYCLES = 2  # so that repeats can be compared byte for byte


class OpFailed(Exception):
    """An operation exited non-zero, raised, or failed an output check."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def traced(tracer: Tracer | None):
    return tracer.installed() if tracer is not None else contextlib.nullcontext()


def read_report_table(path: Path) -> dict[str, tuple[float, float]]:
    """model -> (mae, mape_pct) from an evaluate report_table.csv."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    table = {}
    for line in rows:
        name, mae, mape, _ = line.split(",")
        table[name] = (float(mae), float(mape))
    return table


class Context:
    """Per-run state: work directory, seed, operation counts, references."""

    def __init__(self, root: Path, work: Path, seed: int, sabotage: bool):
        self.work = work
        self.seed = seed
        self.sabotage = sabotage
        self.attempted = 0
        self.failed = 0
        self._reference: dict[str, str] = {}
        # children import this checkout's package and inherit the BLAS
        # thread setting
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def take_sabotage(self) -> bool:
        """True once, for the one operation a self-test asks to break."""
        broken, self.sabotage = self.sabotage, False
        return broken

    def op(self, name: str, fn):
        """Run one counted operation; any exception marks it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # the benchmark keeps running and reports the failure
            self.failed += 1
            print(f"FAILED {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            raise OpFailed(name) from exc

    @staticmethod
    def check(condition: bool, message: str) -> None:
        if not condition:
            raise AssertionError(message)

    def expect_same(self, key: str, value: str) -> None:
        """Repeats within one run must produce identical bytes."""
        first = self._reference.setdefault(key, value)
        self.check(first == value, f"{key}: differs from the first repeat in this run")

    def check_files(self, directory: Path, names) -> None:
        missing = [n for n in names if not (directory / n).is_file()]
        self.check(not missing, f"{directory.name}: missing outputs {missing}")

    def cli(self, args: list[str], tracer: Tracer | None) -> float:
        """Run `optbench ARGS` as a subprocess; return its wall time.

        Traced, the command runs under cli_child.py, whose layer totals
        are added to `tracer`, and wall time minus `main()` time is
        booked as `cli.startup`.
        """
        trace_file = self.work / "cli_trace.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "optbench.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), *args]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.work, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(
                f"optbench {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        if tracer is not None:
            doc = json.loads(trace_file.read_text(encoding="utf-8"))
            tracer.add(Tracer.from_dict(doc["trace"]))
            tracer.seconds["cli.startup"] += wall - doc["main_seconds"]
            tracer.calls["cli.startup"] += 1
        return wall


def split_args(fractions) -> list[str]:
    """CLI overrides for a (train, val, test) split."""
    args = []
    for part, fraction in zip(("train", "val", "test"), fractions):
        args += ["--set", f"split.{part}_fraction={fraction}"]
    return args


def split_manifest(spec: ob.SplitSpec) -> dict:
    """The split record `optbench evaluate` compares against a model's."""
    return {
        "train_fraction": spec.train_fraction,
        "val_fraction": spec.val_fraction,
        "test_fraction": spec.test_fraction,
        "seed": spec.seed,
    }


def dataset_digest(ds: ob.Dataset) -> str:
    h = hashlib.sha256(ds.features.tobytes())
    h.update(ds.targets.tobytes())
    return h.hexdigest()


class CycleResult(NamedTuple):
    seconds: float
    ops: dict[str, float]
    test_mae: float


class CliData:
    """gen -> split -> report -> evaluate --include-bs, each a subprocess."""

    name = "cli_data"

    def __init__(self, budget: dict):
        self.n_underlyings = budget["n_underlyings"]
        self.split_args = split_args(budget["split"])

    def setup(self, ctx: Context, tracer):
        # The reference dataset: every walkthrough's `gen` must reproduce
        # it byte for byte.
        out = ctx.work / "reference"
        seed, n = str(ctx.seed), str(self.n_underlyings)
        try:
            ctx.op("gen", lambda: self._gen(ctx, out, seed, n, tracer))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def cycle(self, ctx: Context, state, index: int, tracer) -> CycleResult:
        out = ctx.work / f"cli{index}"
        seed = str(ctx.seed)
        n = str(self.n_underlyings)
        if ctx.take_sabotage():
            n = "-1"
        ops = {}
        try:
            ops["gen_s"] = ctx.op("gen", lambda: self._gen(ctx, out, seed, n, tracer))
            ops["split_s"] = ctx.op("split", lambda: self._split(ctx, out, seed, tracer))
            ops["report_s"] = ctx.op("report", lambda: self._report(ctx, out, tracer))
            wall, mae = ctx.op("evaluate", lambda: self._evaluate(ctx, out, seed, tracer))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        ops["evaluate_s"] = wall
        return CycleResult(sum(ops.values()), ops, mae)

    def _gen(self, ctx, out, seed, n, tracer):
        args = ["gen", "--out", str(out), "--seed", seed,
                "--set", f"sim.seed={SIM_SEED}", "--set", f"sim.n_underlyings={n}"]
        wall = ctx.cli(args, tracer)
        ctx.check_files(out, ["dataset.csv", "dataset.manifest.json"])
        ctx.expect_same("dataset.csv", sha256(out / "dataset.csv"))
        return wall

    def _split(self, ctx, out, seed, tracer):
        args = ["split", "--data", str(out / "dataset.csv"), "--out", str(out), "--seed", seed,
                *self.split_args]
        wall = ctx.cli(args, tracer)
        parts = ["train.csv", "val.csv", "test.csv"]
        ctx.check_files(out, parts + ["split.manifest.json"])
        for part in parts:
            ctx.expect_same(part, sha256(out / part))
        return wall

    def _report(self, ctx, out, tracer):
        report = out / "report"
        args = ["report", "--data", str(out / "dataset.csv"), "--out", str(report)]
        wall = ctx.cli(args, tracer)
        ctx.check_files(report, ["summary.csv"] + [f"hist_{c}.csv" for c in REPORT_COLUMNS])
        ctx.expect_same("summary.csv", sha256(report / "summary.csv"))
        return wall

    def _evaluate(self, ctx, out, seed, tracer):
        ev = out / "eval"
        args = ["evaluate", "--include-bs", "--data", str(out / "dataset.csv"),
                "--out", str(ev), "--seed", seed, *self.split_args]
        wall = ctx.cli(args, tracer)
        check_evaluate_outputs(ctx, ev, ["bs_implied", "bs_realized"])
        return wall, read_report_table(ev / "report_table.csv")["bs_realized"][0]


def check_evaluate_outputs(ctx: Context, ev: Path, models: list[str]) -> dict:
    """Documented files exist, every MAE is finite, bs_implied stays in
    the half-spread noise band, and the table repeats byte for byte."""
    ctx.check_files(
        ev,
        ["report.txt", "report_table.csv", "evaluate.manifest.json"]
        + [f"curve_{m}.csv" for m in models],
    )
    table = read_report_table(ev / "report_table.csv")
    ctx.check(sorted(table) == sorted(models), f"report models {sorted(table)} != {sorted(models)}")
    ctx.check(all(math.isfinite(mae) for mae, _ in table.values()), "non-finite test MAE")
    h = ob.SimConfig().half_spread
    # midpoint = fair * (1 + b) with |b| <= h, so |fair - mid| / mid <= h / (1 - h)
    band_pct = 100.0 * h / (1.0 - h)
    implied_mape = table["bs_implied"][1]
    ctx.check(implied_mape <= band_pct,
              f"bs_implied MAPE {implied_mape:.4f}% exceeds the {band_pct:.4f}% noise band")
    ctx.expect_same("report_table.csv", sha256(ev / "report_table.csv"))
    return table


class InProcessFit:
    """Set-up shared by the training workloads: the default train/val/test
    split of a freshly generated dataset, held in memory."""

    def setup(self, ctx: Context, tracer):
        spec = ob.SplitSpec(seed=ctx.seed)

        def build():
            sim = ob.SimConfig(n_underlyings=self.n_underlyings, seed=SIM_SEED)
            with traced(tracer):
                ds = ob.Dataset.from_quotes(ob.generate_dataset(sim))
                parts = ob.split_dataset(ds, spec)
            ctx.expect_same("setup dataset", dataset_digest(ds))
            return parts

        return ctx.op("setup", build)


class GbdtFit(InProcessFit):
    """In-process train_gbdt at depth 10 and depth 5, fixed rounds."""

    name = "gbdt_fit"

    def __init__(self, budget: dict):
        self.n_underlyings = budget["n_underlyings"]
        self.rounds = {10: budget["gbdt10_rounds"], 5: budget["gbdt5_rounds"]}

    def warm_up(self, ctx: Context, state) -> None:
        train, val, _ = state
        ctx.op("warm-up", lambda: ob.train_gbdt(train, val, ob.GbdtConfig(max_depth=5, num_rounds=1)))

    def cycle(self, ctx: Context, state, index: int, tracer) -> CycleResult:
        train, val, test = state
        ops = {}
        total = 0.0
        for depth in (10, 5):
            # a self-test breaks one fit: an empty validation set must be refused
            val_used = val.subset([]) if ctx.take_sabotage() else val
            seconds, mae = ctx.op(
                f"train_gbdt depth {depth}",
                lambda: self._fit(ctx, train, val_used, test, depth, tracer),
            )
            total += seconds
            ops[f"gbdt{depth}_round_s"] = seconds / self.rounds[depth]
            ops[f"gbdt{depth}_test_mae"] = mae
        return CycleResult(total, ops, ops["gbdt10_test_mae"])

    def _fit(self, ctx, train, val, test, depth, tracer):
        rounds = self.rounds[depth]
        config = ob.GbdtConfig(max_depth=depth, num_rounds=rounds)
        model, seconds = fit_gbdt(train, val, config, tracer)
        ctx.check(len(model.history) == rounds, f"trained {len(model.history)} of {rounds} rounds")
        path = ctx.work / f"gbdt{depth}.model"
        with traced(tracer):
            mae = ob.mae(ob.predict_gbdt(model, test.features), test.targets)
            ob.save_model(model, path, {"kind": f"gbdt{depth}"})
        ctx.check(math.isfinite(mae), f"gbdt{depth} test MAE is {mae}")
        ctx.expect_same(path.name, sha256(path))
        return seconds, mae


def fit_gbdt(train, val, config: ob.GbdtConfig, tracer):
    """train_gbdt, timed; traced, also books rounds and tree sizes."""
    with traced(tracer):
        start = time.perf_counter()
        model = ob.train_gbdt(train, val, config)
        seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.seconds["gbdt.train"] += seconds
        tracer.counts["gbdt.rounds"] += len(model.history)
        depth = config.max_depth
        tracer.counts[f"gbdt.trees.d{depth}"] += len(model.trees)
        tracer.counts[f"gbdt.nodes.d{depth}"] += sum(t.n_nodes for t in model.trees)
    return model, seconds


def fit_mlp(train, val, arch, config: ob.MlpTrainConfig, tracer):
    with traced(tracer):
        start = time.perf_counter()
        net, history = ob.train_mlp(train, val, arch, config)
        seconds = time.perf_counter() - start
    return net, history, seconds


MLP_ARCHS = {"mlp3": ob.THREE_LAYER, "mlp5": ob.FIVE_LAYER}


class MlpFit(InProcessFit):
    """In-process train_mlp with the 3- and 5-layer presets, fixed epochs."""

    name = "mlp_fit"

    def __init__(self, budget: dict):
        self.n_underlyings = budget["n_underlyings"]
        self.epochs = {"mlp3": budget["mlp3_epochs"], "mlp5": budget["mlp5_epochs"]}

    def warm_up(self, ctx: Context, state) -> None:
        # one untimed batch per preset through the full training path
        train, val, _ = state
        rows = train.subset(range(min(len(train), ob.MlpTrainConfig().batch_size)))
        for arch in MLP_ARCHS.values():
            ctx.op("warm-up", lambda: ob.train_mlp(rows, val, arch, ob.MlpTrainConfig(max_epochs=1)))

    def cycle(self, ctx: Context, state, index: int, tracer) -> CycleResult:
        train, val, test = state
        ops = {}
        total = 0.0
        for kind in MLP_ARCHS:
            val_used = val.subset([]) if ctx.take_sabotage() else val
            seconds, mae = ctx.op(
                f"train_mlp {kind}", lambda: self._fit(ctx, train, val_used, test, kind, tracer)
            )
            total += seconds
            ops[f"{kind}_epoch_s"] = seconds / self.epochs[kind]
            ops[f"{kind}_test_mae"] = mae
        return CycleResult(total, ops, ops["mlp5_test_mae"])

    def _fit(self, ctx, train, val, test, kind, tracer):
        epochs = self.epochs[kind]
        # early-stop patience (150) is never reached within the budget
        config = ob.MlpTrainConfig(max_epochs=epochs)
        net, history, seconds = fit_mlp(train, val, MLP_ARCHS[kind], config, tracer)
        ctx.check(len(history) == epochs, f"trained {len(history)} of {epochs} epochs")
        path = ctx.work / f"{kind}.model"
        with traced(tracer):
            mae = ob.mae(ob.forward(net, test.features), test.targets)
            ob.save_model(net, path, {"kind": kind})
        ctx.check(math.isfinite(mae), f"{kind} test MAE is {mae}")
        ctx.expect_same(path.name, sha256(path))
        return seconds, mae


class BatchScore:
    """`optbench evaluate` of four saved models plus both baselines."""

    name = "batch_score"
    KINDS = ("gbdt10", "gbdt5", "mlp3", "mlp5")

    def __init__(self, budget: dict):
        self.n_underlyings = budget["n_underlyings"]
        self.budget = budget
        self.fractions = budget["split"]

    def setup(self, ctx: Context, tracer):
        return ctx.op("setup", lambda: self._build(ctx, tracer))

    def _build(self, ctx: Context, tracer):
        train_f, val_f, test_f = self.fractions
        spec = ob.SplitSpec(train_fraction=train_f, val_fraction=val_f, test_fraction=test_f,
                            seed=ctx.seed)
        data = ctx.work / "dataset.csv"
        with traced(tracer):
            quotes = ob.generate_dataset(
                ob.SimConfig(n_underlyings=self.n_underlyings, seed=SIM_SEED)
            )
            ob.write_csv(quotes, data)
            kept = ob.filter_quotes(quotes).kept
            train, val, test = ob.split_dataset(ob.Dataset.from_quotes(kept), spec)
        digest = sha256(data)
        ctx.expect_same("dataset.csv", digest)
        expected = {}
        for kind in self.KINDS:
            if kind.startswith("gbdt"):
                depth = int(kind[4:])
                config = ob.GbdtConfig(max_depth=depth, num_rounds=self.budget[f"{kind}_rounds"])
                model, _ = fit_gbdt(train, val, config, tracer)
                predict = ob.predict_gbdt
            else:
                config = ob.MlpTrainConfig(max_epochs=self.budget[f"{kind}_epochs"])
                model, _, _ = fit_mlp(train, val, MLP_ARCHS[kind], config, tracer)
                predict = ob.forward
            path = ctx.work / f"{kind}.model"
            manifest = {
                "kind": kind,
                "dataset_digest": digest,
                "dataset_name": data.name,
                "split": split_manifest(spec),
            }
            with traced(tracer):
                ob.save_model(model, path, manifest)
            ctx.expect_same(path.name, sha256(path))
            expected[kind] = ob.mae(predict(model, test.features), test.targets)
        return expected

    def cycle(self, ctx: Context, expected, index: int, tracer) -> CycleResult:
        ev = ctx.work / f"eval{index}"
        models = [f"{kind}.model" for kind in self.KINDS]
        if ctx.take_sabotage():
            models[0] = "missing.model"
        args = ["evaluate", *models, "--include-bs", "--data", "dataset.csv",
                "--out", str(ev), "--seed", str(ctx.seed), *split_args(self.fractions)]

        def score():
            wall = ctx.cli(args, tracer)
            table = check_evaluate_outputs(ctx, ev, [*self.KINDS, "bs_implied", "bs_realized"])
            for kind, mae in expected.items():
                got = table[kind][0]
                ctx.check(math.isclose(got, mae, rel_tol=1e-12),
                          f"{kind}: evaluate reports MAE {got!r}, in-process {mae!r}")
            return wall, table

        try:
            wall, table = ctx.op("evaluate", score)
        finally:
            shutil.rmtree(ev, ignore_errors=True)
        return CycleResult(wall, {"score_s": wall}, table["gbdt10"][0])


def measure(workload, ctx, seconds: int, trace: bool):
    """Set up SETUPS times, warm up, then run cycles for `seconds`.

    Traced, the last set-up is traced and cycles alternate untraced,
    traced, untraced, ... so the overhead is measured within the run.
    """
    setup_tracer = Tracer()
    setup_times = []
    state = None
    for i in range(SETUPS):
        start = time.perf_counter()
        try:
            state = workload.setup(ctx, setup_tracer if trace and i == SETUPS - 1 else None)
        except OpFailed:
            continue
        setup_times.append(time.perf_counter() - start)
    if not setup_times:
        return setup_times, [], [], setup_tracer, Tracer()

    warm_up = getattr(workload, "warm_up", None)
    if warm_up is not None:
        try:
            warm_up(ctx, state)
        except OpFailed:
            pass

    cycle_tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while index < 1000:
        done = plain + traced
        if len(done) >= MIN_CYCLES and plain and (traced or not trace):
            if time.perf_counter() - start >= seconds:
                break
        elif not done and index > MIN_CYCLES:
            break  # every cycle so far has failed
        tracer = Tracer() if trace and index % 2 == 1 else None
        try:
            result = workload.cycle(ctx, state, index, tracer)
        except OpFailed:
            index += 1
            continue
        if tracer is None:
            plain.append(result)
        else:
            cycle_tracer.add(tracer)
            traced.append(result)
        index += 1
    return setup_times, plain, traced, setup_tracer, cycle_tracer


WORKLOADS = {w.name: w for w in (CliData, GbdtFit, MlpFit, BatchScore)}

DEFAULT_UNDERLYINGS = ob.SimConfig().n_underlyings

# Round and epoch budgets, and the scale of the two CLI workloads: about
# half the default, so that a run fits several cycles and its set-ups in
# about half a minute. Their test splits are enlarged so that the test
# MAE averages over enough rows to stay steady across seeds (README.md).
BUDGETS = {
    "cli_data": {"n_underlyings": 12, "split": (0.89, 0.01, 0.1)},
    "gbdt_fit": {"n_underlyings": DEFAULT_UNDERLYINGS, "gbdt10_rounds": 3, "gbdt5_rounds": 6},
    "mlp_fit": {"n_underlyings": DEFAULT_UNDERLYINGS, "mlp3_epochs": 1, "mlp5_epochs": 1},
    "batch_score": {
        "n_underlyings": 10,
        "split": (0.39, 0.01, 0.6),
        "gbdt10_rounds": 4, "gbdt5_rounds": 4, "mlp3_epochs": 1, "mlp5_epochs": 1,
    },
}

# About 8,000 quotes: for the self-test only.
TINY_BUDGETS = {
    "cli_data": dict(BUDGETS["cli_data"], n_underlyings=2),
    "gbdt_fit": {"n_underlyings": 2, "gbdt10_rounds": 2, "gbdt5_rounds": 2},
    "mlp_fit": {"n_underlyings": 2, "mlp3_epochs": 1, "mlp5_epochs": 1},
    "batch_score": dict(BUDGETS["batch_score"], n_underlyings=2, gbdt10_rounds=2, gbdt5_rounds=2),
}
