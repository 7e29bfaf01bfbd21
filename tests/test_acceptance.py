"""End-to-end acceptance gate.

Each test covers one numbered criterion and reports a single
"criterion N: PASS/FAIL" line in the terminal summary.
"""

import json
import math
import time

import numpy as np
import pytest

from optbench import (
    Architecture,
    BsInputs,
    Dataset,
    GbdtConfig,
    LayerSpec,
    MlpTrainConfig,
    OptionType,
    SimConfig,
    SplitSpec,
    adam_step,
    AdamState,
    backward,
    best_split,
    binned_errors,
    bs_price,
    eta_decay,
    filter_quotes,
    forward,
    generate_dataset,
    init_network,
    load_model,
    mae,
    mape,
    predict_gbdt,
    quantize_features,
    reduce_lr_on_plateau,
    save_model,
    split_dataset,
    split_indices,
    summary_stats,
    train_gbdt,
    train_mlp,
)
from optbench.cli import main as cli_main
from optbench.gbdt import NodeHistogram, _grow_tree
from optbench.pipeline import bs_realized

from conftest import ACCEPTANCE_RESULTS, make_dataset
from test_gbdt import brute_force_best_split, exhaustive_partition_best_gain


def _record(n: int, ok: bool, detail: str):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_RESULTS.append(line)
    print(line)


@pytest.mark.slow
def test_criterion_1_pricing_oracles():
    t0 = time.perf_counter()
    try:
        # put-call parity on 1e5 random valid inputs
        rng = np.random.default_rng(101)
        n = 100_000
        s = rng.uniform(1.0, 5000.0, n)
        k = rng.uniform(1.0, 5000.0, n)
        t = rng.uniform(0.01, 5.0, n)
        r = rng.uniform(-0.05, 0.2, n)
        q = rng.uniform(0.0, 0.1, n)
        sigma = rng.uniform(0.01, 2.9, n)
        worst_parity = 0.0
        for i in range(n):
            kw = dict(
                underlying_price=s[i], strike=k[i], maturity_years=t[i],
                rate=r[i], dividend_yield=q[i], sigma=sigma[i],
            )
            call = bs_price(BsInputs(option_type=OptionType.CALL, **kw))
            put = bs_price(BsInputs(option_type=OptionType.PUT, **kw))
            rhs = s[i] * math.exp(-q[i] * t[i]) - k[i] * math.exp(-r[i] * t[i])
            tol = 1e-10 * max(1.0, s[i], k[i])
            gap = abs(call - put - rhs)
            worst_parity = max(worst_parity, gap / tol)
            assert gap <= tol

        # ATM benchmark against the closed-form value
        atm = bs_price(BsInputs(
            underlying_price=100.0, strike=100.0, maturity_years=1.0,
            rate=0.0, dividend_yield=0.0, sigma=0.2, option_type=OptionType.CALL,
        ))
        assert atm == pytest.approx(7.9656, abs=1e-4)

        # Monte Carlo oracle: 20 fixed parameter sets, 1e7 paths each
        param_rng = np.random.default_rng(np.random.SeedSequence(20260822).spawn(1)[0])
        n_paths = 10_000_000
        worst_mc = 0.0
        for i in range(20):
            ps = float(param_rng.uniform(20, 500))
            pk = ps * float(param_rng.uniform(0.7, 1.3))
            pt = float(param_rng.uniform(0.1, 2.0))
            pr = float(param_rng.uniform(0.0, 0.08))
            pq = float(param_rng.uniform(0.0, 0.04))
            psig = float(param_rng.uniform(0.1, 0.8))
            ot = OptionType.CALL if i % 2 == 0 else OptionType.PUT
            price = bs_price(BsInputs(
                underlying_price=ps, strike=pk, maturity_years=pt,
                rate=pr, dividend_yield=pq, sigma=psig, option_type=ot,
            ))
            z = np.random.default_rng(1000 + i).standard_normal(n_paths)
            terminal = ps * np.exp(
                (pr - pq - 0.5 * psig * psig) * pt + psig * math.sqrt(pt) * z
            )
            if ot is OptionType.CALL:
                payoff = np.maximum(terminal - pk, 0.0)
            else:
                payoff = np.maximum(pk - terminal, 0.0)
            payoff *= math.exp(-pr * pt)
            se = float(payoff.std(ddof=1)) / math.sqrt(n_paths)
            dev = abs(price - float(payoff.mean())) / se
            worst_mc = max(worst_mc, dev)
            assert dev < 4.0

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
    except BaseException as exc:
        _record(1, False, f"{type(exc).__name__}: {exc}")
        raise
    _record(1, True,
            f"parity worst {worst_parity:.2e} of tol, ATM {atm:.6f}, "
            f"MC worst {worst_mc:.2f} SE over 20x1e7 paths, {elapsed:.0f}s")


def test_criterion_2_learning_rate_decay():
    try:
        sched = GbdtConfig()
        for it in (0, 100, 2529, 39999):
            x = (it + 1) / 8.0
            expected = 0.2 + (0.5 - 0.2) * math.exp(-(x * x) / 100_000)
            assert abs(eta_decay(it, sched) - expected) <= 1e-12

        # strict decrease and the open lower bound hold while the decay term
        # is representable; around iteration ~15k the term drops below one
        # ulp of 0.2 and the value pins to eta_min exactly
        values = [eta_decay(i) for i in range(12_001)]
        assert all(a > b for a, b in zip(values, values[1:]))  # strictly decreasing
        assert all(0.2 < v <= 0.5 for v in values)
        for it in (20_000, 50_000, 10**6):
            assert 0.2 <= eta_decay(it) <= 0.5
    except BaseException as exc:
        _record(2, False, f"{type(exc).__name__}: {exc}")
        raise
    _record(2, True,
            "formula within 1e-12 at {0,100,2529,39999}, strictly decreasing, "
            "bounded (0.2, 0.5]")


def test_criterion_3_split_oracle_equivalence():
    try:
        rng = np.random.default_rng(303)
        checked = 0
        for trial in range(25):
            n = int(rng.integers(5, 65))
            d = int(rng.integers(2, 7))
            if trial % 3 == 2:  # duplicated values exercise tie handling
                X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
            else:
                X = rng.normal(size=(n, d))
            grad = rng.normal(size=n)
            hess = np.ones(n)
            n_bins = 256  # >= row count, so binning loses nothing
            binned = quantize_features(X, n_bins)

            hist_g = np.zeros((d, n_bins))
            hist_h = np.zeros((d, n_bins))
            for f in range(d):
                np.add.at(hist_g[f], binned.codes[:, f], grad)
                np.add.at(hist_h[f], binned.codes[:, f], hess)
            mask = np.zeros((d, n_bins - 1), dtype=bool)
            for f in range(d):
                mask[f, : len(binned.edges[f])] = True
            decision = best_split(
                NodeHistogram(hist_g, hist_h), 1.0, 1.0, mask
            )
            expected = brute_force_best_split(X, grad, hess, binned.edges, 1.0, 1.0)
            assert (decision is None) == (expected is None)
            if decision is None:
                continue
            assert decision.feature == expected[0]
            assert decision.bin_index == expected[1]
            assert abs(decision.gain - expected[2]) <= 1e-10

            # same choice materializes in a grown tree's root
            cfg = GbdtConfig(max_depth=1, num_rounds=1, n_bins=n_bins)
            tree, _ = _grow_tree(binned, grad, cfg, 1.0)
            assert tree.feature[0] == decision.feature
            threshold = binned.edges[decision.feature][decision.bin_index]
            assert tree.threshold[0] == threshold

            # the quantile-edge search is exhaustive over row partitions
            best_any = exhaustive_partition_best_gain(X, grad, hess, 1.0, 1.0)
            assert abs(decision.gain - best_any) <= 1e-10
            checked += 1
        assert checked >= 15
    except BaseException as exc:
        _record(3, False, f"{type(exc).__name__}: {exc}")
        raise
    _record(3, True,
            f"histogram splits equal brute force on 25 datasets "
            f"({checked} with a usable split), gain within 1e-10")


def test_criterion_4_gradients_and_adam():
    try:
        rng = np.random.default_rng(404)
        worst = 0.0
        eps = 1e-6
        for arch_i in range(10):
            n_inputs = int(rng.integers(2, 7))
            n_hidden = int(rng.integers(1, 4))
            layers = [
                LayerSpec(int(rng.integers(2, 9)), "relu") for _ in range(n_hidden)
            ]
            layers.append(LayerSpec(1, "linear"))
            arch = Architecture(tuple(layers))
            net = init_network(arch, n_inputs, seed=arch_i)
            # jitter the zero-initialized biases so no pre-activation sits on
            # the relu kink; finite differences are only valid where the loss
            # is differentiable
            for b in net.biases:
                b += rng.uniform(0.05, 0.15, size=b.shape)
            batch = rng.normal(size=(int(rng.integers(4, 13)), n_inputs))
            targets = rng.normal(size=batch.shape[0]) + 3.0

            # confirm a safety margin around every kink at these fixed seeds
            acts = batch
            margin = np.inf
            for w, b in zip(net.weights[:-1], net.biases[:-1]):
                z = acts @ w.T + b
                margin = min(margin, float(np.abs(z).min()))
                acts = np.maximum(z, 0.0)
            preds = forward(net, batch)
            margin = min(margin, float(np.abs(preds - targets).min()))
            assert margin > 100 * eps

            grads_w, grads_b = backward(net, batch, targets)

            def loss():
                return float(np.mean(np.abs(forward(net, batch) - targets)))

            for layer in range(len(net.weights)):
                for params, grads in (
                    (net.weights[layer], grads_w[layer]),
                    (net.biases[layer], grads_b[layer]),
                ):
                    fd = np.zeros_like(params)
                    it = np.nditer(params, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = params[idx]
                        params[idx] = orig + eps
                        up = loss()
                        params[idx] = orig - eps
                        down = loss()
                        params[idx] = orig
                        fd[idx] = (up - down) / (2 * eps)
                    scale = max(float(np.abs(grads).max()), 1e-12)
                    rel = float(np.abs(fd - grads).max()) / scale
                    worst = max(worst, rel)
        assert worst <= 1e-6

        # Adam: first step with unit gradient and lr=0.01 displaces by ~0.01
        net = init_network(Architecture((LayerSpec(1, "linear"),)), 1, seed=0)
        net.weights[0][:] = 0.0
        state = AdamState.for_network(net)
        adam_step(net, state, [np.array([[1.0]])], [np.zeros(1)], lr=0.01)
        displacement = float(net.weights[0][0, 0])
        assert abs(displacement - (-0.01)) <= 1e-9
    except BaseException as exc:
        _record(4, False, f"{type(exc).__name__}: {exc}")
        raise
    _record(4, True,
            f"max relative gradient error {worst:.2e} over 10 architectures; "
            f"Adam step {displacement:.10f} within 1e-9 of -0.01")


def test_criterion_5_schedule_and_stopping():
    try:
        cfg = MlpTrainConfig()  # lr 0.01, factor 0.1, patience 10, floor 1e-6

        # each full 10-epoch stagnation window multiplies lr by 0.1
        flat = [1.0]
        assert reduce_lr_on_plateau(flat, cfg) == pytest.approx(0.01)
        assert reduce_lr_on_plateau(flat + [1.0] * 10, cfg) == pytest.approx(1e-3)
        assert reduce_lr_on_plateau(flat + [1.0] * 20, cfg) == pytest.approx(1e-4)
        assert reduce_lr_on_plateau(flat + [1.0] * 30, cfg) == pytest.approx(1e-5)
        assert reduce_lr_on_plateau(flat + [1.0] * 40, cfg) == pytest.approx(1e-6)
        assert reduce_lr_on_plateau(flat + [1.0] * 80, cfg) == 1e-6  # floored
        improving = [5.0, 4.0, 3.0] + [3.0] * 9
        assert reduce_lr_on_plateau(improving, cfg) == pytest.approx(0.01)

        # real training halts exactly early_stop_patience epochs past the best
        rng = np.random.default_rng(1)
        n = 80
        feats = np.empty((n, 26))
        feats[:, 0] = rng.uniform(50, 150, n)
        feats[:, 1] = rng.uniform(50, 150, n)
        feats[:, 2] = rng.uniform(0.0, 0.07, n)
        feats[:, 3] = rng.uniform(0.0, 0.04, n)
        feats[:, 4] = rng.uniform(0.05, 1.0, n)
        feats[:, 5] = rng.integers(0, 2, n).astype(np.float64)
        feats[:, 6:] = rng.uniform(50, 150, (n, 20))
        targets = rng.uniform(1, 50, n)
        train = Dataset(feats, targets)
        vrng = np.random.default_rng(2)
        vfeats = feats[:24].copy()
        vtargets = vrng.uniform(1, 50, 24)
        val = Dataset(vfeats, vtargets)

        arch = Architecture((LayerSpec(8, "relu"), LayerSpec(1, "linear")))
        tcfg = MlpTrainConfig(max_epochs=2000, batch_size=32, seed=0,
                              early_stop_patience=150)
        net, history = train_mlp(train, val, arch, tcfg)
        vals = [r.val_mae for r in history]
        best_epoch = int(np.argmin(vals)) + 1
        assert len(history) < tcfg.max_epochs  # actually stopped early
        assert len(history) == best_epoch + 150
        restored = float(np.mean(np.abs(forward(net, vfeats) - vtargets)))
        assert restored == pytest.approx(min(vals), abs=1e-9)
    except BaseException as exc:
        _record(5, False, f"{type(exc).__name__}: {exc}")
        raise
    _record(5, True,
            f"lr steps 0.01->1e-6 over stagnation windows; training stopped at "
            f"epoch {len(history)} = best {best_epoch} + 150, best weights restored")


@pytest.mark.slow
def test_criterion_6_benchmark_ordering():
    t0 = time.perf_counter()
    try:
        quotes = generate_dataset(SimConfig(seed=42))
        kept = filter_quotes(quotes).kept
        ds = Dataset.from_quotes(kept)
        assert 90_000 <= len(ds) <= 110_000  # ~100k rows at default scale
        train, val, test = split_dataset(ds, SplitSpec(seed=42))
        test_idx = split_indices(len(kept), SplitSpec(seed=42))[2]

        g10 = train_gbdt(train, val, GbdtConfig(max_depth=10, num_rounds=500))
        mae10 = mae(predict_gbdt(g10, test.features), test.targets)
        g5 = train_gbdt(train, val, GbdtConfig(max_depth=5, num_rounds=500))
        mae5 = mae(predict_gbdt(g5, test.features), test.targets)
        mae_rv = mae(bs_realized(kept[test_idx]), test.targets)

        assert mae10 <= mae5
        assert mae10 < mae_rv
        elapsed = time.perf_counter() - t0
        assert elapsed < 900.0
    except BaseException as exc:
        _record(6, False, f"{type(exc).__name__}: {exc}")
        raise
    _record(6, True,
            f"test MAE gbdt10 {mae10:.4f} <= gbdt5 {mae5:.4f}, "
            f"gbdt10 < bs_realized {mae_rv:.4f}; {len(ds)} rows, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_noiseless_round_trip(tmp_path):
    try:
        out = tmp_path / "run"
        code = cli_main([
            "gen", "--out", str(out), "--seed", "77",
            "--set", "sim.n_underlyings=4",
            "--set", "sim.days_per_underlying=145",
            "--set", "sim.half_spread=0",
            "--set", "sim.vol_regimes=0.15:0.6,0.30:0.4",
        ])
        assert code == 0
        data = out / "dataset.csv"
        code = cli_main([
            "train", "gbdt10", "--data", str(data), "--out", str(out),
            "--seed", "77", "--set", "gbdt.num_rounds=400",
        ])
        assert code == 0
        code = cli_main([
            "evaluate", str(out / "gbdt10.model"), "--include-bs",
            "--data", str(data), "--out", str(out), "--seed", "77",
        ])
        assert code == 0

        import csv as _csv

        with (out / "report_table.csv").open() as fh:
            rows = {row["model"]: row for row in _csv.DictReader(fh)}
        assert set(rows) == {"gbdt10", "bs_implied", "bs_realized"}
        # exact zero, not merely small: quotes reprice through the same formula
        assert rows["bs_implied"]["mae"] == "0.0"
        assert float(rows["bs_implied"]["mae"]) == 0.0

        from optbench import read_csv

        ds = Dataset.from_quotes(filter_quotes(read_csv(data)).kept)
        _, _, test = split_dataset(ds, SplitSpec(seed=77))
        mean_mid = float(test.targets.mean())
        g_mae = float(rows["gbdt10"]["mae"])
        assert g_mae < 0.01 * mean_mid
    except BaseException as exc:
        _record(7, False, f"{type(exc).__name__}: {exc}")
        raise
    _record(7, True,
            f"bs_implied MAE exactly 0.0; gbdt10 MAE {g_mae:.4f} = "
            f"{g_mae / mean_mid * 100:.3f}% of mean midpoint {mean_mid:.2f}")


def test_criterion_8_metric_identities():
    try:
        assert mae([1.0, 2.0], [2.0, 4.0]) == 1.5
        assert mae([3.0], [3.0]) == 0.0
        assert mape([110.0], [100.0]) == 10.0
        assert mape([90.0, 110.0], [100.0, 100.0]) == 10.0

        rng = np.random.default_rng(808)
        targets = rng.uniform(0.5, 800.0, 500)
        preds = targets * rng.uniform(0.85, 1.15, 500)
        stats = binned_errors(preds, targets, n_bins=15)
        weighted = sum(s.count * s.mae for s in stats if s.mae is not None) / 500
        assert abs(weighted - mae(preds, targets)) <= 1e-10

        s = summary_stats(np.arange(1.0, 1001.0))
        assert abs(s.mean - 500.5) <= 1e-12
        assert abs(s.std - math.sqrt(1000 * 1001 / 12.0)) <= 1e-9
        assert abs(s.q25 - 250.75) <= 1e-12
        assert abs(s.median - 500.5) <= 1e-12
        assert abs(s.q75 - 750.25) <= 1e-12
        assert s.minimum == 1.0 and s.maximum == 1000.0
    except BaseException as exc:
        _record(8, False, f"{type(exc).__name__}: {exc}")
        raise
    _record(8, True,
            "mae/mape hand values exact; binned curve reconstitutes global MAE "
            "within 1e-10; summary stats match closed forms")


def test_criterion_9_determinism_and_persistence(tmp_path):
    try:
        tiny = [
            "--set", "sim.n_underlyings=2",
            "--set", "sim.days_per_underlying=30",
        ]
        # gen: identical bytes under a fixed seed
        for d in ("a", "b"):
            assert cli_main(["gen", "--out", str(tmp_path / d), "--seed", "5", *tiny]) == 0
        gen_a = (tmp_path / "a" / "dataset.csv").read_bytes()
        assert gen_a == (tmp_path / "b" / "dataset.csv").read_bytes()

        # split: identical part files
        data = tmp_path / "a" / "dataset.csv"
        for d in ("sa", "sb"):
            assert cli_main([
                "split", "--data", str(data), "--out", str(tmp_path / d), "--seed", "5",
            ]) == 0
        for part in ("train", "val", "test"):
            assert (tmp_path / "sa" / f"{part}.csv").read_bytes() == \
                (tmp_path / "sb" / f"{part}.csv").read_bytes()

        # train: identical model files for both families
        for d in ("ta", "tb"):
            assert cli_main([
                "train", "gbdt5", "--data", str(data), "--out", str(tmp_path / d),
                "--seed", "5", "--set", "gbdt.num_rounds=3",
            ]) == 0
            assert cli_main([
                "train", "mlp3", "--data", str(data), "--out", str(tmp_path / d),
                "--seed", "5", "--set", "mlp.max_epochs=2", "--set", "mlp.batch_size=256",
            ]) == 0
        for kind in ("gbdt5", "mlp3"):
            assert (tmp_path / "ta" / f"{kind}.model").read_bytes() == \
                (tmp_path / "tb" / f"{kind}.model").read_bytes()
            assert (tmp_path / "ta" / f"{kind}_metrics.csv").read_bytes() == \
                (tmp_path / "tb" / f"{kind}_metrics.csv").read_bytes()

        # evaluate: identical report artifacts for the same trained model
        for d in ("ea", "eb"):
            assert cli_main([
                "evaluate", str(tmp_path / "ta" / "gbdt5.model"), "--include-bs",
                "--data", str(data), "--out", str(tmp_path / d), "--seed", "5",
            ]) == 0
        for name in ("report.txt", "report_table.csv", "curve_gbdt5.csv"):
            assert (tmp_path / "ea" / name).read_bytes() == \
                (tmp_path / "eb" / name).read_bytes()
        # manifests may differ only in their timestamp
        ma = json.loads((tmp_path / "ea" / "evaluate.manifest.json").read_text())
        mb = json.loads((tmp_path / "eb" / "evaluate.manifest.json").read_text())
        ma.pop("created_at"), mb.pop("created_at")
        assert ma == mb

        # save/load: bit-identical predictions on 1000 random rows
        probe = make_dataset(1000, seed=909)
        train_ds = make_dataset(400, seed=910)
        val_ds = make_dataset(100, seed=911)
        g = train_gbdt(train_ds, val_ds, GbdtConfig(max_depth=4, num_rounds=6))
        g_path = save_model(g, tmp_path / "g.model")
        g_back = load_model(g_path)
        assert np.array_equal(
            predict_gbdt(g, probe.features), predict_gbdt(g_back, probe.features)
        )
        arch = Architecture(
            (LayerSpec(32, "relu"), LayerSpec(16, "relu"), LayerSpec(1, "linear"))
        )
        net, _ = train_mlp(
            train_ds, val_ds, arch,
            MlpTrainConfig(max_epochs=3, batch_size=128, seed=6),
        )
        n_path = save_model(net, tmp_path / "n.model")
        n_back = load_model(n_path)
        assert np.array_equal(
            forward(net, probe.features), forward(n_back, probe.features)
        )
    except BaseException as exc:
        _record(9, False, f"{type(exc).__name__}: {exc}")
        raise
    _record(9, True,
            "gen/split/train/evaluate byte-identical under fixed seeds; "
            "save/load predictions bit-identical on 1000 rows")
