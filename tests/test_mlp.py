import numpy as np
import pytest

import optbench.mlp
from optbench import (
    FIVE_LAYER,
    THREE_LAYER,
    AdamState,
    Architecture,
    DivergenceError,
    LayerSpec,
    MlpTrainConfig,
    ValidationError,
    adam_step,
    backward,
    fit_feature_stats,
    forward,
    init_network,
    reduce_lr_on_plateau,
    standardize,
    train_mlp,
)

from conftest import (
    allocating_adam_step,
    allocating_backward_scaled,
    full_matrix_forward,
    make_dataset,
    same_bits,
    traced_peak,
)


def mae_of(net, ds):
    return float(np.mean(np.abs(forward(net, ds.features) - ds.targets)))


class TestStandardize:
    def test_hand_example(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        stats = fit_feature_stats(X)
        assert stats.mean.tolist() == [2.0, 20.0]
        # population std over two points
        assert stats.std.tolist() == [1.0, 10.0]
        scaled = standardize(X, stats)
        assert scaled.tolist() == [[-1.0, -1.0], [1.0, 1.0]]

    def test_binary_column_left_alone(self):
        X = np.array([[0.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
        stats = fit_feature_stats(X)
        assert stats.mean[0] == 0.0
        assert stats.std[0] == 1.0
        scaled = standardize(X, stats)
        assert scaled[:, 0].tolist() == [0.0, 1.0, 1.0]

    def test_into_out_is_the_same_bits(self):
        # train_mlp standardizes each batch in place, _forward_scaled each
        # block into a row-prefix view of its buffer
        X = make_dataset(30, seed=61).features
        stats = fit_feature_stats(X)
        want = standardize(X, stats)
        buf = np.full((40, X.shape[1]), np.nan)
        prefix = buf[: len(X)]
        assert standardize(X, stats, out=prefix) is prefix
        assert same_bits(prefix, want) and np.isnan(buf[len(X) :]).all()
        rows = X.copy()
        assert standardize(rows, stats, out=rows) is rows
        assert same_bits(rows, want)

    def test_constant_column_safe(self):
        X = np.full((4, 1), 3.5)
        stats = fit_feature_stats(X)
        assert stats.std[0] == 1.0
        assert standardize(X, stats)[:, 0].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_feature_stats(np.empty((0, 3)))
        with pytest.raises(ValidationError):
            fit_feature_stats(np.array([[np.inf]]))


class TestArchitecture:
    def test_parameter_counts(self):
        assert init_network(THREE_LAYER, 26).n_parameters() == 39_937
        assert init_network(FIVE_LAYER, 26).n_parameters() == 50_177

    def test_layer_shapes(self):
        net = init_network(THREE_LAYER, 26, seed=4)
        assert [w.shape for w in net.weights] == [(256, 26), (128, 256), (1, 128)]
        assert [b.shape for b in net.biases] == [(256,), (128,), (1,)]

    def test_output_layer_must_be_single_linear(self):
        with pytest.raises(ValidationError):
            Architecture((LayerSpec(4, "relu"), LayerSpec(2, "linear")))
        with pytest.raises(ValidationError):
            Architecture((LayerSpec(4, "relu"), LayerSpec(1, "relu")))

    def test_unknown_activation(self):
        with pytest.raises(ValidationError):
            LayerSpec(4, "tanh")

    @pytest.mark.parametrize("n_inputs", [0, 2.5, True])
    def test_input_count_must_be_a_positive_integer(self, n_inputs):
        with pytest.raises(ValidationError, match="^n_inputs: "):
            init_network(THREE_LAYER, n_inputs)

    def test_he_init_scale(self):
        net = init_network(
            Architecture((LayerSpec(512, "relu"), LayerSpec(1, "linear"))), 256, seed=9
        )
        observed = net.weights[0].std()
        assert observed == pytest.approx(np.sqrt(2.0 / 256), rel=0.05)
        assert all(np.all(b == 0) for b in net.biases)

    def test_init_determinism(self):
        a = init_network(THREE_LAYER, 26, seed=7)
        b = init_network(THREE_LAYER, 26, seed=7)
        c = init_network(THREE_LAYER, 26, seed=8)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


class TestGradients:
    def small_net(self, seed=0):
        arch = Architecture(
            (LayerSpec(5, "relu"), LayerSpec(3, "relu"), LayerSpec(1, "linear"))
        )
        return init_network(arch, 4, seed=seed)

    def test_zero_gradient_at_exact_fit(self):
        net = self.small_net()
        X = np.random.default_rng(1).normal(size=(6, 4))
        y = forward(net, X)
        grads_w, grads_b = backward(net, X, y)
        assert all(np.all(g == 0) for g in grads_w)
        assert all(np.all(g == 0) for g in grads_b)

    def test_finite_difference_agreement(self):
        net = self.small_net(seed=3)
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 4))
        y = rng.normal(size=8)

        def loss():
            return float(np.mean(np.abs(forward(net, X) - y)))

        grads_w, grads_b = backward(net, X, y)
        eps = 1e-6
        worst = 0.0
        for layer in range(len(net.weights)):
            w = net.weights[layer]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                orig = w[idx]
                w[idx] = orig + eps
                up = loss()
                w[idx] = orig - eps
                down = loss()
                w[idx] = orig
                fd = (up - down) / (2 * eps)
                worst = max(worst, abs(fd - grads_w[layer][idx]))
        assert worst < 1e-7

    def test_bias_finite_difference(self):
        net = self.small_net(seed=5)
        rng = np.random.default_rng(13)
        X = rng.normal(size=(5, 4))
        y = rng.normal(size=5)
        grads_w, grads_b = backward(net, X, y)
        eps = 1e-6
        for layer in range(len(net.biases)):
            orig = net.biases[layer][0]
            net.biases[layer][0] = orig + eps
            up = float(np.mean(np.abs(forward(net, X) - y)))
            net.biases[layer][0] = orig - eps
            down = float(np.mean(np.abs(forward(net, X) - y)))
            net.biases[layer][0] = orig
            fd = (up - down) / (2 * eps)
            assert grads_b[layer][0] == pytest.approx(fd, abs=1e-7)

    def test_forward_single_row_returns_float(self):
        net = self.small_net()
        row = np.ones(4)
        out = forward(net, row)
        assert isinstance(out, float)
        assert out == forward(net, row[None, :])[0]

    def test_batch_shape_checked(self):
        net = self.small_net()
        with pytest.raises(ValidationError):
            forward(net, np.ones((3, 7)))
        with pytest.raises(ValidationError):
            backward(net, np.ones((3, 4)), np.ones(2))


WITH_LINEAR_HIDDEN = Architecture(
    (LayerSpec(16, "relu"), LayerSpec(8, "linear"), LayerSpec(4, "relu"), LayerSpec(1, "linear"))
)
ARCHITECTURES = pytest.mark.parametrize(
    "arch", [THREE_LAYER, FIVE_LAYER, WITH_LINEAR_HIDDEN], ids=["three", "five", "linear_hidden"]
)


class TestInPlaceLayers:
    """The workspace path against the allocating oracles of conftest, bit for bit."""

    def scaled_batch(self, arch, n, seed):
        ds = make_dataset(n, seed=seed)
        stats = fit_feature_stats(ds.features)
        net = init_network(arch, 26, seed=seed, stats=stats)
        return net, standardize(ds.features, stats), ds.targets

    @ARCHITECTURES
    def test_backward_matches_allocating_oracle(self, arch):
        net, scaled, targets = self.scaled_batch(arch, 64, seed=41)
        ws = optbench.mlp._Workspace(net, 64)
        # a full workspace, then row-prefix views of it, then full again
        for m in (64, 37, 1, 64):
            grads_w, grads_b, residual = optbench.mlp._backward_scaled(
                net, scaled[:m], targets[:m], ws
            )
            want_w, want_b, want_residual = allocating_backward_scaled(net, scaled[:m], targets[:m])
            assert same_bits(residual, want_residual)
            for ours, theirs in zip(grads_w + grads_b, want_w + want_b):
                assert same_bits(ours, theirs)

    def test_one_unit_layers_match_the_matrix_products(self):
        # a 1-unit layer's delta @ W[l] is a broadcast multiply; the oracle
        # takes it as a matrix product, here at the default batch size
        # and through a 1-unit relu layer as well as the output layer
        arch = Architecture((LayerSpec(16, "relu"), LayerSpec(1, "relu"), LayerSpec(1, "linear")))
        rows = MlpTrainConfig().batch_size
        for net, scaled, targets in (
            self.scaled_batch(arch, rows, seed=48),
            self.scaled_batch(THREE_LAYER, rows, seed=49),
        ):
            ws = optbench.mlp._Workspace(net, rows)
            got = optbench.mlp._backward_scaled(net, scaled, targets, ws)
            want = allocating_backward_scaled(net, scaled, targets)
            assert same_bits(got[2], want[2])
            for ours, theirs in zip(got[0] + got[1], want[0] + want[1]):
                assert same_bits(ours, theirs)

    @ARCHITECTURES
    def test_forward_matches_allocating_oracle(self, arch):
        ds = make_dataset(50, seed=43)
        net = init_network(arch, 26, seed=43, stats=fit_feature_stats(ds.features))
        assert same_bits(
            optbench.mlp._forward_scaled(net, ds.features), full_matrix_forward(net, ds.features)
        )

    @ARCHITECTURES
    @pytest.mark.parametrize("batch_size", [30, 64, 1000], ids=["divides", "remainder", "exceeds"])
    def test_training_matches_allocating_oracle(self, arch, batch_size, monkeypatch):
        train = make_dataset(150, seed=45)
        val = make_dataset(20, seed=46)
        cfg = MlpTrainConfig(max_epochs=3, batch_size=batch_size, seed=8)
        net, history = train_mlp(train, val, arch, cfg)
        monkeypatch.setattr(
            optbench.mlp,
            "_backward_scaled",
            lambda net, scaled, targets, ws: allocating_backward_scaled(net, scaled, targets),
        )
        monkeypatch.setattr(optbench.mlp, "_forward_scaled", full_matrix_forward)
        want_net, want_history = train_mlp(train, val, arch, cfg)
        assert history == want_history
        for ours, theirs in zip(net.weights + net.biases, want_net.weights + want_net.biases):
            assert same_bits(ours, theirs)

    def test_backward_results_do_not_alias(self):
        ds = make_dataset(40, seed=47)
        net = init_network(THREE_LAYER, 26, seed=47, stats=fit_feature_stats(ds.features))
        X, y = ds.features, ds.targets
        X_before, y_before = X.copy(), y.copy()
        first_w, first_b = backward(net, X[:20], y[:20])
        kept = [g.copy() for g in first_w + first_b]
        second_w, _ = backward(net, X[20:], y[20:])
        for now, then in zip(first_w + first_b, kept):
            assert same_bits(now, then)
        assert not any(np.shares_memory(a, b) for a in first_w for b in second_w)
        assert same_bits(X, X_before) and same_bits(y, y_before)
        forward(net, X)
        assert same_bits(X, X_before)


BLOCK = optbench.mlp._SCORE_BLOCK


class TestScoringBlocks:
    """The blocked forward pass against the whole-matrix oracle."""

    def net_and_rows(self, arch, n, seed):
        rng = np.random.default_rng(seed)
        net = init_network(arch, 26, seed=seed)
        for b in net.biases:
            b[:] = rng.normal(0.0, 0.1, size=b.shape)
        return net, rng.normal(size=(n, 26))

    @ARCHITECTURES
    @pytest.mark.parametrize("n", [0, 1, 2, BLOCK - 1, BLOCK])
    def test_one_block_is_the_full_matrix_pass(self, arch, n):
        net, scaled = self.net_and_rows(arch, n, seed=51)
        assert same_bits(optbench.mlp._forward_scaled(net, scaled), full_matrix_forward(net, scaled))

    @ARCHITECTURES
    @pytest.mark.parametrize("n", [BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK + 7])
    def test_each_block_is_the_full_matrix_pass_of_its_rows(self, arch, n):
        net, scaled = self.net_and_rows(arch, n, seed=52)
        out = optbench.mlp._forward_scaled(net, scaled)
        assert out.shape == (n,)
        for start in range(0, n, BLOCK):
            rows = slice(start, start + BLOCK)
            assert same_bits(out[rows], full_matrix_forward(net, scaled[rows]))

    @ARCHITECTURES
    def test_training_with_one_validation_block_matches_oracle(self, arch, monkeypatch):
        train = make_dataset(150, seed=54)
        val = make_dataset(BLOCK, seed=55)
        cfg = MlpTrainConfig(max_epochs=3, batch_size=64, seed=9)
        net, history = train_mlp(train, val, arch, cfg)
        monkeypatch.setattr(optbench.mlp, "_forward_scaled", full_matrix_forward)
        want_net, want_history = train_mlp(train, val, arch, cfg)
        assert history == want_history
        for ours, theirs in zip(net.weights + net.biases, want_net.weights + want_net.biases):
            assert same_bits(ours, theirs)

    def test_scoring_memory_is_set_by_the_block_not_the_rows(self):
        n = 20 * BLOCK
        ds = make_dataset(n, seed=56)
        net = init_network(THREE_LAYER, 26, seed=56, stats=fit_feature_stats(ds.features))
        units = sum(spec.units for spec in THREE_LAYER.layers)
        _, peak = traced_peak(forward, net, ds.features)
        # the scaled rows and the result, plus one buffer per layer for one
        # block; the whole-matrix pass needs n * units * 8 bytes on top
        bound = ds.features.nbytes + n * 8 + BLOCK * units * 8 + 2**20
        assert peak < bound, (peak, bound)


class TestStandardizedWhereUsed:
    """train_mlp standardizes each batch in its input buffer, and the
    forward pass each block in its own, with the bits of one standardized
    copy of the whole split."""

    def test_each_batch_is_its_rows_of_the_standardized_split(self, monkeypatch):
        train = make_dataset(150, seed=57)
        val = make_dataset(20, seed=58)
        cfg = MlpTrainConfig(max_epochs=3, batch_size=64, seed=10)
        seen, forwarded = [], []
        backward_scaled = optbench.mlp._backward_scaled
        forward_scaled = optbench.mlp._forward_scaled

        def recorded_backward(net, scaled, targets, ws):
            seen.append(scaled.copy())
            return backward_scaled(net, scaled, targets, ws)

        def recorded_forward(net, rows):
            forwarded.append(rows)
            return forward_scaled(net, rows)

        monkeypatch.setattr(optbench.mlp, "_backward_scaled", recorded_backward)
        monkeypatch.setattr(optbench.mlp, "_forward_scaled", recorded_forward)
        _, history = train_mlp(train, val, THREE_LAYER, cfg)
        scaled = standardize(train.features, fit_feature_stats(train.features))
        shuffle = optbench.mlp.seeded_rng(cfg.seed, (1,))
        want = []
        for _ in history:
            order = shuffle.permutation(len(train))
            want += [scaled[order[i : i + cfg.batch_size]] for i in range(0, len(train), 64)]
        assert len(seen) == len(want) == 3 * 3
        assert all(same_bits(got, rows) for got, rows in zip(seen, want))
        # the validation pass is handed the raw rows themselves
        assert all(rows is val.features for rows in forwarded) and len(forwarded) == 3

    def test_training_holds_no_standardized_copy(self):
        # one batch of every row, so the input buffer and workspace set the
        # fit's memory; a standardized copy of the training rows adds their size
        train = make_dataset(4000, seed=59)
        val = make_dataset(BLOCK, seed=60)
        arch = Architecture((LayerSpec(32, "relu"), LayerSpec(1, "linear")))
        cfg = MlpTrainConfig(max_epochs=1, batch_size=len(train), seed=11)
        _, peak = traced_peak(train_mlp, train, val, arch, cfg)
        X = train.features.nbytes
        # the input buffer and np.take's buffered copy of it, then the
        # activations, relu mask and residual of every row
        workspace = 2 * X + len(train) * (33 * 8 + 32 + 8)
        bound = workspace + X // 2
        assert peak < bound, (peak, bound)


class TestAdam:
    def one_param_net(self):
        arch = Architecture((LayerSpec(1, "linear"),))
        net = init_network(arch, 1, seed=0)
        net.weights[0][:] = 0.0
        return net

    def test_first_step_displacement(self):
        # with m_hat = g, v_hat = g^2 the first update is lr * g/(|g|+eps)
        net = self.one_param_net()
        state = AdamState.for_network(net)
        g = np.array([[2.5]])
        adam_step(net, state, [g], [np.zeros(1)], lr=0.01)
        expected = -0.01 * 2.5 / (2.5 + 1e-8)
        assert net.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
        # unit gradient gives the canonical 0.0099999999 step
        net2 = self.one_param_net()
        adam_step(net2, AdamState.for_network(net2),
                  [np.array([[1.0]])], [np.zeros(1)], lr=0.01)
        assert net2.weights[0][0, 0] == pytest.approx(-0.0099999999, abs=1e-12)

    def test_zero_gradient_is_noop(self):
        net = self.one_param_net()
        net.weights[0][0, 0] = 1.25
        state = AdamState.for_network(net)
        adam_step(net, state, [np.zeros((1, 1))], [np.zeros(1)], lr=0.1)
        assert net.weights[0][0, 0] == 1.25

    def test_descends_quadratic(self):
        # minimize |w - 3| via its gradient sign
        net = self.one_param_net()
        state = AdamState.for_network(net)
        for _ in range(400):
            w = net.weights[0][0, 0]
            grad = np.array([[np.sign(w - 3.0)]])
            adam_step(net, state, [grad], [np.zeros(1)], lr=0.05)
        assert net.weights[0][0, 0] == pytest.approx(3.0, abs=0.1)

    def test_timestep_advances(self):
        net = self.one_param_net()
        state = AdamState.for_network(net)
        adam_step(net, state, [np.ones((1, 1))], [np.zeros(1)], lr=0.01)
        adam_step(net, state, [np.ones((1, 1))], [np.zeros(1)], lr=0.01)
        assert state.t == 2

    @pytest.mark.parametrize("arch", [THREE_LAYER, FIVE_LAYER], ids=["three", "five"])
    def test_matches_allocating_oracle(self, arch):
        # the in-place update keeps the operation order, so p, m and v
        # equal the allocating oracle's bit for bit after every step
        nets = [init_network(arch, 26, seed=3) for _ in range(2)]
        states = [AdamState.for_network(net) for net in nets]

        def arrays(net, state):
            return (*net.weights, *net.biases, *state.m_weights, *state.v_weights,
                    *state.m_biases, *state.v_biases)

        rng = np.random.default_rng(11)
        for step in range(6):
            grads_w = [rng.normal(size=w.shape) * 10.0 ** rng.integers(-8, 3)
                       for w in nets[0].weights]
            grads_b = [rng.normal(size=b.shape) for b in nets[0].biases]
            grads_w[0][rng.uniform(size=grads_w[0].shape) < 0.3] = 0.0
            lr = 0.01 * 0.5**step
            adam_step(nets[0], states[0], grads_w, grads_b, lr)
            allocating_adam_step(nets[1], states[1], grads_w, grads_b, lr)
            for got, want in zip(arrays(nets[0], states[0]), arrays(nets[1], states[1])):
                assert same_bits(got, want)
        assert states[0].t == states[1].t == 6


class TestPlateauSchedule:
    def test_empty_history(self):
        cfg = MlpTrainConfig()
        assert reduce_lr_on_plateau([], cfg) == cfg.initial_lr

    def test_improving_history_keeps_lr(self):
        cfg = MlpTrainConfig()
        history = [10.0, 9.0, 8.0, 7.0]
        assert reduce_lr_on_plateau(history, cfg) == cfg.initial_lr

    def test_single_decay_after_patience_stagnation(self):
        cfg = MlpTrainConfig(plateau_patience=3)
        history = [5.0] + [5.0, 5.0, 5.0]  # 3 epochs without improvement
        assert reduce_lr_on_plateau(history, cfg) == pytest.approx(1e-3)

    def test_double_decay(self):
        cfg = MlpTrainConfig(plateau_patience=2)
        history = [5.0, 5.0, 5.0, 5.0, 5.0]
        assert reduce_lr_on_plateau(history, cfg) == pytest.approx(1e-4)

    def test_floor(self):
        cfg = MlpTrainConfig(plateau_patience=1)
        history = [5.0] * 40
        assert reduce_lr_on_plateau(history, cfg) == cfg.min_lr

    def test_improvement_resets_counter(self):
        cfg = MlpTrainConfig(plateau_patience=3)
        history = [5.0, 5.0, 5.0, 4.0, 4.0, 4.0]
        assert reduce_lr_on_plateau(history, cfg) == cfg.initial_lr

    def test_ten_stagnant_epochs_default_patience(self):
        cfg = MlpTrainConfig()
        history = [2.0] + [2.0] * 10
        assert reduce_lr_on_plateau(history, cfg) == pytest.approx(1e-3)


class TestTraining:
    def tiny_arch(self):
        return Architecture(
            (LayerSpec(16, "relu"), LayerSpec(8, "relu"), LayerSpec(1, "linear"))
        )

    def test_max_epochs_zero_returns_init(self):
        train = make_dataset(40, seed=1)
        val = make_dataset(10, seed=2)
        net, history = train_mlp(
            train, val, self.tiny_arch(), MlpTrainConfig(max_epochs=0, seed=3)
        )
        assert history == []
        fresh = init_network(
            self.tiny_arch(), 26, seed=3, stats=fit_feature_stats(train.features)
        )
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, fresh.weights))

    def test_constant_target_convergence(self):
        train = make_dataset(64, seed=5)
        train = type(train)(train.features, np.full(len(train), 7.0))
        net, history = train_mlp(
            train, train, self.tiny_arch(),
            MlpTrainConfig(max_epochs=200, batch_size=16, seed=0,
                           early_stop_patience=200),
        )
        assert history[-1].train_mae < 0.3 or mae_of(net, train) < 0.3

    def test_loss_decreases(self):
        train = make_dataset(120, seed=9)
        val = make_dataset(30, seed=10)
        net, history = train_mlp(
            train, val, self.tiny_arch(),
            MlpTrainConfig(max_epochs=60, batch_size=32, seed=1),
        )
        assert history[-1].train_mae < history[0].train_mae

    def test_determinism(self):
        train = make_dataset(50, seed=13)
        val = make_dataset(15, seed=14)
        cfg = MlpTrainConfig(max_epochs=8, batch_size=16, seed=2)
        net_a, hist_a = train_mlp(train, val, self.tiny_arch(), cfg)
        net_b, hist_b = train_mlp(train, val, self.tiny_arch(), cfg)
        assert hist_a == hist_b
        assert all(np.array_equal(a, b) for a, b in zip(net_a.weights, net_b.weights))

    def test_epoch_records_well_formed(self):
        train = make_dataset(40, seed=17)
        val = make_dataset(12, seed=18)
        _, history = train_mlp(
            train, val, self.tiny_arch(), MlpTrainConfig(max_epochs=5, seed=0)
        )
        assert [r.epoch for r in history] == [1, 2, 3, 4, 5]
        assert all(r.lr > 0 and np.isfinite(r.train_mae) for r in history)

    def test_returned_net_is_best_val_epoch(self):
        train = make_dataset(100, seed=21)
        val = make_dataset(25, seed=22)
        net, history = train_mlp(
            train, val, self.tiny_arch(),
            MlpTrainConfig(max_epochs=40, batch_size=32, seed=4),
        )
        best = min(r.val_mae for r in history)
        assert mae_of(net, val) == pytest.approx(best, abs=1e-9)

    def test_early_stop_halts_patience_after_best(self):
        train = make_dataset(80, seed=25)
        val = make_dataset(20, seed=26)
        cfg = MlpTrainConfig(
            max_epochs=500, early_stop_patience=12, batch_size=32, seed=5
        )
        _, history = train_mlp(train, val, self.tiny_arch(), cfg)
        vals = [r.val_mae for r in history]
        best_epoch = int(np.argmin(vals)) + 1
        if len(history) < cfg.max_epochs:
            assert len(history) == best_epoch + cfg.early_stop_patience

    def test_train_mae_is_measured_before_each_update(self):
        # one batch per epoch: epoch 1 logs the fresh network's training MAE
        train = make_dataset(60, seed=33)
        val = make_dataset(15, seed=34)
        cfg = MlpTrainConfig(max_epochs=3, batch_size=len(train), seed=6)
        _, history = train_mlp(train, val, self.tiny_arch(), cfg)
        fresh = init_network(
            self.tiny_arch(), 26, seed=6, stats=fit_feature_stats(train.features)
        )
        assert history[0].train_mae == pytest.approx(mae_of(fresh, train), rel=1e-9)

    def test_forward_passes_see_only_validation_rows(self, monkeypatch):
        train = make_dataset(48, seed=37)
        val = make_dataset(11, seed=38)
        rows = []
        forward_scaled = optbench.mlp._forward_scaled

        def counted(net, scaled):
            rows.append(len(scaled))
            return forward_scaled(net, scaled)

        monkeypatch.setattr(optbench.mlp, "_forward_scaled", counted)
        _, history = train_mlp(
            train, val, self.tiny_arch(), MlpTrainConfig(max_epochs=4, batch_size=16, seed=0)
        )
        assert rows == [len(val)] * len(history)

    def test_divergence_raises(self):
        train = make_dataset(30, seed=29)
        val = make_dataset(10, seed=30)
        cfg = MlpTrainConfig(initial_lr=1e30, max_epochs=50, seed=0)
        with pytest.raises(DivergenceError):
            train_mlp(train, val, self.tiny_arch(), cfg)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            MlpTrainConfig(initial_lr=0.0)
        with pytest.raises(ValidationError):
            MlpTrainConfig(plateau_factor=1.5)
        with pytest.raises(ValidationError):
            MlpTrainConfig(batch_size=0)
        with pytest.raises(ValidationError):
            MlpTrainConfig(max_epochs=-1)
