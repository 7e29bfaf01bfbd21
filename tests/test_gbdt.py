import gc
import math
import weakref

import numpy as np
import pytest

import optbench.gbdt as gbdt_module

from optbench import (
    Dataset,
    GbdtConfig,
    SimConfig,
    SplitSpec,
    TreeEnsemble,
    ValidationError,
    best_split,
    eta_decay,
    filter_quotes,
    generate_dataset,
    load_model,
    predict_gbdt,
    quantize_features,
    save_model,
    split_dataset,
    train_gbdt,
)
from optbench.gbdt import (
    _SLOT_CHUNK,
    NodeHistogram,
    Tree,
    _accumulate_histograms,
    _grow_tree,
    _root_histograms,
)

from conftest import (
    make_dataset,
    per_node_grow_tree,
    per_row_quantize,
    same_bits,
    traced_peak,
)


def brute_force_best_split(X, grad, hess, edges, reg_lambda, min_child_weight):
    """Reference split finder: try every edge of every feature directly
    on the raw rows, no histograms involved."""
    total_g, total_h = grad.sum(), hess.sum()
    parent = total_g**2 / (total_h + reg_lambda)
    best = None
    for f in range(X.shape[1]):
        for b, threshold in enumerate(edges[f]):
            left = X[:, f] <= threshold
            hl = hess[left].sum()
            hr = total_h - hl
            if hl < min_child_weight or hr < min_child_weight or hl == 0 or hr == 0:
                continue
            gl = grad[left].sum()
            gr = total_g - gl
            gain = 0.5 * (
                gl**2 / (hl + reg_lambda) + gr**2 / (hr + reg_lambda) - parent
            )
            if gain > 0 and (best is None or gain > best[2]):
                best = (f, b, gain)
    return best


def assert_same_growth(binned, grad, cfg, eta=0.3):
    """`_grow_tree` and the per-node oracle give the same tree, bit for bit."""
    tree, leaf_of_row = _grow_tree(binned, grad, cfg, eta)
    want, want_leaf = per_node_grow_tree(binned.codes, binned.edges, grad, cfg, eta)
    for name in ("feature", "threshold", "left", "right", "value"):
        assert same_bits(getattr(tree, name), getattr(want, name)), name
    assert same_bits(leaf_of_row, want_leaf)
    return tree


def level_widths(tree):
    """The node count of each depth of `tree`, the root's first."""
    widths, level = [], np.zeros(1, dtype=np.int64)
    while len(level):
        widths.append(len(level))
        level = level[tree.feature[level] >= 0]
        level = np.concatenate((tree.left[level], tree.right[level]))
    return widths


def bit_rows(max_depth, n_pairs):
    """Features and gradients on which depth max_depth - 2 makes `n_pairs` splits.

    Each row holds a code below 2**max_depth, and two rows share each
    code; the gradient weighs the code's bit j, most significant first,
    by 4**-j. Bits 0 to max_depth - 2 are one feature each, so with
    reg_lambda 0 (a positive lambda can make a split of a near-constant
    node lose) the tree splits on bit d at depth d. Of the
    2**(max_depth - 2) code prefixes that the nodes at depth
    max_depth - 2 hold, `n_pairs` (drawn at random) carry all four codes
    below them and split; the others carry one code and stay leaves.
    The last bit, plus 0 or 1, goes to one of two more features, drawn
    per node at depth max_depth - 1, so those nodes split on different
    features and bins. Under those `n_pairs` prefixes the two rows of
    each code differ in a twin bit, weighed by 4**-max_depth, below every
    bit; it too goes, plus 0 or 1, to one of two last features, drawn per
    code. So a tree grown one level deeper splits each node at depth
    max_depth on its own feature and bin, which only the right
    histograms subtracted from the level above give.
    """
    rng = np.random.default_rng(n_pairs)
    n_prefixes = 2 ** (max_depth - 2)
    full = np.zeros(n_prefixes, dtype=bool)
    full[rng.permutation(n_prefixes)[:n_pairs]] = True
    low = np.where(full[:, None], np.arange(4), 0)
    code = np.repeat((4 * np.arange(n_prefixes)[:, None] + low).ravel(), 2)
    bits = (code[:, None] >> np.arange(max_depth - 1, -1, -1)) & 1
    kind = rng.integers(0, 4, size=2 ** (max_depth - 1))[code >> 1]
    last = np.zeros((len(code), 2))
    last[np.arange(len(code)), kind >> 1] = bits[:, -1] + (kind & 1)
    under_full = full[code >> 2]
    twin = under_full & (np.arange(len(code)) % 2 == 1)
    twin_kind = rng.integers(0, 4, size=2**max_depth)[code]
    twins = np.zeros((len(code), 2))
    twins[np.arange(len(code)), twin_kind >> 1] = under_full * (twin + (twin_kind & 1))
    features = np.column_stack([bits[:, :-1], last, twins])
    return features, bits @ 4.0 ** -np.arange(max_depth) + twin * 4.0**-max_depth


def default_split_first_tree():
    """The binned train part of the default split and its first depth-10
    gradients, as criterion 6's depth-10 fit starts."""
    quotes = generate_dataset(SimConfig(seed=42))
    ds = Dataset.from_quotes(filter_quotes(quotes).kept)
    train, _, _ = split_dataset(ds, SplitSpec(seed=42))
    return quantize_features(train.features, 256), np.mean(train.targets) - train.targets


BINNING_CASES = ["default_split", "integer_ties", "normal", "five_zeros_one_one"]


def binning_case(case):
    """The feature matrix of one `test_matches_per_row_oracle` case."""
    rng = np.random.default_rng(19)
    if case == "default_split":
        quotes = generate_dataset(SimConfig(seed=42))
        return split_dataset(Dataset.from_quotes(quotes), SplitSpec(seed=1301))[0].features
    if case == "integer_ties":
        return rng.integers(0, 7, size=(500, 3)).astype(np.float64)
    if case == "normal":
        return rng.normal(size=(400, 4))
    return np.array([[0.0]] * 5 + [[1.0]])


def exhaustive_partition_best_gain(X, grad, hess, reg_lambda, min_child_weight):
    """Best gain over every axis-aligned partition of the raw rows,
    using midpoints between adjacent distinct values as thresholds."""
    total_g, total_h = grad.sum(), hess.sum()
    parent = total_g**2 / (total_h + reg_lambda)
    best = -math.inf
    for f in range(X.shape[1]):
        distinct = np.unique(X[:, f])
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            left = X[:, f] <= (lo + hi) / 2.0
            hl = hess[left].sum()
            hr = total_h - hl
            if hl < min_child_weight or hr < min_child_weight or hl == 0 or hr == 0:
                continue
            gl = grad[left].sum()
            gr = total_g - gl
            gain = 0.5 * (
                gl**2 / (hl + reg_lambda) + gr**2 / (hr + reg_lambda) - parent
            )
            best = max(best, gain)
    return best


class TestEtaDecay:
    def test_formula_checkpoints(self):
        sched = GbdtConfig()
        for it in (0, 100, 2529, 39999):
            x = (it + 1) / 8.0
            expected = 0.2 + 0.3 * math.exp(-(x * x) / 100_000)
            assert eta_decay(it, sched) == pytest.approx(expected, abs=1e-12)

    def test_documented_values(self):
        assert eta_decay(0) == pytest.approx(0.49999995, abs=1e-8)
        # near iteration 2529 the decay passes 0.2 + 0.3/e
        assert eta_decay(2529) == pytest.approx(0.2 + 0.3 / math.e, abs=2e-5)

    def test_strictly_decreasing_before_saturation(self):
        values = [eta_decay(i) for i in range(0, 10_000, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bounds(self):
        for it in (0, 1, 10, 1000, 50_000, 10**6):
            assert 0.2 <= eta_decay(it) <= 0.5

    def test_saturates_at_eta_min_in_float(self):
        assert eta_decay(39_999) == 0.2
        assert eta_decay(10**7) == 0.2

    def test_custom_schedule(self):
        sched = GbdtConfig(eta_base=1.0, eta_min=1.0, max_iter_decay=10)
        assert eta_decay(0, sched) == 1.0
        assert eta_decay(500, sched) == 1.0

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValidationError):
            eta_decay(-1)

    def test_schedule_validation(self):
        with pytest.raises(ValidationError, match=r"^eta_min: must be <= eta_base"):
            GbdtConfig(eta_base=0.1, eta_min=0.2)
        with pytest.raises(ValidationError, match="^max_iter_decay: "):
            GbdtConfig(max_iter_decay=0)


class TestQuantize:
    def test_four_values_two_bins(self):
        binned = quantize_features(np.array([[1.0], [2.0], [3.0], [4.0]]), 2)
        assert binned.edges[0].tolist() == [2.5]
        assert binned.codes[:, 0].tolist() == [0, 0, 1, 1]

    def test_distinct_values_get_own_bins(self):
        col = np.array([[5.0], [1.0], [3.0], [2.0], [4.0]])
        binned = quantize_features(col, 256)
        codes = binned.codes[:, 0]
        assert len(set(codes.tolist())) == 5
        # code order matches value order
        ordered = codes[np.argsort(col[:, 0])]
        assert all(a < b for a, b in zip(ordered, ordered[1:]))

    def test_constant_column_never_splits(self):
        binned = quantize_features(np.full((10, 1), 7.0), 16)
        assert binned.edges[0].size == 0
        assert np.all(binned.codes == 0)

    def test_bin_edge_routing_identity(self):
        # v <= edges[b] if and only if code(v) <= b
        rng = np.random.default_rng(5)
        col = rng.normal(size=(100, 1))
        binned = quantize_features(col, 16)
        edges = binned.edges[0]
        codes = binned.codes[:, 0]
        for b in range(len(edges)):
            lhs = col[:, 0] <= edges[b]
            rhs = codes <= b
            assert np.array_equal(lhs, rhs)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4))
        a = quantize_features(X, 32)
        b = quantize_features(X, 32)
        assert np.array_equal(a.codes, b.codes)
        for ea, eb in zip(a.edges, b.edges):
            assert np.array_equal(ea, eb)

    def test_matches_quantile_definition(self):
        # edges: deduplicated quantiles of the unsorted column below its
        # maximum; codes: left-sided search of each value among them
        rng = np.random.default_rng(17)
        n = 500
        X = np.column_stack([
            rng.normal(size=n),
            rng.integers(0, 5, size=n).astype(np.float64),
            np.full(n, 3.0),
            rng.exponential(size=n),
        ])
        for n_bins in (2, 16, 256, 1024):
            binned = quantize_features(X, n_bins)
            assert binned.codes.shape == X.shape
            assert binned.codes.flags.f_contiguous
            q = np.arange(1, n_bins) / n_bins
            for f in range(X.shape[1]):
                col = X[:, f]
                e = np.unique(np.quantile(col, q))
                e = e[e < col.max()]
                assert np.array_equal(binned.edges[f], e)
                assert np.array_equal(binned.codes[:, f], np.searchsorted(e, col, side="left"))

    @pytest.mark.parametrize("case", ["default_split", "integer_ties", "normal", "five_zeros_one_one"])
    def test_matches_per_row_oracle(self, case):
        rng = np.random.default_rng(19)
        if case == "default_split":
            quotes = generate_dataset(SimConfig(seed=42))
            X = split_dataset(Dataset.from_quotes(quotes), SplitSpec(seed=1301))[0].features
        elif case == "integer_ties":
            X = rng.integers(0, 7, size=(500, 3)).astype(np.float64)
        elif case == "normal":
            X = rng.normal(size=(400, 4))
        else:
            X = np.array([[0.0]] * 5 + [[1.0]])
        for n_bins in (2, 16, 256, 1024):
            binned = quantize_features(X, n_bins)
            oracle = per_row_quantize(X, n_bins)
            assert binned.codes.dtype == oracle.codes.dtype
            assert binned.codes.flags.f_contiguous
            assert np.array_equal(binned.codes, oracle.codes)
            assert len(binned.edges) == len(oracle.edges)
            for ours, theirs in zip(binned.edges, oracle.edges):
                assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("case", BINNING_CASES)
    def test_counts_and_edge_table(self, case):
        X = binning_case(case)
        for n_bins in (2, 16, 256, 1024):
            binned = quantize_features(X, n_bins)
            assert binned.counts.dtype == np.int32
            assert binned.counts.shape == (X.shape[1], n_bins)
            assert binned.edge_table.shape == (X.shape[1], n_bins - 1)
            for f, edges in enumerate(binned.edges):
                want = np.bincount(binned.codes[:, f], minlength=n_bins)
                assert np.array_equal(binned.counts[f], want)
                assert same_bits(binned.edge_table[f, : len(edges)], edges)
                assert not binned.edge_table[f, len(edges) :].any()

    def test_zero_edges_do_not_depend_on_row_order(self):
        # a sort may put -0.0 before or after 0.0, and reversing the rows
        # changes which; every zero edge, and so every threshold, is +0.0
        rng = np.random.default_rng(29)
        X = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(200, 8))
        grad = rng.integers(-4, 5, size=200).astype(np.float64)  # exact sums in any order
        cfg = GbdtConfig(max_depth=4, n_bins=4)
        q = np.arange(1, 4) / 4
        binned, flipped = quantize_features(X, 4), quantize_features(X[::-1], 4)
        assert same_bits(binned.edge_table, flipped.edge_table)
        for f, edges in enumerate(binned.edges):
            want = np.unique(np.quantile(X[:, f], q))
            assert same_bits(edges, want[want < X[:, f].max()] + 0.0)
        tree, _ = _grow_tree(binned, grad, cfg, 0.3)
        tree_flipped, _ = _grow_tree(flipped, grad[::-1].copy(), cfg, 0.3)
        assert tree.n_nodes > 1
        assert same_bits(tree.feature, tree_flipped.feature)
        assert same_bits(tree.threshold, tree_flipped.threshold)

    def test_validation(self):
        with pytest.raises(ValidationError):
            quantize_features(np.empty((0, 3)), 16)
        with pytest.raises(ValidationError):
            quantize_features(np.ones((3, 2)), 1)
        with pytest.raises(ValidationError):
            quantize_features(np.array([[np.nan]]), 4)


class TestBestSplit:
    def test_hand_example(self):
        # gradients -1,-1 in bin 0 and +1,+1 in bin 1; lambda = 1
        # gain = 0.5 * (4/3 + 4/3 - 0) = 4/3
        hist = NodeHistogram(np.array([[-2.0, 2.0]]), np.array([[2.0, 2.0]]))
        decision = best_split(hist, reg_lambda=1.0, min_child_weight=1.0)
        assert decision.feature == 0
        assert decision.bin_index == 0
        assert decision.gain == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_zero_gradients_no_split(self):
        hist = NodeHistogram(np.zeros((2, 4)), np.ones((2, 4)))
        assert best_split(hist) is None

    def test_min_child_weight_blocks(self):
        hist = NodeHistogram(np.array([[-2.0, 2.0]]), np.array([[2.0, 2.0]]))
        assert best_split(hist, min_child_weight=3.0) is None

    def test_tie_breaks_to_lowest_feature_and_bin(self):
        # identical histograms on both features: must pick feature 0
        g = np.array([[-2.0, 2.0, 0.0], [-2.0, 2.0, 0.0]])
        h = np.array([[2.0, 2.0, 0.0], [2.0, 2.0, 0.0]])
        decision = best_split(NodeHistogram(g, h), min_child_weight=0.0)
        assert decision.feature == 0
        assert decision.bin_index == 0

    def test_mask_of_wrong_shape_is_refused(self):
        hist = NodeHistogram(np.zeros((3, 16)), np.ones((3, 16)))
        with pytest.raises(ValidationError, match=r"^candidate_mask: .*\(3, 15\).*\(2, 2\)"):
            best_split(hist, 1.0, 1.0, np.ones((2, 2), dtype=bool))

    def test_mask_that_is_not_bool_is_refused(self):
        hist = NodeHistogram(np.zeros((3, 16)), np.ones((3, 16)))
        with pytest.raises(ValidationError, match=r"^candidate_mask: .*float64"):
            best_split(hist, 1.0, 1.0, np.ones((3, 15)))

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            n = int(rng.integers(5, 64))
            X = rng.normal(size=(n, 4))
            grad = rng.normal(size=n)
            hess = np.ones(n)
            binned = quantize_features(X, 256)
            hist_g = np.zeros((4, 256))
            hist_h = np.zeros((4, 256))
            for f in range(4):
                np.add.at(hist_g[f], binned.codes[:, f], grad)
                np.add.at(hist_h[f], binned.codes[:, f], hess)
            mask = np.zeros((4, 255), dtype=bool)
            for f in range(4):
                mask[f, : len(binned.edges[f])] = True
            decision = best_split(NodeHistogram(hist_g, hist_h), 1.0, 1.0, mask)
            expected = brute_force_best_split(X, grad, hess, binned.edges, 1.0, 1.0)
            assert (decision is None) == (expected is None)
            if decision is not None:
                assert decision.feature == expected[0]
                assert decision.bin_index == expected[1]
                assert decision.gain == pytest.approx(expected[2], abs=1e-10)


class TestTraining:
    def test_constant_targets_one_round(self):
        n = 16
        rng = np.random.default_rng(2)
        feats = np.abs(rng.normal(100, 20, size=(n, 26))) + 1
        ds = Dataset(feats, np.full(n, 5.0))
        model = train_gbdt(ds, ds, GbdtConfig(max_depth=3, num_rounds=1))
        assert model.base_score == 5.0
        assert model.history[0].train_mae == pytest.approx(0.0, abs=1e-12)
        assert predict_gbdt(model, feats) == pytest.approx(np.full(n, 5.0), abs=1e-12)

    def test_two_cluster_hand_example(self):
        # targets {2,2,4,4} split on feature 0, depth 1, eta 1:
        # base 3, leaves -/+ 2/3, train MAE 1/3
        feats = np.zeros((4, 26))
        feats[:, 0] = [1.0, 2.0, 3.0, 4.0]
        feats[:, 1] = 1.0
        feats[:, 4] = 1.0
        feats[:, 6:] = 1.0
        y = np.array([2.0, 2.0, 4.0, 4.0])
        ds = Dataset(feats, y)
        cfg = GbdtConfig(max_depth=1, num_rounds=1, eta_base=1.0, eta_min=1.0)
        model = train_gbdt(ds, ds, cfg)
        assert model.base_score == 3.0
        preds = predict_gbdt(model, feats)
        assert preds == pytest.approx([2 + 1 / 3] * 2 + [4 - 1 / 3] * 2, abs=1e-12)
        assert model.history[0].train_mae == pytest.approx(1 / 3, abs=1e-12)

    def test_train_mae_nonincreasing_on_separable_data(self):
        train = make_dataset(300, seed=11)
        val = make_dataset(60, seed=12)
        model = train_gbdt(train, val, GbdtConfig(max_depth=4, num_rounds=40))
        maes = [r.train_mae for r in model.history]
        for a, b in zip(maes, maes[1:]):
            assert b <= a + 1e-9

    def test_deeper_trees_fit_train_at_least_as_well(self):
        train = make_dataset(400, seed=21)
        val = make_dataset(80, seed=22)
        shallow = train_gbdt(train, val, GbdtConfig(max_depth=5, num_rounds=30))
        deep = train_gbdt(train, val, GbdtConfig(max_depth=10, num_rounds=30))
        assert deep.history[-1].train_mae <= shallow.history[-1].train_mae + 1e-9

    def test_depth_bound_respected(self):
        train = make_dataset(500, seed=31)
        model = train_gbdt(train, train, GbdtConfig(max_depth=3, num_rounds=5))
        for tree in model.trees:
            assert tree.depth() <= 3

    def test_early_stopping_truncates_at_best_round(self):
        train = make_dataset(200, seed=41)
        val = make_dataset(50, seed=42)
        cfg = GbdtConfig(max_depth=3, num_rounds=200, early_stopping_rounds=10)
        model = train_gbdt(train, val, cfg)
        vals = [r.val_mae for r in model.history]
        best = int(np.argmin(vals))
        assert model.best_round == best
        assert len(model.trees) == best + 1
        if len(model.history) < 200:  # stopped early
            assert len(model.history) == best + 1 + 10

    def test_disabled_early_stopping_runs_all_rounds(self):
        train = make_dataset(100, seed=51)
        val = make_dataset(30, seed=52)
        model = train_gbdt(train, val, GbdtConfig(max_depth=2, num_rounds=25))
        assert len(model.history) == 25

    def test_training_prediction_paths_agree(self):
        # routing by bin during growth must equal routing by raw threshold
        train = make_dataset(250, seed=61)
        binned = quantize_features(train.features, 64)
        grad = train.targets - train.targets.mean()
        cfg = GbdtConfig(max_depth=6, num_rounds=1, n_bins=64)
        tree, leaf_of_row = _grow_tree(binned, grad, cfg, 0.3)
        assert np.array_equal(tree.value[leaf_of_row], tree.predict(train.features))

    def test_subtraction_matches_direct_histograms(self):
        # every node's split and value against its own rows: the tree's
        # split has the best gain of a histogram rebuilt from the node's
        # rows, and each leaf predicts -G/(H+lambda)*eta of its rows
        rng = np.random.default_rng(1717)
        for trial in range(24):
            n = int(rng.integers(50, 2001))
            d = int(rng.integers(2, 7))
            X = rng.normal(size=(n, d))
            n_int = int(rng.integers(0, d + 1))  # integer-valued columns repeat values
            X[:, :n_int] = rng.integers(0, 9, size=(n, n_int))
            grad = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
            n_bins = int(rng.choice([16, 64, 256]))
            lam = float(rng.choice([0.0, 1.0, 3.0]))
            mcw = float(rng.choice([1.0, 5.0]))
            eta = 0.3
            cfg = GbdtConfig(
                max_depth=int(rng.integers(1, 9)), num_rounds=1, n_bins=n_bins,
                reg_lambda=lam, min_child_weight=mcw,
            )
            binned = quantize_features(X, n_bins)
            tree, leaf_of_row = _grow_tree(binned, grad, cfg, eta)
            mask = np.zeros((d, n_bins - 1), dtype=bool)
            for f in range(d):
                mask[f, : len(binned.edges[f])] = True

            rows_of = {0: np.arange(n)}
            for node in range(tree.n_nodes):  # children come after their parent
                rows = rows_of.pop(node)
                f = int(tree.feature[node])
                if f < 0:
                    assert np.array_equal(np.nonzero(leaf_of_row == node)[0], rows)
                    expected = -math.fsum(grad[rows]) / (len(rows) + lam) * eta
                    noise = 1e-12 * np.abs(grad[rows]).sum() / (len(rows) + lam) * eta
                    assert tree.value[node] == pytest.approx(expected, rel=1e-9, abs=noise)
                    continue
                hist_g = np.zeros((d, n_bins))
                hist_h = np.zeros((d, n_bins))
                for g in range(d):
                    codes = binned.codes[rows, g]
                    hist_g[g] = np.bincount(codes, weights=grad[rows], minlength=n_bins)
                    hist_h[g] = np.bincount(codes, minlength=n_bins)
                hist = NodeHistogram(hist_g, hist_h)
                b = int(np.searchsorted(binned.edges[f], tree.threshold[node]))
                assert binned.edges[f][b] == tree.threshold[node]
                only = np.zeros_like(mask)
                only[f, b] = True
                chosen = best_split(hist, lam, mcw, only)
                direct = best_split(hist, lam, mcw, mask)
                assert chosen is not None and direct is not None
                assert chosen.gain == pytest.approx(direct.gain, rel=1e-9)
                go_left = binned.codes[rows, f] <= b
                rows_of[int(tree.left[node])] = rows[go_left]
                rows_of[int(tree.right[node])] = rows[~go_left]
            assert not rows_of

    @pytest.mark.parametrize("case", BINNING_CASES)
    def test_root_histograms_match_accumulation(self, case):
        # the root histograms are those of all rows in one slot, bit for bit
        X = binning_case(case)
        n_rows, n_features = X.shape
        grad = np.random.default_rng(23).normal(size=n_rows) * 10.0
        for n_bins in (2, 16, 256, 1024):
            binned = quantize_features(X, n_bins)
            grad_hist, hess_hist = _root_histograms(binned, grad)
            want_grad = np.empty((1, n_features, n_bins))
            want_hess = np.empty((1, n_features, n_bins), dtype=np.int32)
            _accumulate_histograms(
                binned.codes, np.arange(n_rows), np.zeros(n_rows, dtype=np.int64), grad,
                want_grad, want_hess,
            )
            assert same_bits(grad_hist, want_grad)
            assert same_bits(hess_hist, want_hess)

    @pytest.mark.parametrize("case", range(20))
    def test_matches_per_node_growth(self, case):
        # every (n_bins, min_child_weight) pair once, each lambda and each
        # depth 1-10; integer columns tie rows within a feature, and a
        # duplicated column ties whole splits across features exactly
        n_bins = (2, 16, 256, 1024)[case % 4]
        lam = (0.0, 1.0, 3.0)[case % 3]
        mcw = (0.0, 0.5, 1.0, 1.5, 5.0)[case % 5]
        depth = case % 10 + 1
        rng = np.random.default_rng(4000 + case)
        n = int(rng.integers(50, 3001))
        d = int(rng.integers(3, 8))
        X = rng.normal(size=(n, d))
        n_int = int(rng.integers(1, d))
        X[:, :n_int] = rng.integers(0, 9, size=(n, n_int))
        X[:, d - 1] = X[:, int(rng.integers(0, d - 1))]
        grad = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
        cfg = GbdtConfig(max_depth=depth, n_bins=n_bins, reg_lambda=lam, min_child_weight=mcw)
        binned = quantize_features(X, n_bins)
        assert binned.codes.dtype == (np.uint16 if n_bins > 256 else np.uint8)
        assert_same_growth(binned, grad, cfg)

    def test_default_split_tree_matches_per_node_growth(self):
        # the first tree of criterion 6's depth-10 fit, about 1,400 nodes
        quotes = generate_dataset(SimConfig(seed=42))
        ds = Dataset.from_quotes(filter_quotes(quotes).kept)
        train, _, _ = split_dataset(ds, SplitSpec(seed=42))
        binned = quantize_features(train.features, 256)
        grad = np.mean(train.targets) - train.targets
        tree = assert_same_growth(binned, grad, GbdtConfig(max_depth=10), eta=eta_decay(0))
        assert tree.n_nodes > 1000

    # every level below the root is built _SLOT_CHUNK // 2 pairs at a time:
    # pair counts around and across those chunks at depth max_depth - 1,
    # grown to max_depth, where that level is the last searched one and is
    # dropped chunk by chunk, and to max_depth + 1, where it is kept whole
    # and the next level subtracts from it
    @pytest.mark.parametrize("extra_depth", [0, 1], ids=["dropped", "kept"])
    @pytest.mark.parametrize(
        "n_pairs",
        [1, _SLOT_CHUNK // 2, _SLOT_CHUNK // 2 + 1, 3 * (_SLOT_CHUNK // 2) + 5, 0],
        ids=["one_pair", "one_chunk", "one_chunk_and_a_pair", "chunks_and_a_remainder",
             "no_pairs"],
    )
    def test_level_chunks_match_per_node_growth(self, n_pairs, extra_depth):
        max_depth = max(2, (n_pairs - 1).bit_length() + 2) if n_pairs else 4
        X, grad = bit_rows(max_depth, n_pairs)
        cfg = GbdtConfig(max_depth=max_depth + extra_depth, reg_lambda=0.0)
        tree = assert_same_growth(quantize_features(X, 256), grad, cfg)
        widths = level_widths(tree)
        last = widths[max_depth - 1] if len(widths) >= max_depth else 0
        assert last == 2 * n_pairs
        assert widths[: max_depth - 2] == [2**d for d in range(max_depth - 2)]

    def test_last_searched_level_is_never_stored_whole(self):
        # full histograms cost a float64 sum and an int32 count per
        # (feature, bin) slot; the growth must peak below the cost of the
        # last searched level and its parents stored whole
        binned, grad = default_split_first_tree()
        cfg = GbdtConfig(max_depth=10)
        (tree, _), peak = traced_peak(_grow_tree, binned, grad, cfg, eta_decay(0))
        widths = level_widths(tree)
        slot_bytes = binned.counts.size * (8 + 4)
        both_levels = (widths[cfg.max_depth - 1] + widths[cfg.max_depth - 2]) * slot_bytes
        assert peak < both_levels, (peak, both_levels)

    def test_split_bin_is_never_empty(self):
        # an empty bin ties its predecessor exactly and loses the tie, so
        # a split's own bin holds rows of its node; subtraction residue
        # left in empty bins of a larger sibling would break the tie
        for seed in range(16):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(200, 2001))
            X = rng.normal(size=(n, 4))
            X[:, :2] = rng.integers(0, 9, size=(n, 2))
            grad = rng.normal(size=n)
            n_bins = int(rng.choice([16, 64, 256]))
            binned = quantize_features(X, n_bins)
            cfg = GbdtConfig(max_depth=8, num_rounds=1, n_bins=n_bins)
            tree, _ = _grow_tree(binned, grad, cfg, 0.3)
            rows_of = {0: np.arange(n)}
            for node in range(tree.n_nodes):
                rows = rows_of.pop(node)
                f = int(tree.feature[node])
                if f < 0:
                    continue
                b = int(np.searchsorted(binned.edges[f], tree.threshold[node]))
                codes = binned.codes[rows, f]
                assert np.any(codes == b)
                rows_of[int(tree.left[node])] = rows[codes <= b]
                rows_of[int(tree.right[node])] = rows[codes > b]

    def test_determinism(self):
        train = make_dataset(150, seed=71)
        val = make_dataset(40, seed=72)
        cfg = GbdtConfig(max_depth=4, num_rounds=10)
        a = train_gbdt(train, val, cfg)
        b = train_gbdt(train, val, cfg)
        assert a.base_score == b.base_score
        assert len(a.trees) == len(b.trees)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)
            assert np.array_equal(ta.value, tb.value)
        assert a.history == b.history

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.empty((0, 26)), np.empty(0))
        good = make_dataset(10)
        with pytest.raises(ValidationError, match="train"):
            train_gbdt(ds, good, GbdtConfig())
        with pytest.raises(ValidationError, match="val"):
            train_gbdt(good, ds, GbdtConfig())

    def test_predict_arity_checked(self):
        train = make_dataset(50, seed=81)
        model = train_gbdt(train, train, GbdtConfig(max_depth=2, num_rounds=2))
        with pytest.raises(ValidationError, match="features"):
            predict_gbdt(model, np.ones(7))

    def test_predict_single_row_returns_float(self):
        train = make_dataset(50, seed=91)
        model = train_gbdt(train, train, GbdtConfig(max_depth=2, num_rounds=2))
        single = predict_gbdt(model, train.features[0])
        batch = predict_gbdt(model, train.features[:1])
        assert isinstance(single, float)
        assert single == batch[0]

    def test_eta_folded_into_leaves(self):
        # one round at eta=1 vs eta=0.5: leaf contributions halve exactly
        train = make_dataset(80, seed=101)
        cfg_full = GbdtConfig(max_depth=2, num_rounds=1, eta_base=1.0, eta_min=1.0)
        cfg_half = GbdtConfig(max_depth=2, num_rounds=1, eta_base=0.5, eta_min=0.5)
        full = train_gbdt(train, train, cfg_full)
        half = train_gbdt(train, train, cfg_half)
        leaves_full = full.trees[0].value[full.trees[0].feature < 0]
        leaves_half = half.trees[0].value[half.trees[0].feature < 0]
        assert leaves_half == pytest.approx(leaves_full * 0.5, rel=1e-12)

    def test_predict_stops_on_a_cycle(self):
        # in memory only: load_model refuses such a tree before it gets here
        tree = Tree(
            feature=np.array([0, 0], dtype=np.int32),
            threshold=np.zeros(2),
            left=np.array([1, 0], dtype=np.int32),
            right=np.array([1, 0], dtype=np.int32),
            value=np.zeros(2),
        )
        with pytest.raises(ValueError, match="cycle"):
            tree.predict(np.zeros((3, 1)))

    def test_depth_stops_on_a_cycle(self):
        # node 1 is its own child
        tree = Tree(
            feature=np.array([0, 0], dtype=np.int32),
            threshold=np.zeros(2),
            left=np.array([1, 1], dtype=np.int32),
            right=np.array([1, 1], dtype=np.int32),
            value=np.zeros(2),
        )
        with pytest.raises(ValueError, match="cycle"):
            tree.depth()

    def test_depth_of_a_saved_chain_tree(self, tmp_path):
        # each internal node has a leaf on the left and the next internal
        # node on the right: 1,200 levels, deeper than the recursion limit
        n_internal = 1200
        n = 2 * n_internal + 1
        internal = np.arange(0, n - 1, 2)
        feature = np.full(n, -1, dtype=np.int32)
        left = np.full(n, -1, dtype=np.int32)
        right = np.full(n, -1, dtype=np.int32)
        feature[internal] = 0
        left[internal] = internal + 1
        right[internal] = internal + 2
        value = np.where(feature < 0, np.arange(n, dtype=np.float64), 0.0)
        chain = Tree(feature, np.zeros(n), left, right, value)
        model = TreeEnsemble(base_score=0.0, trees=[chain], n_features=26, best_round=0)
        back = load_model(save_model(model, tmp_path / "chain.model")).trees[0]
        assert back.depth() == n_internal
        X = np.zeros((2, 26))
        X[:, 0] = [-1.0, 1.0]
        assert back.predict(X).tolist() == [1.0, n - 1.0]

    def test_depth_is_the_longest_path(self):
        # root -> (leaf 1, node 2); node 2 -> (node 3, leaf 4); node 3 -> leaves 5, 6
        tree = Tree(
            feature=np.array([0, -1, 0, 0, -1, -1, -1], dtype=np.int32),
            threshold=np.zeros(7),
            left=np.array([1, -1, 3, 5, -1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, 4, 6, -1, -1, -1], dtype=np.int32),
            value=np.zeros(7),
        )
        assert tree.depth() == 3
        none = np.array([-1], dtype=np.int32)
        assert Tree(none, np.zeros(1), none, none, np.zeros(1)).depth() == 0


def counting_quantize(monkeypatch):
    """Count `train_gbdt`'s calls of `quantize_features`; returns the list of their n_bins."""
    calls = []
    real = gbdt_module.quantize_features

    def counted(features, n_bins):
        calls.append(n_bins)
        return real(features, n_bins)

    monkeypatch.setattr(gbdt_module, "quantize_features", counted)
    return calls


def same_trees(a: TreeEnsemble, b: TreeEnsemble) -> bool:
    return len(a.trees) == len(b.trees) and a.base_score == b.base_score and all(
        same_bits(getattr(ta, name), getattr(tb, name))
        for ta, tb in zip(a.trees, b.trees)
        for name in ("feature", "threshold", "left", "right", "value")
    )


class TestBinningCache:
    """A training Dataset is binned once per n_bins; later fits reuse the binning."""

    def test_fits_on_one_dataset_bin_once(self, monkeypatch):
        train, val = make_dataset(300, seed=81), make_dataset(50, seed=82)
        configs = [GbdtConfig(max_depth=d, num_rounds=4, n_bins=64) for d in (6, 2)]
        calls = counting_quantize(monkeypatch)
        models = [train_gbdt(train, val, cfg) for cfg in configs]
        assert calls == [64]
        fresh = Dataset(train.features.copy(), train.targets.copy())
        for model, cfg in zip(models, configs):
            assert same_trees(model, train_gbdt(fresh, val, cfg))
        assert calls == [64, 64]  # the equal copy is another Dataset, binned once

    def test_other_bins_and_subsets_bin_anew(self, monkeypatch):
        train, val = make_dataset(200, seed=83), make_dataset(40, seed=84)
        part = train.subset(range(150))
        calls = counting_quantize(monkeypatch)
        for ds, n_bins in ((train, 32), (train, 16), (train, 32), (part, 32), (part, 16)):
            train_gbdt(ds, val, GbdtConfig(max_depth=3, num_rounds=2, n_bins=n_bins))
        assert calls == [32, 16, 32, 16]

    def test_writeable_features_are_binned_every_fit(self, monkeypatch):
        train, val = make_dataset(120, seed=85), make_dataset(30, seed=86)
        train.features.setflags(write=True)
        calls = counting_quantize(monkeypatch)
        cfg = GbdtConfig(max_depth=3, num_rounds=2, n_bins=32)
        train_gbdt(train, val, cfg)
        train_gbdt(train, val, cfg)
        assert calls == [32, 32]
        assert not train._binnings

    def test_dataset_on_a_view_keeps_its_values_and_bins(self):
        # writing the view's base after a fit changes neither the
        # Dataset's features nor the trees a later fit grows
        rng = np.random.default_rng(88)
        X = rng.uniform(1.0, 2.0, (150, 30))
        ds, val = Dataset(X[:, :26], rng.uniform(1.0, 5.0, 150)), make_dataset(30, seed=89)
        before = ds.features.copy()
        cfg = GbdtConfig(max_depth=3, num_rounds=3, n_bins=16)
        first = train_gbdt(ds, val, cfg)
        X[:, :26] = X[:, :26] ** 3
        assert same_bits(ds.features, before)
        assert same_trees(train_gbdt(ds, val, cfg), first)
        edited = Dataset(X[:, :26], ds.targets.copy())
        assert same_bits(edited.features, X[:, :26])
        assert same_trees(train_gbdt(edited, val, cfg), train_gbdt(
            Dataset(X[:, :26].copy(), ds.targets.copy()), val, cfg))

    def test_binning_is_frozen_and_dies_with_its_dataset(self):
        ds = make_dataset(100, seed=87)
        binned = gbdt_module._binning(ds, 16)
        assert gbdt_module._binning(ds, 16) is binned
        assert same_bits(binned.codes, quantize_features(ds.features, 16).codes)
        for arr in (binned.codes, binned.counts, binned.edge_table, *binned.edges):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1
        codes = weakref.ref(binned.codes)
        del ds, binned
        gc.collect()
        assert codes() is None
