import numpy as np
import pytest

from optbench import Dataset
from optbench.core import LAG_COLUMNS, QUOTE_COLUMNS, QUOTE_WIDTH
from optbench.gbdt import (
    BinnedMatrix,
    GbdtConfig,
    NodeHistogram,
    Tree,
    _accumulate_histograms,
    best_split,
)
from optbench.mlp import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON

# one line per acceptance criterion, echoed after the run
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)


def make_quote(**overrides) -> np.ndarray:
    """A one-row quote table: a valid call with 20 mildly varying lags.

    Overrides name table columns (option_type takes the 1.0/0.0 flag);
    `lags` sets all 20 lag columns.
    """
    values = dict(
        option_type=1.0,
        strike=90.0,
        underlying_price=100.0,
        rate=0.02,
        dividend_yield=0.01,
        maturity_years=0.5,
        implied_vol=0.25,
        midpoint=12.5,
    )
    lags = overrides.pop("lags", tuple(100.0 + 0.5 * ((-1) ** i) + 0.01 * i for i in range(20)))
    values.update(overrides)
    row = np.empty((1, QUOTE_WIDTH))
    for name, value in values.items():
        row[0, QUOTE_COLUMNS.index(name)] = value
    row[0, LAG_COLUMNS] = lags
    return row


def make_quotes(*rows: np.ndarray) -> np.ndarray:
    """Stack one-row tables into one table."""
    return np.concatenate([np.empty((0, QUOTE_WIDTH)), *rows])


def per_cell_csv(table: np.ndarray) -> bytes:
    """The quote CSV bytes of `table`, formatted one cell at a time.

    The oracle of `write_csv`: a header, then per row the C/P code, repr
    of every other cell, and an empty cell for a NaN implied_vol.
    """
    vol = QUOTE_COLUMNS.index("implied_vol")
    lines = [",".join(QUOTE_COLUMNS)]
    for row in table.tolist():
        cells = [repr(value) for value in row]
        cells[0] = "C" if row[0] == 1.0 else "P"
        if cells[vol] == "nan":
            cells[vol] = ""
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def per_row_quantize(features: np.ndarray, n_bins: int) -> BinnedMatrix:
    """Quantile bins with one edge search per row.

    The oracle of `quantize_features`: per column, the deduplicated
    quantiles below the column maximum, and each row's code the number
    of edges below its value; counts by bincount of each code column.
    """
    X = np.asarray(features, dtype=np.float64)
    quantile_points = np.arange(1, n_bins) / n_bins
    dtype = np.uint8 if n_bins <= 256 else np.uint16
    codes = np.empty(X.shape, dtype=dtype, order="F")
    counts = np.empty((X.shape[1], n_bins), dtype=np.int32)
    edge_table = np.zeros((X.shape[1], n_bins - 1))
    edges = []
    for f in range(X.shape[1]):
        col = X[:, f]
        order = np.argsort(col)
        ordered = col[order]
        e = np.unique(np.quantile(ordered, quantile_points))
        e = e[e < ordered[-1]]
        codes[order, f] = np.searchsorted(e, ordered, side="left")
        counts[f] = np.bincount(codes[:, f], minlength=n_bins)
        edge_table[f, : len(e)] = e
        edges.append(e)
    return BinnedMatrix(edges, codes, counts, edge_table)


def per_node_grow_tree(
    codes: np.ndarray,
    edges: list[np.ndarray],
    grad: np.ndarray,
    config: GbdtConfig,
    eta: float,
) -> tuple[Tree, np.ndarray]:
    """The oracle of `gbdt._grow_tree`: one `best_split` call per open node.

    Grows the same level-order tree from the same histograms, but scores
    each open node's dense histogram on its own, and sets every
    zero-count gradient bin of a subtracted sibling to exactly zero (the
    residue mask) so that `best_split` never reads subtraction residue.
    """
    n_rows, n_features = codes.shape
    n_bins = config.n_bins
    lam = config.reg_lambda

    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]

    node_of_row = np.zeros(n_rows, dtype=np.int64)
    open_nodes = [0]
    slot = np.zeros(1, dtype=np.int64)
    k_of_row = np.zeros(n_rows, dtype=np.int64)  # slot of the row's node, -1 once closed
    grad_hist = np.empty((1, n_features, n_bins), dtype=np.float64)
    hess_hist = np.empty((1, n_features, n_bins), dtype=np.int32)
    _accumulate_histograms(codes, np.arange(n_rows), k_of_row, grad, grad_hist, hess_hist)
    for depth in range(config.max_depth):
        # indexed by slot; the extra last entry serves closed rows (slot -1)
        split_feature = np.full(len(open_nodes) + 1, -1, dtype=np.int64)
        split_bin = np.zeros(len(open_nodes), dtype=np.int64)
        left_child = np.zeros(len(open_nodes), dtype=np.int64)
        next_open: list[int] = []
        for node_id in open_nodes:
            k = slot[node_id]
            decision = best_split(
                NodeHistogram(grad_hist[k], hess_hist[k]), lam, config.min_child_weight
            )
            if decision is None:
                continue  # stays a leaf
            f, b, _ = decision
            lid, rid = len(feature), len(feature) + 1
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [-1, -1]
            right += [-1, -1]
            feature[node_id] = f
            threshold[node_id] = float(edges[f][b])
            left[node_id] = lid
            right[node_id] = rid
            split_feature[k] = f
            split_bin[k] = b
            left_child[k] = lid
            next_open.extend((lid, rid))

        feature_of_row = split_feature[k_of_row]
        moving = np.nonzero(feature_of_row >= 0)[0]
        k_moving = k_of_row[moving]
        go_right = codes[moving, feature_of_row[moving]] > split_bin[k_moving]
        node_of_row[moving] = left_child[k_moving] + go_right  # right child = left + 1
        open_nodes = next_open
        if not open_nodes or depth + 1 == config.max_depth:
            break

        # smaller children take slots [0, n_pairs), their siblings the
        # slots n_pairs onward in the same pair order
        parents = np.nonzero(split_feature[:-1] >= 0)[0]
        n_pairs = len(parents)
        lc = left_child[parents]
        rc = lc + 1
        counts = np.bincount(node_of_row[moving], minlength=len(feature))
        left_smaller = counts[lc] <= counts[rc]
        slot = np.full(len(feature), -1, dtype=np.int64)
        slot[np.where(left_smaller, lc, rc)] = np.arange(n_pairs)
        slot[np.where(left_smaller, rc, lc)] = np.arange(n_pairs, 2 * n_pairs)
        k_of_row = slot[node_of_row]
        small_rows = np.nonzero((k_of_row >= 0) & (k_of_row < n_pairs))[0]
        next_grad = np.empty((2 * n_pairs, n_features, n_bins), dtype=np.float64)
        next_hess = np.empty((2 * n_pairs, n_features, n_bins), dtype=np.int32)
        _accumulate_histograms(
            codes,
            small_rows,
            k_of_row[small_rows],
            grad,
            next_grad[:n_pairs],
            next_hess[:n_pairs],
        )
        for hist, nxt in ((grad_hist, next_grad), (hess_hist, next_hess)):
            large = nxt[n_pairs:]
            np.take(hist, parents, axis=0, out=large, mode="clip")
            np.subtract(large, nxt[:n_pairs], out=large)
        next_grad[n_pairs:][next_hess[n_pairs:] == 0] = 0.0
        grad_hist, hess_hist = next_grad, next_hess

    feature_arr = np.asarray(feature, dtype=np.int32)
    leaves = feature_arr < 0
    n_nodes = len(feature)
    grad_sum = np.bincount(node_of_row, weights=grad, minlength=n_nodes)[leaves]
    count = np.bincount(node_of_row, minlength=n_nodes)[leaves]
    value = np.zeros(n_nodes, dtype=np.float64)
    value[leaves] = -grad_sum / (count + lam) * eta
    tree = Tree(
        feature=feature_arr,
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=value,
    )
    return tree, node_of_row


def full_matrix_forward(net, scaled: np.ndarray) -> np.ndarray:
    """The oracle of `mlp._forward_scaled`: every row through each layer
    in one product, a fresh array per operation.

    A matrix of at most `mlp._SCORE_BLOCK` rows gives the same bits as
    the blocked pass; a longer one may differ in the last bits, since
    BLAS rounds a row by where it sits in the product.
    """
    a = scaled
    for spec, w, b in zip(net.architecture.layers, net.weights, net.biases):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return a[:, 0]


def allocating_backward_scaled(net, scaled: np.ndarray, targets: np.ndarray):
    """The oracle of `mlp._backward_scaled`: a fresh array per operation.

    Returns (weight gradients, bias gradients, residuals).
    """
    layers = net.architecture.layers
    acts = [scaled]
    for spec, w, b in zip(layers, net.weights, net.biases):
        z = acts[-1] @ w.T + b
        acts.append(np.maximum(z, 0.0) if spec.activation == "relu" else z)
    residual = acts[-1][:, 0] - targets
    delta = (np.sign(residual) / len(targets))[:, None]
    grads_w = [np.empty(0)] * len(layers)
    grads_b = [np.empty(0)] * len(layers)
    for l in range(len(layers) - 1, -1, -1):
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ net.weights[l]
            if layers[l - 1].activation == "relu":
                delta = delta * (acts[l] > 0.0)
    return grads_w, grads_b, residual


def allocating_adam_step(net, state, grads_w, grads_b, lr):
    """The oracle of `mlp.adam_step`: a fresh array per operation."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for params, moments1, moments2, grads in (
        (net.weights, state.m_weights, state.v_weights, grads_w),
        (net.biases, state.m_biases, state.v_biases, grads_b),
    ):
        for p, m, v, g in zip(params, moments1, moments2, grads):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ, NaNs compare."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def make_dataset(n: int, seed: int = 0) -> Dataset:
    """Random but plausible feature rows for model-level tests."""
    rng = np.random.default_rng(seed)
    spot = rng.uniform(50.0, 500.0, size=n)
    feats = np.empty((n, 26))
    feats[:, 0] = spot * rng.uniform(0.8, 1.2, size=n)  # strike
    feats[:, 1] = spot
    feats[:, 2] = rng.uniform(0.0, 0.06, size=n)  # rate
    feats[:, 3] = rng.uniform(0.0, 0.03, size=n)  # dividend yield
    feats[:, 4] = rng.uniform(0.05, 1.5, size=n)  # maturity
    feats[:, 5] = (rng.uniform(size=n) < 0.5).astype(float)  # is_call
    feats[:, 6:] = spot[:, None] * np.exp(rng.normal(0, 0.01, size=(n, 20)))
    targets = rng.uniform(0.5, 80.0, size=n)
    return Dataset(feats, targets)


@pytest.fixture
def quote() -> np.ndarray:
    return make_quote()
