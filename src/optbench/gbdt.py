"""Histogram-based gradient-boosted regression trees.

Squared-error boosting: after each round the per-row gradient is
(prediction - target) and the hessian is identically 1, so hessian sums
are row counts. Trees grow depth-wise (level order). Split finding is
done on quantized features: each feature is bucketed once into at most
`n_bins` quantile bins, stored column-major so each feature's bin codes
are contiguous. Per-node gradient/hessian histograms are accumulated
with bincount for the root and for the smaller child of every split;
the larger sibling's histogram is its parent's minus the smaller
child's (sibling subtraction, as in LightGBM). Candidate splits are
scored by

    gain = 1/2 [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ]

taking the first (lowest feature, then lowest bin) maximizer with both
children at or above `min_child_weight` hessian mass. That rule breaks
exact ties of the computed gains only: two splits that partition a
node's rows identically (say `rate` and `dividend_yield`, both constant
per underlying) can differ in the last bits of their computed gains,
and then the larger one wins whatever its feature. Leaves predict
-G/(H+lambda) scaled by the round's shrinkage, which decays from
`eta_base` toward `eta_min` on a slow Gaussian-in-iteration schedule.

Thresholds stored in the tree are the raw bin edges, so prediction on
unbinned values routes rows exactly as binned training did: value <=
edges[b] if and only if bin(value) <= b.

Validation MAE is monitored every round; training stops once it has
failed to improve for `early_stopping_rounds` rounds, and the returned
ensemble is truncated at the best round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import Dataset, check_features, check_fit_pair, predict_rows
from .errors import ValidationError


@dataclass(frozen=True)
class EtaSchedule:
    """Shrinkage decay knobs; defaults decay 0.5 -> 0.2 over ~10^5 rounds."""

    eta_base: float = 0.5
    eta_min: float = 0.2
    max_iter_decay: int = 100_000

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.eta_base)
            and math.isfinite(self.eta_min)
            and 0.0 < self.eta_min <= self.eta_base <= 1.0
        ):
            raise ValidationError(
                f"eta: need 0 < eta_min <= eta_base <= 1, got "
                f"({self.eta_base!r}, {self.eta_min!r})"
            )
        if self.max_iter_decay < 1:
            raise ValidationError(
                f"max_iter_decay: must be >= 1, got {self.max_iter_decay}"
            )


def eta_decay(iteration: int, schedule: EtaSchedule = EtaSchedule()) -> float:
    """Learning rate for a zero-based boosting round.

    eta_min + (eta_base - eta_min) * exp(-((iteration+1)/8)^2 / max_iter_decay)

    Starts a hair under eta_base and decays monotonically toward
    eta_min, which it approaches (and, in floating point, eventually
    reaches) as the exponent underflows.
    """
    if iteration < 0:
        raise ValidationError(f"iteration: must be >= 0, got {iteration}")
    x = (iteration + 1) / 8.0
    return schedule.eta_min + (schedule.eta_base - schedule.eta_min) * math.exp(
        -(x * x) / schedule.max_iter_decay
    )


def _check_n_bins(n_bins: int) -> None:
    if not (2 <= n_bins <= 1024):
        raise ValidationError(f"n_bins: must lie in [2, 1024], got {n_bins}")


def _check_regularization(reg_lambda: float, min_child_weight: float) -> None:
    for name, v in (("reg_lambda", reg_lambda), ("min_child_weight", min_child_weight)):
        if not (math.isfinite(v) and v >= 0):
            raise ValidationError(f"{name}: must be >= 0 and finite, got {v!r}")


@dataclass(frozen=True)
class GbdtConfig:
    max_depth: int = 5
    num_rounds: int = 500
    early_stopping_rounds: int | None = None  # None: monitor but never stop early
    n_bins: int = 256
    reg_lambda: float = 1.0
    min_child_weight: float = 1.0
    eta: EtaSchedule = EtaSchedule()

    def __post_init__(self) -> None:
        if not (1 <= self.max_depth <= 32):
            raise ValidationError(f"max_depth: must lie in [1, 32], got {self.max_depth}")
        if self.num_rounds < 1:
            raise ValidationError(f"num_rounds: must be >= 1, got {self.num_rounds}")
        if self.early_stopping_rounds is not None and self.early_stopping_rounds < 1:
            raise ValidationError(
                f"early_stopping_rounds: must be >= 1 or None, "
                f"got {self.early_stopping_rounds}"
            )
        _check_n_bins(self.n_bins)
        _check_regularization(self.reg_lambda, self.min_child_weight)


class BinnedMatrix(NamedTuple):
    """Quantized feature matrix: per-feature ascending edges plus codes.

    codes[i, f] counts the edges of feature f strictly below row i's
    value, so code b covers the half-open slab (edges[b-1], edges[b]].
    `codes` has shape (n_rows, n_features) in Fortran (column-major)
    order, so each feature's codes are one contiguous column.
    """

    edges: list[np.ndarray]
    codes: np.ndarray


def quantize_features(features: np.ndarray, n_bins: int) -> BinnedMatrix:
    """Bucket each feature into at most n_bins quantile bins.

    Edges are deduplicated quantiles with any edge at or above the
    column maximum dropped (it could never separate rows). A constant
    column gets no edges and is never split on. When a column has at
    most n_bins distinct values every distinct value lands in its own
    bin, so binned split finding is exact for it.
    """
    X = check_features(features)
    _check_n_bins(n_bins)
    quantile_points = np.arange(1, n_bins) / n_bins
    dtype = np.uint8 if n_bins <= 256 else np.uint16
    codes = np.empty(X.shape, dtype=dtype, order="F")
    edges: list[np.ndarray] = []
    for f in range(X.shape[1]):
        col = X[:, f]
        # quantiles are order statistics, so the sorted column gives the
        # same edges; its last entry is the column maximum, and sorted
        # keys make the bin search cache-friendly
        order = np.argsort(col)
        ordered = col[order]
        e = np.unique(np.quantile(ordered, quantile_points))
        e = e[e < ordered[-1]]
        codes[order, f] = np.searchsorted(e, ordered, side="left")
        edges.append(e)
    return BinnedMatrix(edges, codes)


class NodeHistogram(NamedTuple):
    """Per-(feature, bin) gradient and hessian sums for one node."""

    grad_sums: np.ndarray  # (n_features, n_bins)
    hess_sums: np.ndarray


class SplitDecision(NamedTuple):
    feature: int
    bin_index: int  # split sends bin <= bin_index left; threshold = edges[feature][bin_index]
    gain: float


def best_split(
    hist: NodeHistogram,
    reg_lambda: float = 1.0,
    min_child_weight: float = 1.0,
    candidate_mask: np.ndarray | None = None,
) -> SplitDecision | None:
    """Highest-gain split of one node's histogram, or None.

    Exact ties of the computed gain go to the lowest feature index,
    then the lowest bin. Two splits that partition the node's rows
    identically can still differ in the last bits of their computed
    gains (each feature's sums run over its own bins), and then the
    larger computed gain wins. Splits leaving a child with hessian mass
    below `min_child_weight` (or empty) are ineligible. Returns None
    when no eligible split has strictly positive gain. `candidate_mask`,
    shape (n_features, n_bins - 1), can further restrict which bins are
    usable edges.
    """
    g = np.asarray(hist.grad_sums, dtype=np.float64)
    h = np.asarray(hist.hess_sums, dtype=np.float64)
    if g.ndim != 2 or g.shape != h.shape:
        raise ValidationError(
            f"histogram: grad/hess shapes must match and be 2-D, got {g.shape} vs {h.shape}"
        )
    _check_regularization(reg_lambda, min_child_weight)
    n_features, n_bins = g.shape
    if n_bins < 2:
        return None
    grad_left = np.cumsum(g, axis=1)
    hess_left = np.cumsum(h, axis=1)
    # totals from the same accumulation keep right sums exactly zero
    # past the last populated bin
    grad_total = grad_left[:, -1:]
    hess_total = hess_left[:, -1:]
    gl, hl = grad_left[:, :-1], hess_left[:, :-1]
    gr, hr = grad_total - gl, hess_total - hl
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (
            gl * gl / (hl + reg_lambda)
            + gr * gr / (hr + reg_lambda)
            - grad_total * grad_total / (hess_total + reg_lambda)
        )
    eligible = (hl >= min_child_weight) & (hr >= min_child_weight) & (hl > 0) & (hr > 0)
    if candidate_mask is not None:
        eligible = eligible & candidate_mask
    gain = np.where(eligible, gain, -np.inf)
    flat = int(np.argmax(gain))  # argmax takes the first maximum: lowest feature, lowest bin
    f, b = divmod(flat, n_bins - 1)
    top = float(gain[f, b])
    if not top > 0.0:
        return None
    return SplitDecision(f, b, top)


@dataclass
class Tree:
    """One regression tree in flat-array form.

    feature[i] is -1 at leaves (threshold/left/right unused there, with
    threshold stored as 0.0); value[i] is the leaf contribution with
    shrinkage already folded in, 0.0 at internal nodes.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def depth(self) -> int:
        """Longest root-to-leaf edge count."""
        def walk(i: int) -> int:
            if self.feature[i] < 0:
                return 0
            return 1 + max(walk(int(self.left[i])), walk(int(self.right[i])))

        return walk(0)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Leaf contribution per row of a raw (unbinned) feature matrix.

        A root-to-leaf walk visits each node at most once, so a walk still
        at an internal node after n_nodes levels has met a cycle: ValueError.
        """
        X = np.asarray(features, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(self.n_nodes):
            f = self.feature[node]
            live = f >= 0
            if not live.any():
                return self.value[node]
            rows = np.nonzero(live)[0]
            at = node[rows]
            go_left = X[rows, f[live]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        raise ValueError(f"tree walk passed {self.n_nodes} levels: the tree has a cycle")


class RoundRecord(NamedTuple):
    round_index: int
    eta: float
    train_mae: float
    val_mae: float


@dataclass
class TreeEnsemble:
    """A trained boosted ensemble, truncated at its best validation round.

    `history` keeps every trained round including the discarded tail;
    its first len(trees) records give the kept trees' shrinkage.
    """

    base_score: float
    trees: list[Tree]
    n_features: int
    best_round: int
    history: list[RoundRecord] = field(default_factory=list)

    def predict(self, features: np.ndarray) -> np.ndarray:
        out = np.full(features.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += tree.predict(features)
        return out


def predict_gbdt(model: TreeEnsemble, features: np.ndarray) -> np.ndarray | float:
    """Ensemble prediction for one feature row (returns float) or a matrix."""
    return predict_rows(model.predict, features, model.n_features, "features")


def _accumulate_histograms(
    codes: np.ndarray,
    rows: np.ndarray,
    slot_of_rows: np.ndarray,
    grad: np.ndarray,
    grad_hist: np.ndarray,
    hess_hist: np.ndarray,
) -> None:
    """Fill the (n_slots, n_features, n_bins) histograms from `rows`.

    Each row adds its gradient, and a count of 1 as its hessian, to the
    bins of its slot: one pair of bincounts per feature.
    """
    n_slots, n_features, n_bins = grad_hist.shape
    size = n_slots * n_bins
    key_base = slot_of_rows * n_bins
    g_rows = grad[rows]
    for f in range(n_features):
        key = key_base + codes[:, f].take(rows)
        grad_hist[:, f, :] = np.bincount(key, weights=g_rows, minlength=size).reshape(
            n_slots, n_bins
        )
        hess_hist[:, f, :] = np.bincount(key, minlength=size).reshape(n_slots, n_bins)


def _grow_tree(
    codes: np.ndarray,
    edges: list[np.ndarray],
    grad: np.ndarray,
    config: GbdtConfig,
    eta: float,
) -> tuple[Tree, np.ndarray]:
    """One depth-wise tree on binned features; also returns each row's leaf.

    Each open node gets one `best_split` call on its histogram, in level
    order. Below the root only the smaller child of each split has its
    histogram accumulated from its rows; the larger sibling's is the
    parent's minus the smaller one's, filled in place into the next
    level's buffer. `slot` maps node ids to buffer slots. Hessian
    histograms are int32 row counts, so they stay exact, and a gradient
    bin whose count is zero is set to exactly zero, so subtraction
    residue never reaches an empty bin. No bin needs masking: feature
    f's codes lie in [0, len(edges[f])], so a split at or past its last
    edge sends every row left, and `best_split` rejects an empty child.
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


def train_gbdt(train: Dataset, val: Dataset, config: GbdtConfig) -> TreeEnsemble:
    """Boost squared-error trees on `train`, monitoring MAE on `val`.

    The base score is the train-target mean. Stops early once val MAE
    has not improved for `early_stopping_rounds` rounds (never, when
    that is None) and truncates the ensemble at the best round.
    """
    check_fit_pair(train, val)
    binned = quantize_features(train.features, config.n_bins)
    y = train.targets
    base = float(np.mean(y))
    pred = np.full(len(y), base, dtype=np.float64)
    val_pred = np.full(len(val), base, dtype=np.float64)
    patience = (
        config.early_stopping_rounds
        if config.early_stopping_rounds is not None
        else config.num_rounds
    )

    trees: list[Tree] = []
    history: list[RoundRecord] = []
    best_val = math.inf
    best_round = 0
    for r in range(config.num_rounds):
        eta = eta_decay(r, config.eta)
        grad = pred - y
        tree, leaf_of_row = _grow_tree(binned.codes, binned.edges, grad, config, eta)
        pred = pred + tree.value[leaf_of_row]
        val_pred = val_pred + tree.predict(val.features)
        train_mae = float(np.mean(np.abs(pred - y)))
        val_mae = float(np.mean(np.abs(val_pred - val.targets)))
        trees.append(tree)
        history.append(RoundRecord(r, eta, train_mae, val_mae))
        if val_mae < best_val:
            best_val = val_mae
            best_round = r
        if r - best_round >= patience:
            break
    keep = best_round + 1
    return TreeEnsemble(
        base_score=base,
        trees=trees[:keep],
        n_features=train.features.shape[1],
        best_round=best_round,
        history=history,
    )
