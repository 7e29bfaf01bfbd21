"""Histogram-based gradient-boosted regression trees.

Squared-error boosting: after each round the per-row gradient is
(prediction - target) and the hessian is identically 1, so hessian sums
are row counts. Trees grow depth-wise, one level of whole arrays at a
time: a level's open nodes have contiguous ids, and their children
follow them in the same order, left before right, so the flat tree is
in level order. Split finding is done on quantized features: each
feature is bucketed once per fit into at most `n_bins` quantile bins,
whose edges are read off the sorted column, and the codes are stored
column-major so each feature's bin codes are contiguous. The sorted
column also counts each bin's rows: that is every tree's root count
histogram, and a root's gradient histogram is one bincount per code
column. Below the root, gradient/count histograms are accumulated with
bincount for the smaller child of every split; the larger sibling's
histogram is its parent's minus the smaller child's (sibling
subtraction, as in LightGBM). Candidate splits are scored by

    gain = 1/2 [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ]

taking the first (lowest feature, then lowest bin) maximizer with both
children at or above `min_child_weight` hessian mass. That rule breaks
exact ties of the computed gains only: two splits that partition a
node's rows identically (say `rate` and `dividend_yield`, both constant
per underlying) can differ in the last bits of their computed gains,
and then the larger one wins whatever its feature. Leaves predict
-G/(H+lambda) scaled by the round's shrinkage, which decays from
`eta_base` toward `eta_min` on a slow Gaussian-in-iteration schedule.

Split search runs once per tree level over all of its open nodes and
scores only occupied bins, those holding rows of the node, as XGBoost's
sparsity-aware split finding enumerates only present entries. That is
exact, not an approximation: an empty bin adds exactly 0.0 to the
prefix sums, so its split has the same children as the previous
occupied bin's (or an empty left child), ties it and loses the tie.
The picks are those of `best_split` on each node's dense histogram,
bit for bit, and no gradient of an empty bin is read, so subtraction
residue left there needs no masking.

Thresholds stored in the tree are the raw bin edges, so prediction on
unbinned values routes rows exactly as binned training did: value <=
edges[b] if and only if bin(value) <= b.

Validation MAE is monitored every round; training stops once it has
failed to improve for `early_stopping_rounds` rounds, and the returned
ensemble is truncated at the best round.

GbdtConfig declares its field rules, the shrinkage schedule's included,
as one table checked by `core.check_fields`; `quantize_features` and
`best_split` check their `n_bins` and regularization arguments against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    Dataset,
    check_features,
    check_fields,
    check_fit_pair,
    integer_rule,
    is_integer,
    predict_rows,
)
from .errors import ValidationError

_SHRINKAGE = (lambda v: 0 < v <= 1, "must lie in (0, 1]")
_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "must be >= 0 and finite")
_GBDT_RULES = {
    "max_depth": integer_rule(1, 32),
    "num_rounds": integer_rule(1),
    "early_stopping_rounds": (
        lambda v: v is None or is_integer(v) and v >= 1, "must be an integer >= 1 or None"
    ),
    "n_bins": integer_rule(2, 1024),
    "reg_lambda": _NON_NEGATIVE,
    "min_child_weight": _NON_NEGATIVE,
    "eta_base": _SHRINKAGE,
    "eta_min": _SHRINKAGE,
    "max_iter_decay": integer_rule(1),
}


@dataclass(frozen=True)
class GbdtConfig:
    """Boosting knobs; the shrinkage defaults decay 0.5 -> 0.2 over ~10^5 rounds."""

    max_depth: int = 5
    num_rounds: int = 500
    early_stopping_rounds: int | None = None  # None: monitor but never stop early
    n_bins: int = 256
    reg_lambda: float = 1.0
    min_child_weight: float = 1.0
    eta_base: float = 0.5
    eta_min: float = 0.2
    max_iter_decay: int = 100_000

    def __post_init__(self) -> None:
        check_fields(_GBDT_RULES, **vars(self))
        if self.eta_min > self.eta_base:
            raise ValidationError(
                f"eta_min: must be <= eta_base ({self.eta_base!r}), got {self.eta_min!r}"
            )


def eta_decay(iteration: int, config: GbdtConfig = GbdtConfig()) -> float:
    """Learning rate for a zero-based boosting round.

    eta_min + (eta_base - eta_min) * exp(-((iteration+1)/8)^2 / max_iter_decay)

    Starts a hair under eta_base and decays monotonically toward
    eta_min, which it approaches (and, in floating point, eventually
    reaches) as the exponent underflows.
    """
    check_fields({"iteration": integer_rule(0)}, iteration=iteration)
    x = (iteration + 1) / 8.0
    return config.eta_min + (config.eta_base - config.eta_min) * math.exp(
        -(x * x) / config.max_iter_decay
    )


class BinnedMatrix(NamedTuple):
    """Quantized feature matrix: per-feature ascending edges, codes and counts.

    codes[i, f] counts the edges of feature f strictly below row i's
    value, so code b covers the half-open slab (edges[b-1], edges[b]].
    `codes` has shape (n_rows, n_features) in Fortran (column-major)
    order, so each feature's codes are one contiguous column.
    `counts[f, b]` is the number of rows with code b in feature f, as
    int32 of shape (n_features, n_bins): every tree's root count
    histogram. `edge_table[f, b]` is edges[f][b], padded with 0.0 to
    shape (n_features, n_bins - 1), so split thresholds are one lookup.
    """

    edges: list[np.ndarray]
    codes: np.ndarray
    counts: np.ndarray
    edge_table: np.ndarray


def _sorted_quantiles(ordered: np.ndarray, points: np.ndarray) -> np.ndarray:
    """`np.quantile(ordered, points)` of an ascending column, read by index.

    Type-7 ("linear") quantiles with numpy's virtual index (n-1)*q and
    its lerp.
    """
    n = len(ordered)
    virtual = (n - 1) * points
    top = virtual >= n - 1  # numpy reads the last value for both ends
    lo = np.where(top, -1, np.floor(virtual)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    gamma = virtual - lo
    below, above = ordered[lo], ordered[hi]
    diff = above - below
    out = below + diff * gamma
    np.subtract(above, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def quantize_features(features: np.ndarray, n_bins: int) -> BinnedMatrix:
    """Bucket each feature into at most n_bins quantile bins.

    Edges are deduplicated quantiles with any edge at or above the
    column maximum dropped (it could never separate rows). The quantiles
    are read off the sorted column by `_sorted_quantiles`, which gives
    np.quantile's edges, and a zero edge is always +0.0. A constant
    column gets no edges and is never split on. When a column has at
    most n_bins distinct values every distinct value lands in its own
    bin, so binned split finding is exact for it. The sorted column also
    gives each bin's row count, kept as `counts`.
    """
    X = np.asfortranarray(check_features(features))
    check_fields(_GBDT_RULES, n_bins=n_bins)
    quantile_points = np.arange(1, n_bins) / n_bins
    dtype = np.uint8 if n_bins <= 256 else np.uint16
    n_rows, n_features = X.shape
    codes = np.empty(X.shape, dtype=dtype, order="F")
    counts = np.zeros((n_features, n_bins), dtype=np.int32)
    edge_table = np.zeros((n_features, n_bins - 1))
    edges: list[np.ndarray] = []
    for f in range(n_features):
        col = X[:, f]
        order = np.argsort(col)
        ordered = col[order]
        e = np.unique(_sorted_quantiles(ordered, quantile_points))
        e = e[e < ordered[-1]]  # the last entry is the column maximum
        # a sort may put -0.0 before or after 0.0; the edge must not depend on it
        e += 0.0
        # the sorted column's codes rise by one past each edge: bin k
        # holds the rows between the (k-1)-th and k-th run boundaries
        bounds = np.searchsorted(ordered, e, side="right")
        in_bin = np.diff(bounds, prepend=0, append=n_rows)
        codes[order, f] = np.repeat(np.arange(len(e) + 1, dtype=dtype), in_bin)
        counts[f, : len(in_bin)] = in_bin
        edge_table[f, : len(e)] = e
        edges.append(e)
    return BinnedMatrix(edges, codes, counts, edge_table)


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

    This is the public reference of split finding: training does not
    call it, and tests check that the level search in `_grow_tree`
    picks what it picks for every node.
    """
    g = np.asarray(hist.grad_sums, dtype=np.float64)
    h = np.asarray(hist.hess_sums, dtype=np.float64)
    if g.ndim != 2 or g.shape != h.shape:
        raise ValidationError(
            f"histogram: grad/hess shapes must match and be 2-D, got {g.shape} vs {h.shape}"
        )
    check_fields(_GBDT_RULES, reg_lambda=reg_lambda, min_child_weight=min_child_weight)
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
        """Longest root-to-leaf edge count.

        Walked level by level, as in `predict`; an internal node still
        reached after n_nodes levels means a cycle: ValueError.
        """
        level = np.zeros(1, dtype=np.int64)
        for depth in range(self.n_nodes):
            level = level[self.feature[level] >= 0]
            if len(level) == 0:
                return depth
            # a set of ids, so a cycle cannot grow a level past n_nodes
            level = np.unique(np.concatenate((self.left[level], self.right[level])))
        raise ValueError(f"tree walk passed {self.n_nodes} levels: the tree has a cycle")

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


# slots scored together by _level_splits: bounds its packed arrays to a
# few MB however wide the level is
_SLOT_CHUNK = 64


def _level_splits(
    grad_hist: np.ndarray,
    hess_hist: np.ndarray,
    reg_lambda: float,
    min_child_weight: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's `best_split` pick from one level's histograms.

    Takes (n_slots, n_features, n_bins) gradient sums and int32 row
    counts; returns per slot the split feature (-1 where the slot stays
    a leaf) and the split bin. Only occupied bins are scored, which the
    module docstring shows to be exact. Each (slot, feature) line packs
    its occupied bins in bin order into a zero-padded row, whose cumsum
    has the dense cumsum's partial sums, added in the same order. Gains
    follow `best_split`'s formula and operation order, each slot takes
    its first maximum in (feature, bin) order, and a NaN maximum, as
    overflowing gradients give, is no split, as in `best_split`.
    """
    n_slots, n_features, n_bins = grad_hist.shape
    split_feature = np.full(n_slots, -1, dtype=np.int64)
    split_bin = np.zeros(n_slots, dtype=np.int64)
    # counts are integers: hl >= mcw and hl > 0 is hl >= max(mcw, 1)
    least = max(min_child_weight, 1.0)
    for lo in range(0, n_slots, _SLOT_CHUNK):
        counts = hess_hist[lo : lo + _SLOT_CHUNK].reshape(-1)
        occupied = np.flatnonzero(counts != 0)
        if len(occupied) == 0:
            continue
        line = occupied // n_bins  # chunk slot * n_features + feature
        n_lines = len(counts) // n_bins
        per_line = np.bincount(line, minlength=n_lines)
        line_start = np.cumsum(per_line) - per_line
        width = int(per_line.max())
        at = line * width + (np.arange(len(occupied)) - line_start[line])
        packed = np.zeros(n_lines * width)
        packed[at] = grad_hist[lo : lo + _SLOT_CHUNK].reshape(-1)[occupied]
        grad_left = np.cumsum(packed.reshape(n_lines, width), axis=1)
        grad_total = grad_left[:, -1]
        gl = grad_left.reshape(-1)[at]
        # integer sums are exact in any grouping, so one running count
        # over the chunk, less what precedes each line, gives the counts
        count_left = np.zeros(len(occupied) + 1, dtype=np.int64)
        np.cumsum(counts[occupied], out=count_left[1:])
        before = count_left[line_start]
        count_total = count_left[line_start + per_line] - before
        hl = count_left[1:] - before[line]
        hr = count_total[line] - hl
        gr = grad_total[line] - gl
        with np.errstate(divide="ignore", invalid="ignore"):
            parent = grad_total * grad_total / (count_total + reg_lambda)
            gain = 0.5 * (
                gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent[line]
            )
        gain[(hl < least) | (hr < least)] = -np.inf
        # entries run slot by slot; a NaN maximum is not > 0
        per_slot = per_line.reshape(-1, n_features).sum(axis=1)
        slot_start = np.cumsum(per_slot) - per_slot
        filled = np.flatnonzero(per_slot)
        top = np.maximum.reduceat(gain, slot_start[filled])
        hits = np.flatnonzero(gain == np.repeat(top, per_slot[filled]))
        won = filled[top > 0.0]
        pick = hits[np.searchsorted(hits, slot_start[won])]
        split_feature[lo + won] = line[pick] % n_features
        split_bin[lo + won] = occupied[pick] % n_bins
    return split_feature, split_bin


def _root_histograms(binned: BinnedMatrix, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root's (1, n_features, n_bins) gradient and count histograms.

    The count histogram is a view of the binning's counts, which no
    caller writes; the gradient sums are one bincount per code column,
    adding the rows in row order as `_accumulate_histograms` does over
    all rows.
    """
    n_features, n_bins = binned.counts.shape
    grad_hist = np.empty((1, n_features, n_bins), dtype=np.float64)
    for f in range(n_features):
        grad_hist[0, f] = np.bincount(binned.codes[:, f], weights=grad, minlength=n_bins)
    return grad_hist, binned.counts[None]


def _grow_tree(
    binned: BinnedMatrix,
    grad: np.ndarray,
    config: GbdtConfig,
    eta: float,
) -> tuple[Tree, np.ndarray]:
    """One depth-wise tree on binned features; also returns each row's leaf.

    A level's open nodes have the contiguous ids [start, end); split p of
    the level, counted in id order, gets the children end + 2p and
    end + 2p + 1. `slot` maps the level's nodes to their histogram buffer
    slots, and the rows still in open nodes carry `pos`, their node's
    offset within the level.

    One `_level_splits` call per level gives every node `best_split`'s
    pick. Below the root the smaller child of pair p, the left one on
    equal counts, has its histogram accumulated from its rows into slot
    p; its sibling's is the parent's minus it, filled in place into slot
    n_pairs + p. Pair order is free: each slot sums its rows in row order
    and is scored on its own. The tie rule is not: the subtracted sibling
    carries the subtraction's rounding, so swapping the two would move
    near-tie picks. Hessian histograms are int32 row counts, so they stay
    exact; a zero-count bin of a subtracted sibling may keep residue in
    its gradient, which the level search never reads. No bin needs
    masking: feature f's codes lie in [0, len(edges[f])], and a split at
    a node's last occupied bin sends every row left, so it is never
    eligible and every split bin has an edge.

    The root's histograms are `_root_histograms`, not an accumulation.
    """
    codes = binned.codes
    n_rows = len(codes)
    n_features, n_bins = binned.counts.shape
    lam = config.reg_lambda
    # column-major, so row i's code in feature f is flat_codes[f * n_rows + i]
    flat_codes = codes.ravel(order="F")
    features: list[np.ndarray] = []
    thresholds: list[np.ndarray] = []
    lefts: list[np.ndarray] = []

    node_of_row = np.empty(n_rows, dtype=np.int64)
    rows = np.arange(n_rows)
    pos = np.zeros(n_rows, dtype=np.int64)
    slot = np.zeros(1, dtype=np.int64)
    start, end = 0, 1
    grad_hist, hess_hist = _root_histograms(binned, grad)
    for depth in range(config.max_depth):
        slot_feature, slot_bin = _level_splits(grad_hist, hess_hist, lam, config.min_child_weight)
        feature, split_bin = slot_feature[slot], slot_bin[slot]
        splits = feature >= 0
        parents = slot[splits]
        n_pairs = len(parents)
        pair = np.cumsum(splits) - 1
        threshold = np.zeros(len(feature))
        threshold[splits] = binned.edge_table[feature[splits], split_bin[splits]]
        features.append(feature)
        thresholds.append(threshold)
        lefts.append(np.where(splits, end + 2 * pair, -1))

        feature_of_row = feature[pos]
        moving = feature_of_row >= 0
        if not moving.all():
            node_of_row[rows[~moving]] = start + pos[~moving]
            rows, pos, feature_of_row = rows[moving], pos[moving], feature_of_row[moving]
        go_right = flat_codes.take(feature_of_row * n_rows + rows) > split_bin[pos]
        pos = 2 * pair[pos] + go_right
        start, end = end, end + 2 * n_pairs
        if n_pairs == 0 or depth + 1 == config.max_depth:
            break

        counts = np.bincount(pos, minlength=2 * n_pairs)
        smaller = np.arange(0, 2 * n_pairs, 2) + (counts[0::2] > counts[1::2])
        slot = np.empty(2 * n_pairs, dtype=np.int64)
        slot[smaller] = np.arange(n_pairs)
        slot[smaller ^ 1] = np.arange(n_pairs, 2 * n_pairs)
        slot_of_row = slot[pos]
        # indices, not a mask: numpy filters slowly by a mask of interleaved runs
        small = np.flatnonzero(slot_of_row < n_pairs)
        next_grad = np.empty((2 * n_pairs, n_features, n_bins), dtype=np.float64)
        next_hess = np.empty((2 * n_pairs, n_features, n_bins), dtype=np.int32)
        _accumulate_histograms(
            codes, rows[small], slot_of_row[small], grad, next_grad[:n_pairs], next_hess[:n_pairs]
        )
        for hist, nxt in ((grad_hist, next_grad), (hess_hist, next_hess)):
            large = nxt[n_pairs:]
            np.take(hist, parents, axis=0, out=large, mode="clip")
            np.subtract(large, nxt[:n_pairs], out=large)
        grad_hist, hess_hist = next_grad, next_hess

    # the last level's nodes are leaves
    node_of_row[rows] = start + pos
    feature = np.concatenate(features + [np.full(end - start, -1)]).astype(np.int32)
    threshold = np.concatenate(thresholds + [np.zeros(end - start)])
    left = np.concatenate(lefts + [np.full(end - start, -1)]).astype(np.int32)
    leaves = feature < 0
    grad_sum = np.bincount(node_of_row, weights=grad, minlength=end)[leaves]
    count = np.bincount(node_of_row, minlength=end)[leaves]
    value = np.zeros(end, dtype=np.float64)
    value[leaves] = -grad_sum / (count + lam) * eta
    tree = Tree(feature, threshold, left, np.where(leaves, left, left + 1), value)
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
        eta = eta_decay(r, config)
        grad = pred - y
        tree, leaf_of_row = _grow_tree(binned, grad, config, eta)
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
