"""Histogram-based gradient-boosted regression trees.

Squared-error boosting: after each round the per-row gradient is
(prediction - target) and the hessian is identically 1, so hessian sums
are row counts. Trees grow depth-wise, one level of whole arrays at a
time: a level's open nodes have contiguous ids, and their children
follow them in the same order, left before right, so the flat tree is
in level order. Split finding is done on quantized features: each
feature is bucketed into at most `n_bins` quantile bins, whose edges are
read off the sorted column, and the codes are stored column-major so
each feature's bin codes are contiguous. A training Dataset is binned
once per `n_bins`: it owns its frozen features, so every later fit on
the same Dataset object reuses that binning, whose arrays are frozen
too. The binning is kept on the Dataset and lives as long as it does;
features made writeable again are binned afresh on every fit and never
kept. The sorted column also counts each bin's rows: that is every
tree's root count histogram, and a root's gradient histogram is one
bincount per code column. Below the root, gradient/count histograms
are accumulated with bincount for the smaller child of every split;
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

Split search runs once per tree level over all of its open nodes and
scores only occupied bins, those holding rows of the node, as XGBoost's
sparsity-aware split finding enumerates only present entries. That is
exact, not an approximation: an empty bin adds exactly 0.0 to the
prefix sums, so its split has the same children as the previous
occupied bin's (or an empty left child), ties it and loses the tie.
The picks are those of `best_split` on each node's dense histogram,
bit for bit, and no gradient of an empty bin is read, so subtraction
residue left there needs no masking.

One routine builds and scores every level below the root, a chunk of
slots at a time, and only the levels that a later level subtracts from,
the root down to depth max_depth - 2, are kept whole. The last searched
level, the widest, is built, scored and dropped chunk by chunk, and only
its picks are kept; since a slot's sums and its pick do not depend on
the slots built beside it, the trees are the same bit for bit as when
every level is stored whole.

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
    scalar_rule,
)
from .errors import ValidationError

_SHRINKAGE = scalar_rule((lambda v: 0 < v <= 1, "must lie in (0, 1]"))
_NON_NEGATIVE = scalar_rule((lambda v: 0 <= v < math.inf, "must be >= 0 and finite"))
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


def _binning(train: Dataset, n_bins: int) -> BinnedMatrix:
    """`quantize_features(train.features, n_bins)`, computed once per Dataset and n_bins.

    The binning is kept on `train`, so it lives as long as the Dataset,
    and its arrays are frozen, as every fit on `train` shares them.
    Features whose writes were re-enabled are binned afresh and not kept.
    """
    if train.features.flags.writeable:
        return quantize_features(train.features, n_bins)
    if n_bins not in train._binnings:
        binned = quantize_features(train.features, n_bins)
        for arr in (binned.codes, binned.counts, binned.edge_table, *binned.edges):
            arr.setflags(write=False)
        train._binnings[n_bins] = binned
    return train._binnings[n_bins]


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
    a bool array of shape (n_features, n_bins - 1), can further restrict
    which bins are usable edges; any other mask is a ValidationError.

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
    shape = (n_features, n_bins - 1)
    mask = np.ones(shape, dtype=bool) if candidate_mask is None else np.asarray(candidate_mask)
    if mask.dtype != bool or mask.shape != shape:
        raise ValidationError(
            f"candidate_mask: must be a bool array of shape {shape}, got {mask.dtype} {mask.shape}"
        )
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
    eligible = (hl >= min_child_weight) & (hr >= min_child_weight) & (hl > 0) & (hr > 0) & mask
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


# slots built and scored together, _SLOT_CHUNK // 2 pairs of children:
# bounds the arrays of a level that is not kept to a few MB however wide it is
_SLOT_CHUNK = 64


def _level_splits(
    grad_hist: np.ndarray,
    hess_hist: np.ndarray,
    reg_lambda: float,
    min_child_weight: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's `best_split` pick from a set of slots' histograms.

    Takes (n_slots, n_features, n_bins) gradient sums and int32 row
    counts, the root's one slot or one chunk of a level, and scores them
    in one pass; returns per slot the split feature (-1 where the slot
    stays a leaf) and the split bin. Only occupied bins are scored, which
    the module docstring shows to be exact. Each (slot, feature) line
    packs its occupied bins in bin order into a zero-padded row, whose
    cumsum has the dense cumsum's partial sums, added in the same order,
    so a slot's pick does not depend on the slots scored beside it.
    Gains follow `best_split`'s formula and operation order, each slot
    takes its first maximum in (feature, bin) order, and a NaN maximum,
    as overflowing gradients give, is no split, as in `best_split`.
    """
    n_slots, n_features, n_bins = grad_hist.shape
    split_feature = np.full(n_slots, -1, dtype=np.int64)
    split_bin = np.zeros(n_slots, dtype=np.int64)
    counts = hess_hist.reshape(-1)
    occupied = np.flatnonzero(counts != 0)
    if len(occupied) == 0:
        return split_feature, split_bin
    line = occupied // n_bins  # slot * n_features + feature
    n_lines = n_slots * n_features
    per_line = np.bincount(line, minlength=n_lines)
    line_start = np.cumsum(per_line) - per_line
    width = int(per_line.max())
    at = line * width + (np.arange(len(occupied)) - line_start[line])
    packed = np.zeros(n_lines * width)
    packed[at] = grad_hist.reshape(-1)[occupied]
    grad_left = packed.reshape(n_lines, width)
    np.cumsum(grad_left, axis=1, out=grad_left)  # in place: no second (lines, width) array
    grad_total = grad_left[:, -1]
    gl = grad_left.reshape(-1)[at]
    # integer sums are exact in any grouping, so one running count over
    # the slots, less what precedes each line, gives the counts
    count_left = np.zeros(len(occupied) + 1, dtype=np.int64)
    np.cumsum(counts[occupied], out=count_left[1:])
    before = count_left[line_start]
    count_total = count_left[line_start + per_line] - before
    hl = count_left[1:] - before[line]
    hr = count_total[line] - hl
    gr = grad_total[line] - gl
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = grad_total * grad_total / (count_total + reg_lambda)
        gain = 0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent[line])
    # counts are integers: hl >= mcw and hl > 0 is hl >= max(mcw, 1)
    least = max(min_child_weight, 1.0)
    gain[(hl < least) | (hr < least)] = -np.inf
    # entries run slot by slot; a NaN maximum is not > 0
    per_slot = per_line.reshape(-1, n_features).sum(axis=1)
    slot_start = np.cumsum(per_slot) - per_slot
    filled = np.flatnonzero(per_slot)
    top = np.maximum.reduceat(gain, slot_start[filled])
    hits = np.flatnonzero(gain == np.repeat(top, per_slot[filled]))
    won = filled[top > 0.0]
    pick = hits[np.searchsorted(hits, slot_start[won])]
    split_feature[won] = line[pick] % n_features
    split_bin[won] = occupied[pick] % n_bins
    return split_feature, split_bin


def _root_histograms(binned: BinnedMatrix, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root's (1, n_features, n_bins) gradient and count histograms.

    The count histogram is a view of the binning's counts, which no
    caller writes (a kept binning's are read-only); the gradient sums
    are one bincount per code column, adding the rows in row order as
    `_accumulate_histograms` does over all rows.
    """
    n_features, n_bins = binned.counts.shape
    grad_hist = np.empty((1, n_features, n_bins), dtype=np.float64)
    for f in range(n_features):
        grad_hist[0, f] = np.bincount(binned.codes[:, f], weights=grad, minlength=n_bins)
    return grad_hist, binned.counts[None]


def _child_splits(
    codes: np.ndarray,
    rows: np.ndarray,
    slot_of_row: np.ndarray,
    grad: np.ndarray,
    grad_hist: np.ndarray,
    hess_hist: np.ndarray,
    parents: np.ndarray,
    lam: float,
    mcw: float,
    keep: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build and score the children of `parents`, `_SLOT_CHUNK // 2` pairs at a time.

    The chunk of pairs [lo, lo + k) owns the slots [2 lo, 2 lo + 2k), as
    `_grow_tree` numbers them: pair lo + j's smaller child, whose rows
    carry slot 2 lo + j, is accumulated from its rows; its sibling, the
    parent's slot `parents[lo + j]` minus it, is filled in place into
    slot 2 lo + k + j. Each chunk is then scored by `_level_splits` with
    regularization `lam` and minimum child weight `mcw`.
    Returns per slot the split feature (-1 for a leaf) and bin, and the
    histogram buffers: with `keep` the whole level, each chunk a view of
    it; without, one chunk's buffer pair, reused by every chunk.
    """
    n_pairs = len(parents)
    half = _SLOT_CHUNK // 2
    shape = (2 * (n_pairs if keep else min(n_pairs, half)), *grad_hist.shape[1:])
    next_grad, next_hess = np.empty(shape), np.empty(shape, dtype=np.int32)
    picks = np.empty((2, 2 * n_pairs), dtype=np.int64)  # split feature, split bin
    for lo in range(0, n_pairs, half):
        k = min(half, n_pairs - lo)
        at = 2 * lo if keep else 0
        chunk_grad, chunk_hess = next_grad[at : at + 2 * k], next_hess[at : at + 2 * k]
        # indices, not a mask: numpy filters slowly by a mask of interleaved runs
        small = np.flatnonzero((slot_of_row >= 2 * lo) & (slot_of_row < 2 * lo + k))
        _accumulate_histograms(
            codes, rows[small], slot_of_row[small] - 2 * lo, grad, chunk_grad[:k], chunk_hess[:k]
        )
        for hist, chunk in ((grad_hist, chunk_grad), (hess_hist, chunk_hess)):
            large = chunk[k:]
            np.take(hist, parents[lo : lo + k], axis=0, out=large, mode="clip")
            np.subtract(large, chunk[:k], out=large)
        picks[:, 2 * lo : 2 * lo + 2 * k] = _level_splits(chunk_grad, chunk_hess, lam, mcw)
    return picks[0], picks[1], next_grad, next_hess


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

    The root's one slot, and every level below it one chunk at a time,
    get `best_split`'s pick for each node from `_level_splits`. Below the
    root `_child_splits` builds and scores each level `_SLOT_CHUNK // 2`
    pairs at a time: with first = p - p % (_SLOT_CHUNK // 2) and k the
    size of pair p's chunk, the smaller child of pair p, the left one on
    equal counts, has its histogram accumulated from its rows into slot
    first + p; its sibling's is the parent's minus it, filled in place
    into slot first + p + k. Pair order is free: each slot sums its rows
    in row order and is scored on its own, so its pick does not depend
    on the slots built beside it. The tie rule is not: the subtracted
    sibling carries the subtraction's rounding, so swapping the two
    would move near-tie picks. Hessian histograms are int32 row counts,
    so they stay exact; a zero-count bin of a subtracted sibling may
    keep residue in its gradient, which the level search never reads.
    No bin needs masking: feature f's codes lie in [0, len(edges[f])],
    and a split at a node's last occupied bin sends every row left, so
    it is never eligible and every split bin has an edge.

    Levels differ only in `keep`: those that a later level subtracts
    from, depths 0 to max_depth - 2, are kept whole, each chunk a view of
    the level. The last searched level, depth max_depth - 1, whose
    splits make leaves, is built into one chunk's buffer pair and
    dropped chunk by chunk, keeping only each slot's pick, so the widest
    histograms a tree holds are those of depth max_depth - 2.

    The root's histograms are `_root_histograms`, not an accumulation.
    """
    codes = binned.codes
    n_rows = len(codes)
    lam, mcw = config.reg_lambda, config.min_child_weight
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
    slot_feature, slot_bin = _level_splits(grad_hist, hess_hist, lam, mcw)
    for depth in range(config.max_depth):
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
        p = np.arange(n_pairs)
        first = p - p % (_SLOT_CHUNK // 2)
        k = np.minimum(_SLOT_CHUNK // 2, n_pairs - first)
        slot = np.empty(2 * n_pairs, dtype=np.int64)
        slot[smaller] = first + p
        slot[smaller ^ 1] = first + p + k
        # only a level that a later level subtracts from is kept whole
        keep = depth + 2 < config.max_depth
        slot_feature, slot_bin, grad_hist, hess_hist = _child_splits(
            codes, rows, slot[pos], grad, grad_hist, hess_hist, parents, lam, mcw, keep
        )

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

    `train` is binned on its first fit at each `n_bins`, and later fits
    on the same Dataset object reuse that binning; an equal copy is
    binned again. The Dataset owns its frozen features, so editing them
    in place is not supported: features whose writes were re-enabled
    are binned on every fit, but features edited and then frozen again
    leave the kept binning stale, and later fits grow trees on the old
    values' bins.
    """
    check_fit_pair(train, val)
    binned = _binning(train, config.n_bins)
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
