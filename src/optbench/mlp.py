"""Dense feed-forward regression networks trained on absolute error.

Everything here is plain numpy. The training loss is MAE (the
subgradient at zero residual is taken as 0), optimized with
bias-corrected Adam over shuffled mini-batches. Inputs are z-scored
with statistics fitted on the training split only; binary 0/1 columns
are left unscaled and constant columns get deviation 1 so the transform
is always invertible. Targets are never scaled.

The learning rate is recomputed each epoch from the validation-MAE
history: it drops by `plateau_factor` for every completed
`plateau_patience`-epoch stretch without improvement, never below
`min_lr`. Training stops exactly `early_stop_patience` epochs after the
best validation epoch (or at `max_epochs`) and the returned parameters
are the checkpoint from that best epoch. Like Keras, the logged train MAE
averages each batch's |residual| as the batch saw it, before its update.

The layer arithmetic runs in place. `train_mlp` builds one workspace per
fit, sized for min(n, batch_size) rows: an activation buffer per layer,
one bool ReLU-mask buffer as wide as the widest ReLU layer, a residual
buffer and a weight-gradient buffer per layer; each batch's raw rows
are gathered into one input buffer and standardized there by
`standardize(..., out=)`, so no standardized copy of a split is made.
A short last batch uses row-prefix views of the same buffers. Backward
overwrites each activation once its gradient and mask are taken, so
the deltas need no buffers of their own. The operations and their
order are those of the plain `a @ w.T + b` formulation, so the trained
weights are the same bit for bit.

Every forward pass (scoring and the end-of-epoch validation pass)
works through the raw rows in blocks of _SCORE_BLOCK, as Keras
`Model.predict` does in batches: each block is standardized into one
input buffer through `standardize(..., out=)`, with one activation
buffer per layer, all sized for one block. Scoring memory is then set
by the block, not by the row count. A matrix of at most one block runs
the same single product per layer as a whole-matrix pass, so its
predictions are the same bit for bit. A longer one may differ in the
last bits: BLAS rounds a row according to where it sits in the
product, so a row's prediction already depended on the matrix around
it.

LayerSpec, Architecture and MlpTrainConfig each declare their field
rules as one table checked by `core.check_fields`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    POSITIVE,
    SEED,
    Dataset,
    check_features,
    check_fields,
    check_fit_pair,
    check_width,
    integer_rule,
    predict_rows,
    scalar_rule,
    seeded_rng,
)
from .errors import DivergenceError, ValidationError

ACTIVATIONS = ("relu", "linear")
# Adam's published constants, which the paper's networks keep
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
_SCORE_BLOCK = 1024  # rows per forward-pass block, to bound scoring memory


_LAYER_RULES = {
    "units": integer_rule(1),
    "activation": (lambda a: a in ACTIVATIONS, f"must be one of {ACTIVATIONS}"),
}


@dataclass(frozen=True)
class LayerSpec:
    units: int
    activation: str

    def __post_init__(self) -> None:
        check_fields(_LAYER_RULES, **vars(self))


_ARCHITECTURE_RULES = {
    "layers": (
        lambda layers: len(layers) > 0
        and all(isinstance(spec, LayerSpec) for spec in layers)
        and layers[-1] == LayerSpec(1, "linear"),
        "need at least one LayerSpec, the output layer a single linear unit",
    ),
}


@dataclass(frozen=True)
class Architecture:
    """Layer stack ending in a single linear output unit."""

    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        check_fields(_ARCHITECTURE_RULES, **vars(self))


THREE_LAYER = Architecture(
    (LayerSpec(256, "relu"), LayerSpec(128, "relu"), LayerSpec(1, "linear"))
)
FIVE_LAYER = Architecture(
    (
        LayerSpec(256, "relu"),
        LayerSpec(128, "relu"),
        LayerSpec(64, "relu"),
        LayerSpec(32, "relu"),
        LayerSpec(1, "linear"),
    )
)


class FeatureStats(NamedTuple):
    mean: np.ndarray
    std: np.ndarray


def fit_feature_stats(features: np.ndarray) -> FeatureStats:
    """Column means/deviations for z-scoring, fitted on training data.

    Binary 0/1 columns keep (mean 0, std 1) so they pass through
    unscaled; a constant column gets std 1 and maps to exactly 0.
    """
    X = check_features(features)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    binary = np.all((X == 0.0) | (X == 1.0), axis=0)
    mean = np.where(binary, 0.0, mean)
    std = np.where(binary | (std == 0.0), 1.0, std)
    return FeatureStats(mean, std)


def standardize(
    rows: np.ndarray, stats: FeatureStats, out: np.ndarray | None = None
) -> np.ndarray:
    """(rows - mean) / std, into `out` when given (`out` may be `rows`)."""
    scaled = np.subtract(np.asarray(rows, dtype=np.float64), stats.mean, out=out)
    scaled /= stats.std
    return scaled


def _identity_stats(n_inputs: int) -> FeatureStats:
    return FeatureStats(np.zeros(n_inputs), np.ones(n_inputs))


@dataclass
class NetworkParams:
    """Weights/biases per layer plus the input-scaling statistics.

    weights[l] has shape (units_l, fan_in_l); biases[l] has shape
    (units_l,). The stats travel with the parameters so a saved network
    reproduces its predictions without the training data.
    """

    architecture: Architecture
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    stats: FeatureStats

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[1]

    def n_parameters(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy_arrays(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return [w.copy() for w in self.weights], [b.copy() for b in self.biases]


def init_network(
    architecture: Architecture,
    n_inputs: int,
    seed: int = 0,
    stats: FeatureStats | None = None,
) -> NetworkParams:
    """He-initialized network: N(0, sqrt(2/fan_in)) weights, zero biases."""
    check_fields({"n_inputs": integer_rule(1), "seed": SEED}, n_inputs=n_inputs, seed=seed)
    rng = seeded_rng(seed, (0,))
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    fan_in = n_inputs
    for spec in architecture.layers:
        scale = math.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, scale, size=(spec.units, fan_in)))
        biases.append(np.zeros(spec.units))
        fan_in = spec.units
    if stats is None:
        stats = _identity_stats(n_inputs)
    if stats.mean.shape != (n_inputs,) or stats.std.shape != (n_inputs,):
        raise ValidationError(
            f"stats: expected shape ({n_inputs},) arrays, got "
            f"{stats.mean.shape} and {stats.std.shape}"
        )
    return NetworkParams(architecture, weights, biases, stats)


def _layer(
    a: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """relu(a @ w.T + b) (or without the relu), into `out` when given."""
    z = np.matmul(a, w.T, out=out)
    z += b
    if relu:
        np.maximum(z, 0.0, out=z)
    return z


def _forward_scaled(net: NetworkParams, rows: np.ndarray) -> np.ndarray:
    """Predictions for raw rows, _SCORE_BLOCK rows at a time, each block
    standardized into one reused buffer."""
    n = len(rows)
    layers = net.architecture.layers
    block = min(n, _SCORE_BLOCK)
    scaled = np.empty((block, net.n_inputs))
    acts = [np.empty((block, spec.units)) for spec in layers]
    out = np.empty(n)
    for start in range(0, n, _SCORE_BLOCK):
        m = min(n - start, _SCORE_BLOCK)
        a = standardize(rows[start : start + m], net.stats, out=scaled[:m])
        for spec, w, b, buf in zip(layers, net.weights, net.biases, acts):
            a = _layer(a, w, b, spec.activation == "relu", out=buf[:m])
        out[start : start + m] = a[:, 0]
    return out


def forward(net: NetworkParams, batch: np.ndarray) -> np.ndarray | float:
    """Predictions for one raw feature row (returns float) or a matrix."""
    return predict_rows(lambda X: _forward_scaled(net, X), batch, net.n_inputs, "batch")


class _Workspace:
    """The buffers of `_backward_scaled` for batches of up to `rows` rows."""

    def __init__(self, net: NetworkParams, rows: int) -> None:
        layers = net.architecture.layers
        self.acts = [np.empty((rows, spec.units)) for spec in layers]
        width = max((spec.units for spec in layers if spec.activation == "relu"), default=0)
        self.mask = np.empty(rows * width, dtype=bool)
        self.residual = np.empty(rows)
        self.grads_w = [np.empty_like(w) for w in net.weights]


def _backward_scaled(
    net: NetworkParams, scaled: np.ndarray, targets: np.ndarray, ws: _Workspace
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Gradients and residuals of one batch, computed in `ws`'s buffers.

    The weight gradients and the residual are `ws`'s own arrays, valid
    until its next use; `scaled` is only read.
    """
    m = len(targets)
    layers = net.architecture.layers
    acts = [scaled] + [buf[:m] for buf in ws.acts]
    for l, (spec, w, b) in enumerate(zip(layers, net.weights, net.biases)):
        _layer(acts[l], w, b, spec.activation == "relu", out=acts[l + 1])
    residual = np.subtract(acts[-1][:, 0], targets, out=ws.residual[:m])
    # d(mean |r|)/d(pred): sign(r)/n, with sign(0) = 0; the spent output holds it
    delta = acts[-1]
    np.sign(residual, out=delta[:, 0])
    delta /= m
    grads_w = ws.grads_w
    grads_b: list[np.ndarray] = [np.empty(0)] * len(layers)
    for l in range(len(layers) - 1, -1, -1):
        np.matmul(delta.T, acts[l], out=grads_w[l])
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            # acts[l] is spent once its mask is taken, so it receives delta @ W[l]
            relu = layers[l - 1].activation == "relu"
            if relu:
                # relu(z) > 0 exactly where z > 0
                mask = ws.mask[: acts[l].size].reshape(acts[l].shape)
                np.greater(acts[l], 0.0, out=mask)
            # a 1-unit layer's delta @ W[l] has inner dimension 1: one product per cell
            product = np.multiply if delta.shape[1] == 1 else np.matmul
            delta = product(delta, net.weights[l], out=acts[l])
            if relu:
                delta *= mask
    return grads_w, grads_b, residual


def backward(
    net: NetworkParams, batch: np.ndarray, targets: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """MAE-loss gradients for every weight and bias, averaged over the batch."""
    X = check_width(batch, net.n_inputs, "batch")
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (X.shape[0],) or X.shape[0] == 0:
        raise ValidationError(
            f"targets: expected shape ({X.shape[0]},), got {y.shape}"
        )
    ws = _Workspace(net, len(y))
    return _backward_scaled(net, standardize(X, net.stats), y, ws)[:2]


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m_weights: list[np.ndarray]
    v_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_biases: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_network(cls, net: NetworkParams) -> "AdamState":
        return cls(
            [np.zeros_like(w) for w in net.weights],
            [np.zeros_like(w) for w in net.weights],
            [np.zeros_like(b) for b in net.biases],
            [np.zeros_like(b) for b in net.biases],
        )


def adam_step(
    net: NetworkParams,
    state: AdamState,
    grads_w: Sequence[np.ndarray],
    grads_b: Sequence[np.ndarray],
    lr: float,
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update with the ADAM_* constants. Mutates net and state in place.

    Per parameter p, in this operation order:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= lr*(m/c1) / (sqrt(v/c2) + eps). The temporaries go through two
    scratch buffers sized to the largest parameter.
    """
    check_fields({"lr": POSITIVE}, lr=lr)
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    scratch = np.empty((2, max(p.size for p in (*net.weights, *net.biases))))
    for params, moments1, moments2, grads in (
        (net.weights, state.m_weights, state.v_weights, grads_w),
        (net.biases, state.m_biases, state.v_biases, grads_b),
    ):
        for p, m, v, g in zip(params, moments1, moments2, grads):
            step = scratch[0, : p.size].reshape(p.shape)
            root = scratch[1, : p.size].reshape(p.shape)
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=step)
            v *= ADAM_BETA2
            np.multiply(g, g, out=root)
            root *= 1.0 - ADAM_BETA2
            v += root
            np.divide(m, c1, out=step)
            step *= lr
            np.divide(v, c2, out=root)
            np.sqrt(root, out=root)
            root += ADAM_EPSILON
            step /= root
            p -= step
    return net, state


_TRAIN_RULES = {
    "initial_lr": scalar_rule(POSITIVE),
    "plateau_factor": scalar_rule((lambda v: 0 < v < 1, "must lie in (0, 1)")),
    "plateau_patience": integer_rule(1),
    "min_lr": scalar_rule(POSITIVE),
    "early_stop_patience": integer_rule(1),
    "max_epochs": integer_rule(0),
    "batch_size": integer_rule(1),
    "seed": SEED,
}


@dataclass(frozen=True)
class MlpTrainConfig:
    initial_lr: float = 0.01
    plateau_factor: float = 0.1
    plateau_patience: int = 10
    min_lr: float = 1e-6
    early_stop_patience: int = 150
    max_epochs: int = 1000
    batch_size: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(_TRAIN_RULES, **vars(self))
        if self.min_lr > self.initial_lr:
            raise ValidationError(
                f"min_lr: must lie in (0, initial_lr], got {self.min_lr!r}"
            )


class EpochRecord(NamedTuple):
    epoch: int  # 1-based
    lr: float
    train_mae: float  # mean |residual| of the epoch's batches, each before its update
    val_mae: float  # at the end-of-epoch weights


def reduce_lr_on_plateau(val_history: Sequence[float], config: MlpTrainConfig) -> float:
    """Learning rate implied by a validation-loss history.

    Stateless: replays the history, cutting the rate by plateau_factor
    each time `plateau_patience` consecutive epochs fail to improve on
    the best loss seen so far, flooring at min_lr. An empty history
    gives initial_lr.
    """
    best = math.inf
    stagnant = 0
    cuts = 0
    for loss in val_history:
        if loss < best:
            best = loss
            stagnant = 0
        else:
            stagnant += 1
            if stagnant == config.plateau_patience:
                cuts += 1
                stagnant = 0
    return max(config.initial_lr * config.plateau_factor**cuts, config.min_lr)


_DIVERGENCE_CEILING = 1e12


def train_mlp(
    train: Dataset,
    val: Dataset,
    architecture: Architecture,
    config: MlpTrainConfig,
) -> tuple[NetworkParams, list[EpochRecord]]:
    """Mini-batch Adam training with plateau decay and best-epoch restore.

    Returns the parameters of the best validation epoch (the freshly
    initialized network when max_epochs is 0) plus the per-epoch log.
    """
    check_fit_pair(train, val)
    stats = fit_feature_stats(train.features)
    net = init_network(architecture, train.features.shape[1], config.seed, stats)
    y_train = train.targets
    y_val = val.targets
    state = AdamState.for_network(net)
    shuffle_rng = seeded_rng(config.seed, (1,))

    best_weights, best_biases = net.copy_arrays()
    best_val = math.inf
    best_epoch = 0
    history: list[EpochRecord] = []
    n = len(y_train)
    rows = min(n, config.batch_size)
    ws = _Workspace(net, rows)
    inputs = np.empty((rows, net.n_inputs))
    # a diverging run overflows on the way; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            lr = reduce_lr_on_plateau([rec.val_mae for rec in history], config)
            order = shuffle_rng.permutation(n)
            abs_residual_sum = 0.0
            for start in range(0, n, config.batch_size):
                batch = order[start : start + config.batch_size]
                scaled = np.take(train.features, batch, axis=0, out=inputs[: len(batch)])
                standardize(scaled, stats, out=scaled)
                grads_w, grads_b, residual = _backward_scaled(net, scaled, y_train[batch], ws)
                abs_residual_sum += float(np.abs(residual).sum())
                adam_step(net, state, grads_w, grads_b, lr)
            train_mae = abs_residual_sum / n
            val_mae = float(np.mean(np.abs(_forward_scaled(net, val.features) - y_val)))
            if not (
                math.isfinite(train_mae)
                and math.isfinite(val_mae)
                and max(train_mae, val_mae) < _DIVERGENCE_CEILING
            ):
                raise DivergenceError(
                    f"training diverged at epoch {epoch}: "
                    f"train MAE {train_mae!r}, val MAE {val_mae!r}",
                    epoch=epoch,
                )
            history.append(EpochRecord(epoch, lr, train_mae, val_mae))
            if val_mae < best_val:
                best_val = val_mae
                best_epoch = epoch
                best_weights, best_biases = net.copy_arrays()
            if epoch - best_epoch >= config.early_stop_patience:
                break
    net.weights = best_weights
    net.biases = best_biases
    return net, history
