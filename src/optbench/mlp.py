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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import Dataset
from .errors import DivergenceError, ValidationError

ACTIVATIONS = ("relu", "linear")


@dataclass(frozen=True)
class LayerSpec:
    units: int
    activation: str

    def __post_init__(self) -> None:
        if self.units < 1:
            raise ValidationError(f"units: must be >= 1, got {self.units}")
        if self.activation not in ACTIVATIONS:
            raise ValidationError(
                f"activation: expected one of {ACTIVATIONS}, got {self.activation!r}"
            )


@dataclass(frozen=True)
class Architecture:
    """Layer stack ending in a single linear output unit."""

    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValidationError("layers: need at least one layer")
        last = self.layers[-1]
        if last.units != 1 or last.activation != "linear":
            raise ValidationError(
                f"layers: the output layer must be a single linear unit, got {last!r}"
            )


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
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError(f"features: expected a non-empty 2-D array, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValidationError("features: values must be finite")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    binary = np.all((X == 0.0) | (X == 1.0), axis=0)
    mean = np.where(binary, 0.0, mean)
    std = np.where(binary | (std == 0.0), 1.0, std)
    return FeatureStats(mean, std)


def standardize(rows: np.ndarray, stats: FeatureStats) -> np.ndarray:
    return (np.asarray(rows, dtype=np.float64) - stats.mean) / stats.std


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


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def init_network(
    architecture: Architecture,
    n_inputs: int,
    seed: int = 0,
    stats: FeatureStats | None = None,
) -> NetworkParams:
    """He-initialized network: N(0, sqrt(2/fan_in)) weights, zero biases."""
    if n_inputs < 1:
        raise ValidationError(f"n_inputs: must be >= 1, got {n_inputs}")
    rng = _rng(seed, 0)
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


def _forward_scaled(net: NetworkParams, scaled: np.ndarray) -> np.ndarray:
    a = scaled
    for spec, w, b in zip(net.architecture.layers, net.weights, net.biases):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return a[:, 0]


def forward(net: NetworkParams, batch: np.ndarray) -> np.ndarray | float:
    """Predictions for one raw feature row (returns float) or a matrix."""
    X = np.asarray(batch, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != net.n_inputs:
        raise ValidationError(
            f"batch: expected {net.n_inputs} columns, got shape {X.shape}"
        )
    out = _forward_scaled(net, standardize(X, net.stats))
    return float(out[0]) if single else out


def _backward_scaled(
    net: NetworkParams, scaled: np.ndarray, targets: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    layers = net.architecture.layers
    acts: list[np.ndarray] = [scaled]
    for spec, w, b in zip(layers, net.weights, net.biases):
        z = acts[-1] @ w.T + b
        acts.append(np.maximum(z, 0.0) if spec.activation == "relu" else z)
    residual = acts[-1][:, 0] - targets
    # d(mean |r|)/d(pred): sign(r)/n, with sign(0) = 0
    delta = (np.sign(residual) / len(targets))[:, None]
    grads_w: list[np.ndarray] = [np.empty(0)] * len(layers)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(layers)
    for l in range(len(layers) - 1, -1, -1):
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ net.weights[l]
            if layers[l - 1].activation == "relu":
                # relu(z) > 0 exactly where z > 0
                delta = delta * (acts[l] > 0.0)
    return grads_w, grads_b, residual


def backward(
    net: NetworkParams, batch: np.ndarray, targets: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """MAE-loss gradients for every weight and bias, averaged over the batch."""
    X = np.asarray(batch, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.n_inputs:
        raise ValidationError(
            f"batch: expected {net.n_inputs} columns, got shape {X.shape}"
        )
    if y.shape != (X.shape[0],) or X.shape[0] == 0:
        raise ValidationError(
            f"targets: expected shape ({X.shape[0]},), got {y.shape}"
        )
    return _backward_scaled(net, standardize(X, net.stats), y)[:2]


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
    *,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update. Mutates net and state in place."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValidationError(f"lr: must be positive and finite, got {lr!r}")
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for params, moments1, moments2, grads in (
        (net.weights, state.m_weights, state.v_weights, grads_w),
        (net.biases, state.m_biases, state.v_biases, grads_b),
    ):
        for p, m, v, g in zip(params, moments1, moments2, grads):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + epsilon)
    return net, state


@dataclass(frozen=True)
class MlpTrainConfig:
    initial_lr: float = 0.01
    plateau_factor: float = 0.1
    plateau_patience: int = 10
    min_lr: float = 1e-6
    early_stop_patience: int = 150
    max_epochs: int = 1000
    batch_size: int = 4096
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.initial_lr) and self.initial_lr > 0):
            raise ValidationError(f"initial_lr: must be > 0, got {self.initial_lr!r}")
        if not (0 < self.plateau_factor < 1):
            raise ValidationError(
                f"plateau_factor: must lie in (0, 1), got {self.plateau_factor!r}"
            )
        if self.plateau_patience < 1:
            raise ValidationError(
                f"plateau_patience: must be >= 1, got {self.plateau_patience}"
            )
        if not (0 < self.min_lr <= self.initial_lr):
            raise ValidationError(
                f"min_lr: must lie in (0, initial_lr], got {self.min_lr!r}"
            )
        if self.early_stop_patience < 1:
            raise ValidationError(
                f"early_stop_patience: must be >= 1, got {self.early_stop_patience}"
            )
        if self.max_epochs < 0:
            raise ValidationError(f"max_epochs: must be >= 0, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size: must be >= 1, got {self.batch_size}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValidationError(
                f"beta: moment decays must lie in [0, 1), got "
                f"({self.beta1!r}, {self.beta2!r})"
            )
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValidationError(f"epsilon: must be > 0, got {self.epsilon!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValidationError(
                f"seed: must be an integer in [0, 2**64), got {self.seed!r}"
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
    if len(train) == 0:
        raise ValidationError("train: need at least one row")
    if len(val) == 0:
        raise ValidationError("val: need at least one row")
    if train.features.shape[1] != val.features.shape[1]:
        raise ValidationError(
            f"val: feature arity {val.features.shape[1]} does not match "
            f"train arity {train.features.shape[1]}"
        )
    stats = fit_feature_stats(train.features)
    net = init_network(architecture, train.features.shape[1], config.seed, stats)
    scaled_train = standardize(train.features, stats)
    scaled_val = standardize(val.features, stats)
    y_train = train.targets
    y_val = val.targets
    state = AdamState.for_network(net)
    shuffle_rng = _rng(config.seed, 1)

    best_weights, best_biases = net.copy_arrays()
    best_val = math.inf
    best_epoch = 0
    history: list[EpochRecord] = []
    n = len(y_train)
    for epoch in range(1, config.max_epochs + 1):
        lr = reduce_lr_on_plateau([rec.val_mae for rec in history], config)
        order = shuffle_rng.permutation(n)
        abs_residual_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            grads_w, grads_b, residual = _backward_scaled(net, scaled_train[batch], y_train[batch])
            abs_residual_sum += float(np.abs(residual).sum())
            adam_step(
                net,
                state,
                grads_w,
                grads_b,
                lr,
                beta1=config.beta1,
                beta2=config.beta2,
                epsilon=config.epsilon,
            )
        train_mae = abs_residual_sum / n
        val_mae = float(np.mean(np.abs(_forward_scaled(net, scaled_val) - y_val)))
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
