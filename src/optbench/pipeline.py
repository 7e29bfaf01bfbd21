"""The benchmark's comparison as library calls: load, parts, fit, predict, baselines.

`load` reads a dataset CSV and keeps its usable quotes, `parts` splits
them by a `SplitSpec`, `fit` trains one model kind on the train part
while monitoring val, `predict` scores feature rows and `baselines`
reprices quote rows in closed form. The `optbench` commands are
adapters over these calls, so a script that makes the same calls gets
the same predictions bit for bit, and keeps the per-quote errors:

    from optbench import Dataset, GbdtConfig, SplitSpec, pipeline

    result, digest = pipeline.load("run/dataset.csv")
    rows = pipeline.parts(result.kept, SplitSpec(seed=42))
    train, val, test = (Dataset.from_quotes(part) for part in rows)
    model, records = pipeline.fit("gbdt10", train, val, GbdtConfig(max_depth=10))
    errors = pipeline.predict(model, test.features) - test.targets
"""

from __future__ import annotations

import dataclasses
import logging
from pathlib import Path

import numpy as np

from .blackscholes import VOL_FLOOR, bs_prices
from .core import (
    LAG_COLUMNS,
    QUOTE_COLUMNS,
    Dataset,
    FilterResult,
    SplitSpec,
    filter_quotes,
    split_indices,
)
from .errors import ValidationError
from .gbdt import GbdtConfig, TreeEnsemble, predict_gbdt, train_gbdt
from .ingest import read_csv
from .mlp import FIVE_LAYER, THREE_LAYER, MlpTrainConfig, forward, train_mlp
from .simgen import realized_vol

logger = logging.getLogger(__name__)

# model kind -> (family, what the kind fixes: a GBDT's max_depth or a
# network's architecture); a family names its config class and section
KINDS = {
    "gbdt5": ("gbdt", 5),
    "gbdt10": ("gbdt", 10),
    "mlp3": ("mlp", THREE_LAYER),
    "mlp5": ("mlp", FIVE_LAYER),
}
CONFIGS = {"gbdt": GbdtConfig, "mlp": MlpTrainConfig}


def load(path: str | Path) -> tuple[FilterResult, str]:
    """The usable quotes of a dataset CSV, and the sha256 of its bytes, from
    one read; a file with no usable quotes is a ValidationError."""
    quotes, digest = read_csv(path, with_digest=True)
    result = filter_quotes(quotes)
    if result.dropped_count:
        logger.warning(
            "dropped %d of %d quotes: %s", result.dropped_count, len(quotes), result.by_reason
        )
    if len(result.kept) == 0:
        raise ValidationError(f"{path}: no usable quotes after filtering")
    return result, digest


def parts(kept: np.ndarray, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (train, val, test) quote rows of the kept quotes under `spec`."""
    return tuple(kept[idx] for idx in split_indices(len(kept), spec))


def identity(digest: str, spec: SplitSpec) -> dict:
    """What ties a model to its data: the dataset file's sha256 and the split."""
    return {"dataset_digest": digest, "split": dataclasses.asdict(spec)}


def fit(kind: str, train: Dataset, val: Dataset, config: GbdtConfig | MlpTrainConfig):
    """A model of `kind` fit on `train` while monitoring `val`, and its
    per-round or per-epoch records.

    A GBDT kind takes a `GbdtConfig` whose `max_depth` is the kind's
    depth, a network kind an `MlpTrainConfig`.
    """
    if kind not in KINDS:
        raise ValidationError(f"kind: must be one of {tuple(KINDS)}, got {kind!r}")
    family, fixed = KINDS[kind]
    if not isinstance(config, CONFIGS[family]):
        raise ValidationError(f"config: {kind} takes {CONFIGS[family].__name__}, got {config!r}")
    if family == "mlp":
        return train_mlp(train, val, fixed, config)
    if config.max_depth != fixed:
        raise ValidationError(f"max_depth: {kind} needs {fixed}, got {config.max_depth!r}")
    model = train_gbdt(train, val, config)
    return model, model.history


def predict(model, features: np.ndarray) -> np.ndarray:
    """A trained model's price for each feature row."""
    return (predict_gbdt if isinstance(model, TreeEnsemble) else forward)(model, features)


def _reprice(quotes: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Closed-form prices of the quote rows under the given volatilities."""
    S, K, T, r, q, flags = (
        quotes[:, QUOTE_COLUMNS.index(name)]
        for name in ("underlying_price", "strike", "maturity_years", "rate",
                     "dividend_yield", "option_type")
    )
    return bs_prices(S, K, T, r, q, sigma, flags)


def bs_implied(quotes: np.ndarray) -> np.ndarray:
    """The quote rows repriced at each row's implied volatility."""
    vols = quotes[:, QUOTE_COLUMNS.index("implied_vol")]
    missing = int(np.sum(~np.isfinite(vols)))
    if missing:
        raise ValidationError(
            f"implied_vol: {missing} evaluation rows have no implied volatility; "
            "the repricing baseline needs it on every row"
        )
    return _reprice(quotes, vols)


def bs_realized(quotes: np.ndarray) -> np.ndarray:
    """The quote rows repriced at the realized volatility of each row's lags,
    floored at VOL_FLOOR."""
    return _reprice(quotes, np.maximum(realized_vol(quotes[:, LAG_COLUMNS]), VOL_FLOOR))


def baselines(quotes: np.ndarray) -> dict[str, np.ndarray]:
    """Each closed-form baseline's prices of the quote rows, by name."""
    return {"bs_implied": bs_implied(quotes), "bs_realized": bs_realized(quotes)}
