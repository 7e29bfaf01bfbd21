"""Canonical data model: option quotes, feature encoding, filtering, splits.

A quote is one observed European option with its market midpoint and a
20-day window of underlying closes. Models never see the quote object
itself; they see the fixed 26-column feature row produced here, in this
order:

    [strike, underlying_price, rate, dividend_yield, maturity_years,
     is_call, lag_1, ..., lag_20]

is_call is 1.0 for calls and 0.0 for puts. lag_1 is the most recent
close before the quote date, lag_20 the oldest. The implied volatility,
when known, rides alongside the feature matrix but is never a model
input: it exists so the closed-form baseline can reprice the quote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

N_LAGS = 20
FEATURE_NAMES: tuple[str, ...] = (
    "strike",
    "underlying_price",
    "rate",
    "dividend_yield",
    "maturity_years",
    "is_call",
) + tuple(f"lag_{i}" for i in range(1, N_LAGS + 1))
FEATURE_COUNT = len(FEATURE_NAMES)  # 26
MAX_MIDPOINT = 100_000.0
IMPLIED_VOL_CAP = 3.0


class OptionType(Enum):
    CALL = "C"
    PUT = "P"

    @property
    def flag(self) -> float:
        """Binary feature encoding: 1.0 for a call, 0.0 for a put."""
        return 1.0 if self is OptionType.CALL else 0.0


@dataclass(frozen=True)
class OptionQuote:
    """One option quote plus the recent history of its underlying.

    Construction is lenient so that ingest can materialize rows before
    deciding what to do with bad ones; `validate()` / `violation()`
    enforce the invariants. `filter_quotes` applies the structural
    subset of those checks used to clean raw data.
    """

    underlying_price: float
    strike: float
    maturity_years: float
    rate: float
    dividend_yield: float
    option_type: OptionType
    lags: tuple[float, ...]
    midpoint: float
    implied_vol: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.option_type, OptionType):
            raise ValidationError(
                f"option_type: expected OptionType, got {self.option_type!r}"
            )
        object.__setattr__(self, "lags", tuple(float(x) for x in self.lags))

    def drop_reason(self) -> str | None:
        """Structural defect that disqualifies this quote, or None.

        These are the checks `filter_quotes` counts drops by: positive
        underlying/strike/maturity, exactly 20 positive finite lags, and
        a midpoint inside (0, 100000).
        """
        if not (math.isfinite(self.underlying_price) and self.underlying_price > 0):
            return "underlying_price"
        if not (math.isfinite(self.strike) and self.strike > 0):
            return "strike"
        if not (math.isfinite(self.maturity_years) and self.maturity_years > 0):
            return "maturity_years"
        if not math.isfinite(self.rate):
            return "rate"
        if not math.isfinite(self.dividend_yield):
            return "dividend_yield"
        if len(self.lags) != N_LAGS or not all(
            math.isfinite(x) and x > 0 for x in self.lags
        ):
            return "lags"
        if not (math.isfinite(self.midpoint) and 0 < self.midpoint < MAX_MIDPOINT):
            return "midpoint"
        return None

    def violation(self) -> str | None:
        """First violated invariant as "field: problem", or None if valid."""
        reason = self.drop_reason()
        if reason == "lags" and len(self.lags) != N_LAGS:
            return f"lags: expected {N_LAGS} entries, got {len(self.lags)}"
        if reason == "lags":
            return "lags: every lag must be a positive finite price"
        if reason == "midpoint":
            return (
                f"midpoint: must lie in (0, {MAX_MIDPOINT:g}), "
                f"got {self.midpoint!r}"
            )
        if reason is not None:
            return f"{reason}: must be positive and finite, got {getattr(self, reason)!r}"
        if self.implied_vol is not None:
            v = self.implied_vol
            if not (math.isfinite(v) and 0 < v <= IMPLIED_VOL_CAP):
                return (
                    f"implied_vol: must lie in (0, {IMPLIED_VOL_CAP}] when present, "
                    f"got {v!r}"
                )
        return None

    def validate(self) -> None:
        problem = self.violation()
        if problem is not None:
            raise ValidationError(problem)


def encode_features(quote: OptionQuote) -> np.ndarray:
    """Encode a valid quote as the fixed 26-element float64 feature row."""
    quote.validate()
    row = np.empty(FEATURE_COUNT, dtype=np.float64)
    row[0] = quote.strike
    row[1] = quote.underlying_price
    row[2] = quote.rate
    row[3] = quote.dividend_yield
    row[4] = quote.maturity_years
    row[5] = quote.option_type.flag
    row[6:] = quote.lags
    return row


class FilterResult(NamedTuple):
    kept: list[OptionQuote]
    dropped_count: int
    by_reason: dict[str, int]


def filter_quotes(quotes: Iterable[OptionQuote]) -> FilterResult:
    """Drop structurally unusable quotes, counting drops by offending field.

    Idempotent: filtering the kept list again drops nothing.
    """
    kept: list[OptionQuote] = []
    by_reason: dict[str, int] = {}
    for q in quotes:
        reason = q.drop_reason()
        if reason is None:
            kept.append(q)
        else:
            by_reason[reason] = by_reason.get(reason, 0) + 1
    return FilterResult(kept, sum(by_reason.values()), by_reason)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with aligned targets and implied vols.

    `implied_vols` is NaN where the quote carried no implied volatility.
    `row_ids` track each row's origin through subsetting so splits can be
    audited for disjointness. Arrays are frozen on construction; the
    Dataset takes ownership of what it is given.
    """

    features: np.ndarray
    targets: np.ndarray
    implied_vols: np.ndarray
    row_ids: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        targs = np.asarray(self.targets, dtype=np.float64)
        vols = np.asarray(self.implied_vols, dtype=np.float64)
        ids = np.asarray(self.row_ids, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[1] != FEATURE_COUNT:
            raise ValidationError(
                f"features: expected shape (n, {FEATURE_COUNT}), got {feats.shape}"
            )
        n = feats.shape[0]
        for name, arr in (("targets", targs), ("implied_vols", vols), ("row_ids", ids)):
            if arr.shape != (n,):
                raise ValidationError(
                    f"{name}: expected shape ({n},), got {arr.shape}"
                )
        if n and not (
            np.all(np.isfinite(targs)) and np.all(targs > 0) and np.all(targs < MAX_MIDPOINT)
        ):
            raise ValidationError(
                f"targets: every midpoint must lie in (0, {MAX_MIDPOINT:g})"
            )
        for name, arr in (
            ("features", feats),
            ("targets", targs),
            ("implied_vols", vols),
            ("row_ids", ids),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.features.shape[0]

    @classmethod
    def from_quotes(cls, quotes: Sequence[OptionQuote]) -> "Dataset":
        n = len(quotes)
        feats = np.empty((n, FEATURE_COUNT), dtype=np.float64)
        targs = np.empty(n, dtype=np.float64)
        vols = np.empty(n, dtype=np.float64)
        for i, q in enumerate(quotes):
            feats[i] = encode_features(q)
            targs[i] = q.midpoint
            vols[i] = math.nan if q.implied_vol is None else q.implied_vol
        return cls(feats, targs, vols, np.arange(n, dtype=np.int64))

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[idx],
            self.targets[idx],
            self.implied_vols[idx],
            self.row_ids[idx],
        )

    def column(self, name: str) -> np.ndarray:
        """Column by name: any feature, "midpoint", or "implied_vol"."""
        if name == "midpoint":
            return self.targets
        if name == "implied_vol":
            return self.implied_vols
        if name in FEATURE_NAMES:
            return self.features[:, FEATURE_NAMES.index(name)]
        raise ValidationError(f"name: unknown column {name!r}")


@dataclass(frozen=True)
class SplitSpec:
    """Seeded random train/val/test partition by row fractions."""

    train_fraction: float = 0.98
    val_fraction: float = 0.01
    test_fraction: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("train_fraction", "val_fraction", "test_fraction"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0 <= v <= 1):
                raise ValidationError(f"{name}: must lie in [0, 1], got {v!r}")
        total = self.train_fraction + self.val_fraction + self.test_fraction
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(
                f"fractions must sum to 1 within 1e-12, got {total!r}"
            )
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValidationError(f"seed: must be an integer in [0, 2**64), got {self.seed!r}")


def split_indices(
    n: int, spec: SplitSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint, exhaustive (train, val, test) row indices for n rows.

    A seeded uniform permutation is cut so that val and test get
    round(n * fraction) rows each and train gets the remainder.
    """
    if n <= 0:
        raise ValidationError(f"n: need at least one row to split, got {n}")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    n_val = round(n * spec.val_fraction)
    n_test = round(n * spec.test_fraction)
    n_train = n - n_val - n_test
    if n_train < 0:
        raise ValidationError(
            f"fractions: rounded val ({n_val}) + test ({n_test}) exceed n ({n})"
        )
    return (
        perm[:n_train],
        perm[n_train : n_train + n_val],
        perm[n_train + n_val :],
    )


def split_dataset(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    train_idx, val_idx, test_idx = split_indices(len(ds), spec)
    return ds.subset(train_idx), ds.subset(val_idx), ds.subset(test_idx)
