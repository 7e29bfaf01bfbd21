"""Canonical data model: the quote table, its validity rule, datasets, splits.

Quotes travel as one quote table, a float64 array of shape (n, 28) whose
columns are QUOTE_COLUMNS, the column order of the dataset CSV. The
option_type column holds OptionType.flag (1.0 call, 0.0 put), and
implied_vol is NaN when unknown; lag_1 is the most recent close before
the quote date, lag_20 the oldest. QUOTE_RULE is the one validity rule
for quotes, a table of term name to rule checked in order; TERM_RULES
adds the pricing terms outside the table (sigma, price).

Models never see the table itself; they see the fixed 26-column feature
row taken from it, in FEATURE_NAMES order (is_call is the option_type
flag). A Dataset is the learners' fit pair, that feature matrix and the
midpoint targets; the closed-form baselines read the quote rows
themselves.

The width rule of every matrix (check_width: the quote table, a
Dataset's features, a model's input rows), the input rules both
learners share (check_fit_pair, check_features, predict_rows), the
row-position rule of `Dataset.subset` and `write_csv(rows=)`
(check_positions), the seed rule (SEED) and the seeded random streams
(seeded_rng) are defined here once. So are the
one rule form and its one checker: a rule is a (test, requirement)
pair, every rule table (the quote rule, the pricing terms, each
config's fields, count arguments) maps names to rules, and check_fields
raises for the first value whose test fails. The pricing terms take
arrays; a config's number fields take their rules through scalar_rule,
which refuses an array of one or more dimensions whatever its elements.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError

N_LAGS = 20
LAG_NAMES: tuple[str, ...] = tuple(f"lag_{i}" for i in range(1, N_LAGS + 1))
QUOTE_COLUMNS: tuple[str, ...] = (
    ("option_type", "strike", "underlying_price", "rate", "dividend_yield",
     "maturity_years", "implied_vol")
    + LAG_NAMES
    + ("midpoint",)
)
QUOTE_WIDTH = len(QUOTE_COLUMNS)  # 28
FEATURE_NAMES: tuple[str, ...] = (
    "strike", "underlying_price", "rate", "dividend_yield", "maturity_years", "is_call",
) + LAG_NAMES
FEATURE_COUNT = len(FEATURE_NAMES)  # 26
# table column of each feature; is_call is the option_type flag
FEATURE_COLUMNS = [
    QUOTE_COLUMNS.index("option_type" if name == "is_call" else name)
    for name in FEATURE_NAMES
]
LAG_COLUMNS = slice(QUOTE_COLUMNS.index("lag_1"), QUOTE_COLUMNS.index("lag_20") + 1)
MAX_MIDPOINT = 100_000.0
IMPLIED_VOL_CAP = 3.0
MAX_ABS_RATE = 1.0


class OptionType(Enum):
    CALL = "C"
    PUT = "P"

    @property
    def flag(self) -> float:
        """Binary feature encoding: 1.0 for a call, 0.0 for a put."""
        return 1.0 if self is OptionType.CALL else 0.0


# Elementwise predicates; each takes a float or an array. Comparisons
# with NaN are false, so every bound also rejects NaN.
def is_positive(x):
    return (x > 0) & (x < math.inf)


def is_rate(x):
    return abs(x) < MAX_ABS_RATE


def is_midpoint(x):
    return (x > 0) & (x < MAX_MIDPOINT)


def is_implied_vol(x):
    return np.isnan(x) | ((x > 0) & (x <= IMPLIED_VOL_CAP))


def is_flag(x):
    return (x == 0.0) | (x == 1.0)


def is_integer(x) -> bool:
    """An integer that is not a bool; numpy integers count."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


# A rule is a (test, requirement) pair; a rule table maps names to rules.
Rule = tuple[Callable, str]
POSITIVE = (is_positive, "must be positive and finite")
RATE = (is_rate, f"must be finite with |value| < {MAX_ABS_RATE}")
FINITE = (np.isfinite, "must be finite")
SEED = (lambda s: is_integer(s) and 0 <= s < 2**64, "must be an integer in [0, 2**64)")

# A quote is valid when every rule passes; a bad quote is reported
# under its first failing rule. A rule covers the column of its name
# (see _SPANS).
QUOTE_RULE: dict[str, Rule] = {
    "underlying_price": POSITIVE,
    "strike": POSITIVE,
    "maturity_years": POSITIVE,
    "rate": RATE,
    "dividend_yield": RATE,
    "lags": (is_positive, "every lag must be a positive finite price"),
    "midpoint": (is_midpoint, f"must lie in (0, {MAX_MIDPOINT:g})"),
    "implied_vol": (is_implied_vol, f"must be NaN or lie in (0, {IMPLIED_VOL_CAP:g}]"),
    "option_type": (is_flag, "must be 1.0 (call) or 0.0 (put)"),
}
_SPANS = {name: slice(i, i + 1) for i, name in enumerate(QUOTE_COLUMNS)}
_SPANS["lags"] = LAG_COLUMNS
# Pricing terms outside the table share the predicates.
TERM_RULES = {**QUOTE_RULE, "sigma": POSITIVE, "price": POSITIVE}


def integer_rule(low: int, high: int | None = None) -> Rule:
    """The rule of an integer >= low, and <= high when high is given."""
    if high is None:
        return (lambda v: is_integer(v) and v >= low), f"must be an integer >= {low}"
    return (lambda v: is_integer(v) and low <= v <= high), f"must be an integer in [{low}, {high}]"


def scalar_rule(rule: Rule) -> Rule:
    """`rule` for a single value: an array of one or more dimensions fails it."""
    ok, requirement = rule
    return (lambda v: np.ndim(v) == 0 and ok(v)), f"{requirement}, as one number"


def _all_pass(ok: Callable, values) -> bool:
    arr = np.asarray(values)
    return arr.ndim == 1 and arr.size > 0 and bool(ok(arr).all())


def each_rule(rule: Rule) -> Rule:
    """The rule of a non-empty sequence whose every value passes `rule`."""
    ok, requirement = rule
    return (lambda v: _all_pass(ok, v)), f"need at least one value, and each {requirement}"


def check_fields(rules: dict[str, Rule], **values) -> None:
    """Raise ValidationError naming the first value that fails the rule of its name.

    `rules` maps each name to its (test, requirement). A value is a
    float, an array or any config value; a test that gives an array
    passes when every element passes, and a test that raises TypeError
    or ValueError, as comparing a value of the wrong type or shape
    does, fails. The message shows an array or numpy scalar that the
    test judged element by element by its first bad element, as a plain
    float, and any other value by its repr.
    """
    for name, value in values.items():
        ok, requirement = rules[name]
        try:
            good = ok(value)
            # a float input gives a plain bool
            if good.all() if isinstance(good, np.ndarray) else good:
                continue
            if isinstance(value, (np.ndarray, np.generic)) and np.shape(good) == np.shape(value):
                value = float(np.asarray(value)[~np.asarray(good)][0])
        except (TypeError, ValueError):
            pass
        raise ValidationError(f"{name}: {requirement}, got {value!r}")


def check_width(rows, width: int, name: str) -> np.ndarray:
    """`rows` as a float64 matrix of `width` columns; `name` heads the error."""
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValidationError(f"{name}: expected {width} columns, got shape {X.shape}")
    return X


def first_violation(table: np.ndarray) -> np.ndarray:
    """Per row, the QUOTE_RULE index of its first failing rule, or -1."""
    first = np.full(len(table), -1)
    for i, (name, (ok, _)) in enumerate(QUOTE_RULE.items()):
        bad = ~ok(table[:, _SPANS[name]]).all(axis=1)
        first[bad & (first < 0)] = i
    return first


class FilterResult(NamedTuple):
    """The kept rows, the number dropped and that number per first failing rule.

    `kept` is the checked table itself when no row is dropped, and a
    copy of the passing rows otherwise.
    """

    kept: np.ndarray
    dropped_count: int
    by_reason: dict[str, int]


def filter_quotes(quotes) -> FilterResult:
    """Drop quotes that break the validity rule, counting each under its
    first failing rule.

    Idempotent: filtering the kept table again drops nothing. When no row
    is dropped, `kept` is the checked table itself (for a float64 input,
    the caller's own array), not a copy.
    """
    table = check_width(quotes, QUOTE_WIDTH, "quotes")
    first = first_violation(table)
    counts = np.bincount(first[first >= 0], minlength=len(QUOTE_RULE))
    by_reason = {name: int(n) for name, n in zip(QUOTE_RULE, counts) if n}
    dropped = sum(by_reason.values())
    return FilterResult(table[first < 0] if dropped else table, dropped, by_reason)


@dataclass(frozen=True, eq=False)
class Dataset:
    """The learners' fit pair: an immutable feature matrix and its aligned
    midpoint targets.

    Arrays are frozen on construction, and the Dataset owns them: it
    takes what it is given and copies an array that does not own its
    memory (a view), whose base could still be written. So no one edits
    them in place afterwards, and work derived from them (as
    `train_gbdt`'s binning) is kept on the Dataset for its lifetime.
    Equality and hashing are by identity: two Datasets of equal arrays
    are not equal, and a Dataset can be a set member or dict key.
    """

    features: np.ndarray
    targets: np.ndarray
    # gbdt's binnings of `features` by n_bins (gbdt._binning)
    _binnings: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        feats = check_width(self.features, FEATURE_COUNT, "features")
        targs = np.asarray(self.targets, dtype=np.float64)
        if targs.shape != (len(feats),):
            raise ValidationError(
                f"targets: expected shape ({len(feats)},), got {targs.shape}"
            )
        check_fields({"targets": QUOTE_RULE["midpoint"]}, targets=targs)
        for name, arr in (("features", feats), ("targets", targs)):
            if not arr.flags.owndata:
                arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.features.shape[0]

    @classmethod
    def from_quotes(cls, quotes) -> "Dataset":
        """Dataset of a quote table whose every row passes QUOTE_RULE."""
        table = check_width(quotes, QUOTE_WIDTH, "quotes")
        first = first_violation(table)
        bad = np.flatnonzero(first >= 0)
        if bad.size:
            row = int(bad[0])
            name, (ok, requirement) = list(QUOTE_RULE.items())[first[row]]
            span = _SPANS[name]
            j = span.start + int(np.flatnonzero(~ok(table[row, span]))[0])
            raise ValidationError(
                f"{name}: {requirement}; row {row} has "
                f"{QUOTE_COLUMNS[j]} = {float(table[row, j])!r}"
            )
        # np.take copies into C order, as the models expect
        return cls(
            np.take(table, FEATURE_COLUMNS, axis=1),
            np.take(table, QUOTE_COLUMNS.index("midpoint"), axis=1),
        )

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The rows at `indices`, integer positions in [0, len(self)) (see check_positions)."""
        idx = check_positions(indices, len(self), "indices")
        return Dataset(self.features[idx], self.targets[idx])


def check_positions(indices, n: int, name: str) -> np.ndarray:
    """`indices` as a 1-D integer array of row positions in [0, n).

    A boolean mask or float positions would select the wrong rows
    without an error, so every non-integer dtype is refused; `name`
    heads the error.
    """
    idx = np.asarray(indices)
    if idx.size == 0:  # an empty list arrives as float64
        idx = idx.astype(np.int64)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValidationError(
            f"{name}: expected a 1-D sequence of integers, "
            f"got dtype {idx.dtype} and shape {idx.shape}"
        )
    outside = idx[(idx < 0) | (idx >= n)]
    if outside.size:
        raise ValidationError(
            f"{name}: every position must lie in [0, {n}), got {int(outside[0])}"
        )
    return idx


def check_fit_pair(train: Dataset, val: Dataset) -> None:
    """The input rule of both learners: non-empty train and val sets (a Dataset has 26 columns)."""
    if len(train) == 0:
        raise ValidationError("train: need at least one row")
    if len(val) == 0:
        raise ValidationError("val: need at least one row")


def check_features(features) -> np.ndarray:
    """A non-empty 2-D feature matrix of finite values, as float64."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError(f"features: expected a non-empty 2-D array, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValidationError("features: all values must be finite")
    return X


def predict_rows(predict: Callable, rows, width: int, name: str):
    """`predict` of a matrix of `width` columns; a 1-D `rows` is one row and gives a float."""
    X = np.asarray(rows, dtype=np.float64)
    single = X.ndim == 1
    out = predict(check_width(X[None, :] if single else X, width, name))
    return float(out[0]) if single else out


def seeded_rng(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """The independent generator that `spawn_key` names under `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


_FRACTION = scalar_rule((lambda v: 0 <= v <= 1, "must lie in [0, 1]"))
_SPLIT_RULES = {
    "train_fraction": _FRACTION,
    "val_fraction": _FRACTION,
    "test_fraction": _FRACTION,
    "seed": SEED,
}


@dataclass(frozen=True)
class SplitSpec:
    """Seeded random train/val/test partition by row fractions."""

    train_fraction: float = 0.98
    val_fraction: float = 0.01
    test_fraction: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(_SPLIT_RULES, **vars(self))
        total = self.train_fraction + self.val_fraction + self.test_fraction
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(
                "train_fraction, val_fraction, test_fraction: "
                f"must sum to 1 within 1e-12, got {total!r}"
            )


def split_indices(
    n: int, spec: SplitSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint, exhaustive (train, val, test) row indices for n rows.

    A seeded uniform permutation is cut so that val and test get
    round(n * fraction) rows each and train gets the remainder.
    """
    check_fields({"n": integer_rule(1)}, n=n)
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    n_val = round(n * spec.val_fraction)
    n_test = round(n * spec.test_fraction)
    n_train = n - n_val - n_test
    if n_train < 0:
        raise ValidationError(
            "val_fraction, test_fraction: "
            f"rounded val ({n_val}) + test ({n_test}) exceed n ({n})"
        )
    return (
        perm[:n_train],
        perm[n_train : n_train + n_val],
        perm[n_train + n_val :],
    )


def split_dataset(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    train_idx, val_idx, test_idx = split_indices(len(ds), spec)
    return ds.subset(train_idx), ds.subset(val_idx), ds.subset(test_idx)
