"""Canonical data model: the quote table, its validity rule, datasets, splits.

Quotes travel as one quote table, a float64 array of shape (n, 28) whose
columns are QUOTE_COLUMNS, the column order of the dataset CSV. The
option_type column holds OptionType.flag (1.0 call, 0.0 put), and
implied_vol is NaN when unknown; lag_1 is the most recent close before
the quote date, lag_20 the oldest. QUOTE_RULE is the one validity rule
for quotes and pricing inputs, checked column by column in order.

Models never see the table itself; they see the fixed 26-column feature
row taken from it, in FEATURE_NAMES order (is_call is the option_type
flag). A Dataset is the learners' fit pair, that feature matrix and the
midpoint targets; the closed-form baselines read the quote rows
themselves.

The input rules both learners share (check_fit_pair, check_features,
predict_rows), the seed rule (SEED) and the seeded random streams
(seeded_rng) are defined here once. So is the one check of config fields
and count arguments: each config declares its rule table, a dict of field
name to (test, requirement) made from the predicates and rule helpers
here, and check_fields raises for the first field whose test fails.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
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


class Check(NamedTuple):
    """One step of the validity rule: a term, its test and what it requires."""

    name: str
    ok: Callable
    requirement: str


# A rule is a (test, requirement) pair; these are shared by pricing
# terms and config fields.
Rule = tuple[Callable, str]
POSITIVE = (is_positive, "must be positive and finite")
RATE = (is_rate, f"must be finite with |value| < {MAX_ABS_RATE}")
SEED = (lambda s: is_integer(s) and 0 <= s < 2**64, "must be an integer in [0, 2**64)")

# A quote is valid when every check passes; a bad quote is reported
# under its first failing check. A check covers the column of its name
# (see _SPANS).
QUOTE_RULE: tuple[Check, ...] = (
    Check("underlying_price", *POSITIVE),
    Check("strike", *POSITIVE),
    Check("maturity_years", *POSITIVE),
    Check("rate", *RATE),
    Check("dividend_yield", *RATE),
    Check("lags", is_positive, "every lag must be a positive finite price"),
    Check("midpoint", is_midpoint, f"must lie in (0, {MAX_MIDPOINT:g})"),
    Check("implied_vol", is_implied_vol, f"must be NaN or lie in (0, {IMPLIED_VOL_CAP:g}]"),
    Check("option_type", is_flag, "must be 1.0 (call) or 0.0 (put)"),
)
_SPANS = {name: slice(i, i + 1) for i, name in enumerate(QUOTE_COLUMNS)}
_SPANS["lags"] = LAG_COLUMNS
# Pricing terms outside the table share the predicates.
_TERMS = {
    **{c.name: (c.ok, c.requirement) for c in QUOTE_RULE},
    "sigma": POSITIVE,
    "price": POSITIVE,
}


def check_terms(**terms) -> None:
    """Raise ValidationError naming the first term with a value its check fails.

    Each value is a float or an array; the message shows the first bad
    element as a plain float.
    """
    for name, values in terms.items():
        ok, requirement = _TERMS[name]
        good = ok(values)
        # a float input gives a plain bool
        if not (good.all() if isinstance(good, np.ndarray) else good):
            bad = np.atleast_1d(values)[~np.atleast_1d(good)][0]
            raise ValidationError(f"{name}: {requirement}, got {float(bad)!r}")


def integer_rule(low: int, high: int | None = None) -> Rule:
    """The rule of an integer >= low, and <= high when high is given."""
    if high is None:
        return (lambda v: is_integer(v) and v >= low), f"must be an integer >= {low}"
    return (lambda v: is_integer(v) and low <= v <= high), f"must be an integer in [{low}, {high}]"


def _all_pass(ok: Callable, values) -> bool:
    arr = np.asarray(values)
    return arr.ndim == 1 and arr.size > 0 and bool(ok(arr).all())


def each_rule(rule: Rule) -> Rule:
    """The rule of a non-empty sequence whose every value passes `rule`."""
    ok, requirement = rule
    return (lambda v: _all_pass(ok, v)), f"need at least one value, and each {requirement}"


def check_fields(rules: dict[str, Rule], **values) -> None:
    """Raise ValidationError naming the first value that fails the rule of its name.

    `rules` maps each name to its (test, requirement). A test that raises
    TypeError or ValueError, as comparing a value of the wrong type or
    shape does, fails.
    """
    for name, value in values.items():
        ok, requirement = rules[name]
        try:
            good = bool(ok(value))
        except (TypeError, ValueError):
            good = False
        if not good:
            raise ValidationError(f"{name}: {requirement}, got {value!r}")


def check_table(quotes) -> np.ndarray:
    """The quote table as a float64 array, after checking its shape."""
    table = np.asarray(quotes, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != QUOTE_WIDTH:
        raise ValidationError(
            f"quotes: expected a table of shape (n, {QUOTE_WIDTH}), got {table.shape}"
        )
    return table


def first_violation(table: np.ndarray) -> np.ndarray:
    """Per row, the QUOTE_RULE index of its first failing check, or -1."""
    first = np.full(len(table), -1)
    for i, check in enumerate(QUOTE_RULE):
        bad = ~check.ok(table[:, _SPANS[check.name]]).all(axis=1)
        first[bad & (first < 0)] = i
    return first


class FilterResult(NamedTuple):
    kept: np.ndarray
    dropped_count: int
    by_reason: dict[str, int]


def filter_quotes(quotes) -> FilterResult:
    """Drop quotes that break the validity rule, counting each under its
    first failing check.

    Idempotent: filtering the kept table again drops nothing.
    """
    table = check_table(quotes)
    first = first_violation(table)
    counts = np.bincount(first[first >= 0], minlength=len(QUOTE_RULE))
    by_reason = {c.name: int(n) for c, n in zip(QUOTE_RULE, counts) if n}
    return FilterResult(table[first < 0], sum(by_reason.values()), by_reason)


@dataclass(frozen=True)
class Dataset:
    """The learners' fit pair: an immutable feature matrix and its aligned
    midpoint targets.

    Arrays are frozen on construction; the Dataset takes ownership of
    what it is given.
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        targs = np.asarray(self.targets, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != FEATURE_COUNT:
            raise ValidationError(
                f"features: expected shape (n, {FEATURE_COUNT}), got {feats.shape}"
            )
        if targs.shape != (len(feats),):
            raise ValidationError(
                f"targets: expected shape ({len(feats)},), got {targs.shape}"
            )
        if not is_midpoint(targs).all():
            raise ValidationError(
                f"targets: every midpoint must lie in (0, {MAX_MIDPOINT:g})"
            )
        for name, arr in (("features", feats), ("targets", targs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.features.shape[0]

    @classmethod
    def from_quotes(cls, quotes) -> "Dataset":
        """Dataset of a quote table whose every row passes QUOTE_RULE."""
        table = check_table(quotes)
        first = first_violation(table)
        bad = np.flatnonzero(first >= 0)
        if bad.size:
            row = int(bad[0])
            check = QUOTE_RULE[first[row]]
            span = _SPANS[check.name]
            j = span.start + int(np.flatnonzero(~check.ok(table[row, span]))[0])
            raise ValidationError(
                f"{check.name}: {check.requirement}; row {row} has "
                f"{QUOTE_COLUMNS[j]} = {float(table[row, j])!r}"
            )
        # np.take copies into C order, as the models expect
        return cls(
            np.take(table, FEATURE_COLUMNS, axis=1),
            np.take(table, QUOTE_COLUMNS.index("midpoint"), axis=1),
        )

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The rows at `indices`, a sequence of integer positions in [0, len(self)).

        A boolean mask or float positions would select the wrong rows
        without an error, so every non-integer dtype is refused.
        """
        idx = np.asarray(indices)
        if idx.size == 0:  # an empty list arrives as float64
            idx = idx.astype(np.int64)
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise ValidationError(
                f"indices: expected a 1-D sequence of integers, "
                f"got dtype {idx.dtype} and shape {idx.shape}"
            )
        outside = idx[(idx < 0) | (idx >= len(self))]
        if outside.size:
            raise ValidationError(
                f"indices: every position must lie in [0, {len(self)}), got {int(outside[0])}"
            )
        return Dataset(self.features[idx], self.targets[idx])


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


def check_width(rows, width: int, name: str) -> np.ndarray:
    """`rows` as a float64 matrix of `width` columns; `name` heads the error."""
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValidationError(f"{name}: expected {width} columns, got shape {X.shape}")
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


_FRACTION = (lambda v: 0 <= v <= 1, "must lie in [0, 1]")
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
                f"fractions must sum to 1 within 1e-12, got {total!r}"
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
