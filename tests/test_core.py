import dataclasses
import math
import re

import numpy as np
import pytest

from optbench import (
    THREE_LAYER,
    Architecture,
    Dataset,
    GbdtConfig,
    LayerSpec,
    MlpTrainConfig,
    SimConfig,
    SplitSpec,
    ValidationError,
    filter_quotes,
    fit_feature_stats,
    generate_dataset,
    forward,
    init_network,
    predict_gbdt,
    quantize_features,
    split_dataset,
    split_indices,
    train_gbdt,
    train_mlp,
)
from optbench.core import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    QUOTE_COLUMNS,
    QUOTE_RULE,
    QUOTE_WIDTH,
    TERM_RULES,
    check_fields,
    check_width,
    first_violation,
)

from conftest import make_dataset, make_quote, make_quotes, traced_peak


def reason(row: np.ndarray) -> str | None:
    """Name of the first check a one-row table fails, or None."""
    i = first_violation(row)[0]
    return None if i < 0 else list(QUOTE_RULE)[i]


class TestOptionQuote:
    """One quote row under the validity rule."""

    def test_valid_quote_has_no_violation(self, quote):
        assert reason(quote) is None
        assert len(Dataset.from_quotes(quote)) == 1

    def test_nineteen_lags_rejected(self):
        # a table without all 20 lag columns has the wrong shape everywhere
        short = np.delete(make_quote(), QUOTE_COLUMNS.index("lag_20"), axis=1)
        width = QUOTE_WIDTH
        message = re.escape(f"quotes: expected {width} columns, got shape (1, {width - 1})")
        for fn in (lambda q: check_width(q, width, "quotes"), filter_quotes, Dataset.from_quotes):
            with pytest.raises(ValidationError, match=message):
                fn(short)
        with pytest.raises(ValidationError, match="quotes"):
            check_width(np.ones(QUOTE_WIDTH), QUOTE_WIDTH, "quotes")

    def test_nonpositive_lag_rejected(self):
        assert reason(make_quote(lags=(0.0,) + (100.0,) * 19)) == "lags"
        assert reason(make_quote(lags=(100.0,) * 19 + (math.inf,))) == "lags"

    def test_midpoint_bounds(self):
        assert reason(make_quote(midpoint=100_000.0)) == "midpoint"
        assert reason(make_quote(midpoint=0.0)) == "midpoint"
        assert reason(make_quote(midpoint=math.nan)) == "midpoint"
        assert reason(make_quote(midpoint=99_999.99)) is None
        assert reason(make_quote(midpoint=0.015)) is None

    def test_implied_vol_range(self):
        assert reason(make_quote(implied_vol=3.0)) is None
        assert reason(make_quote(implied_vol=3.0001)) == "implied_vol"
        assert reason(make_quote(implied_vol=0.0)) == "implied_vol"
        assert reason(make_quote(implied_vol=math.inf)) == "implied_vol"
        assert reason(make_quote(implied_vol=math.nan)) is None

    def test_negative_terms_rejected(self):
        assert reason(make_quote(strike=-1.0)) == "strike"
        assert reason(make_quote(underlying_price=0.0)) == "underlying_price"
        assert reason(make_quote(maturity_years=0.0)) == "maturity_years"
        assert reason(make_quote(rate=math.nan)) == "rate"
        assert reason(make_quote(rate=1.5)) == "rate"
        assert reason(make_quote(dividend_yield=-1.0)) == "dividend_yield"
        assert reason(make_quote(rate=-0.999)) is None

    def test_option_type_must_be_enum(self):
        # the option_type column holds OptionType.flag: 1.0 or 0.0, nothing else
        assert reason(make_quote(option_type=0.0)) is None
        assert reason(make_quote(option_type=0.5)) == "option_type"
        with pytest.raises(ValidationError, match="option_type"):
            Dataset.from_quotes(make_quote(option_type=2.0))

    def test_first_failing_check_is_the_reason(self):
        # checks run in QUOTE_RULE order; the first failure names the row
        row = make_quote(strike=0.0, implied_vol=5.0, midpoint=-1.0)
        assert reason(row) == "strike"
        assert list(QUOTE_RULE) == [
            "underlying_price", "strike", "maturity_years", "rate", "dividend_yield",
            "lags", "midpoint", "implied_vol", "option_type",
        ]

    def test_check_fields_names_term_and_plain_value(self):
        with pytest.raises(ValidationError) as exc:
            check_fields(TERM_RULES, strike=np.array([90.0, -2.5, -3.0]))
        assert str(exc.value) == "strike: must be positive and finite, got -2.5"
        with pytest.raises(ValidationError, match="rate: .* got 1.5$"):
            check_fields(TERM_RULES, rate=np.float64(1.5))
        check_fields(TERM_RULES, rate=0.5, sigma=np.array([0.1, 0.2]))

    @pytest.mark.parametrize(
        "value, shown",
        [
            # a 0-d array and a numpy integer show as a plain float
            (np.array(-1.0), "-1.0"),
            (np.int64(-3), "-3.0"),
            # a value that is not numpy keeps its repr; comparing these
            # with 0 raises TypeError, so the test fails
            ((1.0, 2.0), "(1.0, 2.0)"),
            ("90", "'90'"),
        ],
        ids=["0-d-array", "numpy-int", "tuple", "string"],
    )
    def test_check_fields_shows_the_value(self, value, shown):
        with pytest.raises(ValidationError) as exc:
            check_fields(TERM_RULES, strike=value)
        assert str(exc.value) == f"strike: must be positive and finite, got {shown}"

    def test_dataset_names_first_bad_target(self):
        with pytest.raises(ValidationError) as exc:
            Dataset(np.ones((3, FEATURE_COUNT)), np.array([1.0, 0.0, -1.0]))
        assert str(exc.value) == "targets: must lie in (0, 100000), got 0.0"


class TestEncodeFeatures:
    """The feature rows Dataset.from_quotes takes from the quote table."""

    def test_call_layout(self):
        lags = tuple(100.0 + i for i in range(20))
        q = make_quote(
            underlying_price=100.0,
            strike=90.0,
            rate=0.02,
            dividend_yield=0.01,
            maturity_years=0.5,
            option_type=1.0,
            lags=lags,
        )
        row = Dataset.from_quotes(q).features[0]
        assert row.shape == (FEATURE_COUNT,)
        assert row[0] == 90.0
        assert row[1] == 100.0
        assert row[2] == 0.02
        assert row[3] == 0.01
        assert row[4] == 0.5
        assert row[5] == 1.0
        assert tuple(row[6:]) == lags

    def test_put_flag_is_zero(self):
        row = Dataset.from_quotes(make_quote(option_type=0.0)).features[0]
        assert row[5] == 0.0

    def test_implied_vol_not_encoded(self):
        a = Dataset.from_quotes(make_quote(implied_vol=0.2))
        b = Dataset.from_quotes(make_quote(implied_vol=1.7))
        assert np.array_equal(a.features, b.features)

    def test_invalid_quote_raises(self):
        quotes = make_quotes(make_quote(), make_quote(midpoint=-3.0))
        with pytest.raises(ValidationError) as exc:
            Dataset.from_quotes(quotes)
        assert str(exc.value) == "midpoint: must lie in (0, 100000); row 1 has midpoint = -3.0"
        with pytest.raises(ValidationError, match="row 0 has lag_2 = -1.0$"):
            Dataset.from_quotes(make_quote(lags=(100.0, -1.0) + (100.0,) * 18))
        with pytest.raises(ValidationError, match="row 0 has rate = 1.5$"):
            Dataset.from_quotes(make_quote(rate=1.5))

    def test_feature_names_align(self):
        assert FEATURE_NAMES[0] == "strike"
        assert FEATURE_NAMES[5] == "is_call"
        assert FEATURE_NAMES[6] == "lag_1"
        assert FEATURE_NAMES[-1] == "lag_20"
        assert len(FEATURE_NAMES) == FEATURE_COUNT == 26
        assert QUOTE_COLUMNS[0] == "option_type" and QUOTE_COLUMNS[-1] == "midpoint"
        assert len(QUOTE_COLUMNS) == QUOTE_WIDTH == 28


class TestFilterQuotes:
    def test_empty_input(self):
        kept, dropped, by_reason = filter_quotes(make_quotes())
        assert kept.shape == (0, QUOTE_WIDTH) and dropped == 0 and by_reason == {}

    def test_drops_counted_by_reason(self):
        quotes = make_quotes(
            make_quote(),
            make_quote(midpoint=100_000.0),
            make_quote(maturity_years=-1.0),
            make_quote(lags=(50.0,) * 19 + (0.0,)),
            make_quote(lags=(math.nan,) + (50.0,) * 19),
            make_quote(implied_vol=5.0),
            make_quote(rate=1.5),
        )
        kept, dropped, by_reason = filter_quotes(quotes)
        assert np.array_equal(kept, quotes[:1])
        assert dropped == 6
        assert by_reason == {
            "midpoint": 1, "maturity_years": 1, "lags": 2, "implied_vol": 1, "rate": 1,
        }

    def test_midpoint_upper_bound_strict(self):
        kept, dropped, _ = filter_quotes(make_quote(midpoint=100_000.0))
        assert len(kept) == 0 and dropped == 1

    def test_small_positive_midpoint_kept(self):
        kept, _, _ = filter_quotes(make_quote(midpoint=0.015))
        assert len(kept) == 1

    def test_idempotent(self):
        quotes = make_quotes(make_quote(), make_quote(strike=0.0), make_quote(midpoint=2.0))
        first = filter_quotes(quotes)
        second = filter_quotes(first.kept)
        assert np.array_equal(second.kept, first.kept)
        assert second.dropped_count == 0

    def test_implied_vol_not_a_filter_criterion(self):
        # any implied vol inside (0, 3] is kept, however high
        kept, dropped, _ = filter_quotes(make_quote(implied_vol=2.999))
        assert len(kept) == 1 and dropped == 0

    def test_all_valid_table_is_kept_without_a_copy(self):
        quotes = generate_dataset(SimConfig(seed=42))
        (kept, dropped, _), peak = traced_peak(filter_quotes, quotes)
        assert dropped == 0 and kept is quotes
        assert peak <= 0.5 * quotes.nbytes

    def test_failing_row_gets_a_copy(self):
        quotes = make_quotes(make_quote(), make_quote(rate=1.5), make_quote(midpoint=2.0))
        before = quotes.copy()
        kept = filter_quotes(quotes).kept
        assert len(kept) == 2 and not np.shares_memory(kept, quotes)
        kept[:] = 0.0
        assert np.array_equal(quotes, before, equal_nan=True)

    def test_kept_rows_build_a_dataset(self):
        # whatever the filter keeps, Dataset.from_quotes accepts
        quotes = make_quotes(
            make_quote(), make_quote(implied_vol=5.0), make_quote(rate=1.5),
            make_quote(option_type=0.5), make_quote(implied_vol=math.nan),
        )
        kept = filter_quotes(quotes).kept
        assert len(Dataset.from_quotes(kept)) == 2


class TestDataset:
    def test_from_quotes_roundtrip(self):
        quotes = make_quotes(
            make_quote(midpoint=5.0), make_quote(midpoint=7.0, implied_vol=math.nan)
        )
        ds = Dataset.from_quotes(quotes)
        assert len(ds) == 2
        assert ds.targets.tolist() == [5.0, 7.0]
        for arr in (ds.features, ds.targets):
            assert arr.flags["C_CONTIGUOUS"]
            assert not np.shares_memory(arr, quotes)

    def test_arrays_frozen(self):
        ds = Dataset.from_quotes(make_quote())
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.targets[0] = 1.0

    def test_bad_shapes_rejected(self):
        for width in (7, 25, 27):
            with pytest.raises(ValidationError, match="features"):
                Dataset(np.zeros((2, width)), np.ones(2))
        with pytest.raises(ValidationError, match="targets"):
            Dataset(np.zeros((2, 26)), np.ones(3))

    def test_target_range_enforced(self):
        feats = np.zeros((1, 26))
        with pytest.raises(ValidationError, match="targets"):
            Dataset(feats, np.array([0.0]))
        with pytest.raises(ValidationError, match="targets"):
            Dataset(feats, np.array([100_000.0]))

    def test_a_view_is_copied_and_an_owned_array_kept(self):
        base = np.random.default_rng(2).uniform(1, 2, (4, 30))
        targets = np.array([1.0, 2.0, 3.0, 4.0])
        ds = Dataset(base[:, :26], targets)
        assert ds.features.flags.owndata and not np.shares_memory(ds.features, base)
        assert ds.targets is targets and not targets.flags.writeable
        base[:, :26] = 9.0
        assert np.all(ds.features < 2)

    def test_equality_and_hash_are_identity(self):
        ds = make_dataset(3, seed=1)
        twin = Dataset(ds.features.copy(), ds.targets.copy())
        assert ds == ds
        assert (ds == twin) is False and ds != twin
        assert len({ds, twin, ds}) == 2
        assert {ds: "a", twin: "b"}[twin] == "b"

    def test_subset_refuses_a_boolean_mask(self):
        # as int64 the mask would select rows [1, 0, 0, 1]
        with pytest.raises(ValidationError, match="^indices: .*dtype bool"):
            make_dataset(4).subset([True, False, False, True])

    def test_subset_refuses_float_positions(self):
        # as int64 these would truncate to rows 0 and 2
        with pytest.raises(ValidationError, match="^indices: .*dtype float64"):
            make_dataset(4).subset([0.7, 2.2])

    def test_subset_refuses_positions_out_of_range(self):
        ds = make_dataset(4)
        for idx, bad in (([0, 4], 4), ([-1, 2], -1), (np.array([3, 99], dtype=np.uint8), 99)):
            with pytest.raises(ValidationError, match=rf"^indices: .*\[0, 4\), got {bad}$"):
                ds.subset(idx)

    def test_subset_takes_an_empty_list_and_a_range(self):
        ds = make_dataset(4)
        empty = ds.subset([])
        assert empty.features.shape == (0, 26) and empty.targets.shape == (0,)
        part = ds.subset(range(1, 3))
        assert np.array_equal(part.features, ds.features[1:3])
        assert np.array_equal(part.targets, ds.targets[1:3])


class TestSplit:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(
            ValidationError, match="^train_fraction, val_fraction, test_fraction: must sum to 1"
        ):
            SplitSpec(0.5, 0.2, 0.2)

    def test_rounded_parts_past_n_name_their_fractions(self):
        # round(1.5) is 2 for both val and test: 4 rows of 3
        with pytest.raises(
            ValidationError,
            match=r"^val_fraction, test_fraction: rounded val \(2\) \+ test \(2\) exceed n \(3\)$",
        ):
            split_indices(3, SplitSpec(0.0, 0.5, 0.5))

    def test_documented_sizes(self):
        train, val, test = split_indices(1000, SplitSpec(0.98, 0.01, 0.01, seed=0))
        assert (len(train), len(val), len(test)) == (980, 10, 10)

    def test_partition_disjoint_and_exhaustive(self):
        train, val, test = split_indices(101, SplitSpec(0.7, 0.15, 0.15, seed=3))
        merged = np.concatenate([train, val, test])
        assert len(merged) == 101
        assert sorted(merged.tolist()) == list(range(101))

    def test_same_seed_same_split(self):
        a = split_indices(500, SplitSpec(seed=9))
        b = split_indices(500, SplitSpec(seed=9))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_different_seed_different_split(self):
        a = split_indices(500, SplitSpec(seed=1))
        b = split_indices(500, SplitSpec(seed=2))
        assert not np.array_equal(a[0], b[0])

    def test_remainder_goes_to_train(self):
        train, val, test = split_indices(7, SplitSpec(0.5, 0.25, 0.25, seed=0))
        assert len(val) == 2 and len(test) == 2 and len(train) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            split_indices(0, SplitSpec())
        for n in (5.5, True):
            with pytest.raises(ValidationError, match="^n: "):
                split_indices(n, SplitSpec())

    def test_split_dataset_keeps_rows_aligned(self):
        # row k of each part is source row idx[k], features and target together
        rng = np.random.default_rng(0)
        n = 50
        feats = np.abs(rng.normal(100, 10, size=(n, 26))) + 1.0
        ds = Dataset(feats, rng.uniform(1, 10, n))
        spec = SplitSpec(0.8, 0.1, 0.1, seed=5)
        parts = split_dataset(ds, spec)
        for part, idx in zip(parts, split_indices(n, spec)):
            assert len(part) == len(idx)
            for k, j in enumerate(idx):
                assert np.array_equal(part.features[k], ds.features[j])
                assert part.targets[k] == ds.targets[j]


def _fit_mlp(train, val):
    return train_mlp(train, val, THREE_LAYER, MlpTrainConfig(max_epochs=1))


def _fit_gbdt(train, val):
    return train_gbdt(train, val, GbdtConfig(num_rounds=1))


class TestSharedRules:
    """Each input rule both learners share, through every public entry point."""

    @pytest.mark.parametrize(
        "fit, train, val, message",
        [
            (_fit_mlp, make_dataset(0), make_dataset(5), "train: need at least one row"),
            (_fit_mlp, make_dataset(5), make_dataset(0), "val: need at least one row"),
        ],
        ids=["mlp-empty-train", "mlp-empty-val"],
    )
    def test_fit_pair(self, fit, train, val, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            fit(train, val)

    @pytest.mark.parametrize("check", [quantize_features, fit_feature_stats])
    @pytest.mark.parametrize(
        "features, message",
        [
            (np.ones(26), "features: expected a non-empty 2-D array, got shape (26,)"),
            (np.ones((0, 26)), "features: expected a non-empty 2-D array, got shape (0, 26)"),
            (np.full((2, 26), np.nan), "features: all values must be finite"),
            (np.full((2, 26), np.inf), "features: all values must be finite"),
        ],
    )
    def test_feature_matrix(self, check, features, message):
        args = (features, 256) if check is quantize_features else (features,)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            check(*args)

    @pytest.mark.parametrize(
        "predict, name",
        [
            (lambda x: predict_gbdt(_fit_gbdt(make_dataset(30), make_dataset(5, 1)), x),
             "features"),
            (lambda x: forward(init_network(THREE_LAYER, 26), x), "batch"),
        ],
        ids=["predict_gbdt", "forward"],
    )
    def test_one_row_or_matrix_of_the_model_width(self, predict, name):
        rows = make_dataset(4).features
        # a 1-D input is checked as the one row it stands for
        cases = ((rows[:, :25], (4, 25)), (rows[0, :25], (1, 25)), (rows[None], (1, 4, 26)))
        for bad, shape in cases:
            message = f"{name}: expected 26 columns, got shape {shape}"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                predict(bad)

    @pytest.mark.parametrize(
        "make", [lambda s: SimConfig(seed=s), lambda s: SplitSpec(seed=s),
                 lambda s: MlpTrainConfig(seed=s)],
        ids=["SimConfig", "SplitSpec", "MlpTrainConfig"],
    )
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed(self, make, seed):
        message = f"seed: must be an integer in [0, 2**64), got {seed!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make(seed)
        assert make(2**64 - 1).seed == 2**64 - 1


NAN, INF = math.nan, math.inf
# One bad value per rule of each config field: out of range, NaN, inf, a
# float or a bool for an integer, or a value of the wrong type.
FIELD_CASES = {
    SplitSpec: {
        "train_fraction": [1.5, -0.1, NAN, INF, "0.5", None],
        "val_fraction": [-0.1, NAN],
        "test_fraction": [INF, None],
        "seed": [-1, 2**64, 1.5, True, "1"],
    },
    GbdtConfig: {
        "max_depth": [0, 33, 2.5, True, None],
        "num_rounds": [0, 2.5, True, "5", INF],
        "early_stopping_rounds": [0, 1.5, True, "none"],
        "n_bins": [1, 1025, 100.5, True, NAN],
        "reg_lambda": [-1.0, NAN, INF, "1"],
        "min_child_weight": [-0.5, NAN, INF, None],
        "eta_base": [0.0, 1.5, NAN, INF, "0.5"],
        # 0.6 is above the default eta_base
        "eta_min": [0.0, -0.1, NAN, None, 0.6],
        "max_iter_decay": [0, 2.5, True, "10", INF],
    },
    MlpTrainConfig: {
        "initial_lr": [0.0, -0.01, NAN, INF, "0.01"],
        "plateau_factor": [0.0, 1.0, NAN, None],
        "plateau_patience": [0, 1.5, True],
        "min_lr": [0.0, -1e-6, NAN, "x"],
        "early_stop_patience": [0, 1.5, True, INF],
        "max_epochs": [-1, 8.0, True],
        "batch_size": [0, 64.0, True, "64"],
        "seed": [-1, 2**64, 1.5, True],
    },
    SimConfig: {
        "n_underlyings": [-1, 2.5, True, "3"],
        "days_per_underlying": [20, 30.0, True],
        # 3000.0, 0.08 and 0.05 lie above the default of the matching _max
        "s0_min": [0.0, 3000.0, NAN, (1.0,), "ab"],
        "s0_max": [INF, -5.0, (10.0, 20.0)],
        "vol_regimes": [(), ((NAN, 1.0),), ((-0.1, 1.0),), ((0.2, 0.0),), ((0.2, INF),),
                        ((0.2,),), (("a", 1.0),)],
        "drift": [NAN, INF, -INF, "0.05", None],
        "rate_min": [2.0, 0.08, NAN, "a"],
        "rate_max": [1.0, "b"],
        "yield_min": [-1.0, 0.05, (0.0, 0.01)],
        "yield_max": [INF, (0.02, 0.03)],
        "maturities": [(), (0.0,), (INF,), (NAN,), (-0.5, 1.0), ("a",), 0.5, ((0.5,),)],
        "moneyness": [(), (0.0, 1.0), (NAN,), (1.0, INF), (None,)],
        "half_spread": [-0.01, 1.0, NAN, "0.01"],
        "seed": [-1, 1.5, True],
    },
    LayerSpec: {
        "units": [0, 2.5, True, "4"],
        "activation": ["tanh", None, ["relu"]],
    },
    Architecture: {
        "layers": [(), (LayerSpec(4, "relu"),), (LayerSpec(1, "relu"),),
                   (LayerSpec(4, "relu"), LayerSpec(2, "linear")), (4, LayerSpec(1, "linear")),
                   None],
    },
}
GOOD = {LayerSpec: {"units": 4, "activation": "relu"},
        Architecture: {"layers": THREE_LAYER.layers}}


class TestFieldRules:
    """Every field of every config is checked by its rule, through check_fields."""

    def test_every_field_has_cases(self):
        for cls, cases in FIELD_CASES.items():
            assert set(cases) == {f.name for f in dataclasses.fields(cls)}, cls

    @pytest.mark.parametrize(
        "cls, field, bad",
        [(cls, field, bad) for cls, cases in FIELD_CASES.items()
         for field, values in cases.items() for bad in values],
        ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
    )
    def test_bad_value_names_its_field(self, cls, field, bad):
        kwargs = {**GOOD.get(cls, {}), field: bad}
        with pytest.raises(ValidationError) as info:
            cls(**kwargs)
        message = str(info.value)
        assert message.startswith(f"{field}: ") and message.endswith(f", got {bad!r}")

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (SimConfig, {"s0_min": np.array([1.0, 2.0]), "s0_max": np.array([300.0, 400.0])}),
            (SimConfig, {"drift": np.array([0.05])}),
            (MlpTrainConfig, {"initial_lr": np.array([0.01, 0.02])}),
            (GbdtConfig, {"reg_lambda": np.array([1.0, 2.0])}),
            (SplitSpec, {"train_fraction": np.array([[0.98]])}),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else next(iter(v)),
    )
    def test_array_in_a_number_field_is_refused(self, cls, kwargs):
        field, bad = next(iter(kwargs.items()))
        with pytest.raises(ValidationError) as info:
            cls(**kwargs)
        message = str(info.value)
        assert message.startswith(f"{field}: must ")
        assert message.endswith(f", as one number, got {bad!r}")

    def test_zero_dimensional_numbers_count(self):
        sim = SimConfig(s0_min=np.float64(5.0), drift=np.array(0.01))
        mlp = MlpTrainConfig(initial_lr=np.array(0.02), min_lr=np.float32(1e-5))
        assert (sim.s0_min, sim.drift, mlp.initial_lr) == (5.0, 0.01, 0.02)

    def test_numpy_integers_count(self):
        cfg = GbdtConfig(num_rounds=np.int64(3), n_bins=np.uint16(64))
        assert (cfg.num_rounds, cfg.n_bins) == (3, 64)
