"""Invariant checks driven by randomized inputs."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from optbench import (
    BsInputs,
    MlpTrainConfig,
    OptionType,
    SplitSpec,
    bs_price,
    best_split,
    eta_decay,
    filter_quotes,
    histogram,
    mae,
    mape,
    norm_cdf,
    quantize_features,
    read_csv,
    realized_vol,
    reduce_lr_on_plateau,
    split_indices,
    write_csv,
)
from optbench.core import QUOTE_COLUMNS
from optbench.gbdt import _SLOT_CHUNK, NodeHistogram, _level_splits, _sorted_quantiles

from conftest import make_quote, make_quotes, per_cell_csv, per_row_quantize, same_bits

price_floats = st.floats(min_value=1.0, max_value=5000.0)
vol_floats = st.floats(min_value=0.01, max_value=2.9)
time_floats = st.floats(min_value=0.01, max_value=5.0)
rate_floats = st.floats(min_value=-0.05, max_value=0.2)


@st.composite
def bs_inputs(draw):
    return dict(
        underlying_price=draw(price_floats),
        strike=draw(price_floats),
        maturity_years=draw(time_floats),
        rate=draw(rate_floats),
        dividend_yield=draw(st.floats(min_value=0.0, max_value=0.1)),
        sigma=draw(vol_floats),
    )


class TestPricingInvariants:
    @given(bs_inputs())
    @settings(max_examples=200)
    def test_put_call_parity(self, kw):
        call = bs_price(BsInputs(option_type=OptionType.CALL, **kw))
        put = bs_price(BsInputs(option_type=OptionType.PUT, **kw))
        s, k = kw["underlying_price"], kw["strike"]
        t, r, q = kw["maturity_years"], kw["rate"], kw["dividend_yield"]
        lhs = call - put
        rhs = s * math.exp(-q * t) - k * math.exp(-r * t)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, s, k))

    @given(bs_inputs())
    @settings(max_examples=200)
    def test_price_within_no_arbitrage_bounds(self, kw):
        s, k = kw["underlying_price"], kw["strike"]
        t, r, q = kw["maturity_years"], kw["rate"], kw["dividend_yield"]
        call = bs_price(BsInputs(option_type=OptionType.CALL, **kw))
        disc_s = s * math.exp(-q * t)
        disc_k = k * math.exp(-r * t)
        assert max(disc_s - disc_k, 0.0) - 1e-9 <= call <= disc_s + 1e-9

    @given(bs_inputs(), vol_floats)
    @settings(max_examples=100)
    def test_call_price_monotone_in_vol(self, kw, other_sigma):
        lo = dict(kw, sigma=min(kw["sigma"], other_sigma))
        hi = dict(kw, sigma=max(kw["sigma"], other_sigma))
        p_lo = bs_price(BsInputs(option_type=OptionType.CALL, **lo))
        p_hi = bs_price(BsInputs(option_type=OptionType.CALL, **hi))
        assert p_hi >= p_lo - 1e-9

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_norm_cdf_in_unit_interval(self, x):
        p = norm_cdf(x)
        assert 0.0 <= p <= 1.0
        assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-14)


class TestFilterInvariants:
    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=20))
    @settings(max_examples=50)
    def test_filter_idempotent(self, codes):
        rows = []
        for i, code in enumerate(codes):
            if code == 0:
                rows.append(make_quote(strike=90.0 + i))
            elif code == 1:
                rows.append(make_quote(midpoint=2e5))
            elif code == 2:
                rows.append(make_quote(maturity_years=0.0))
            elif code == 3:
                rows.append(make_quote(rate=5.0))
            else:
                rows.append(make_quote(implied_vol=math.nan))
        quotes = make_quotes(*rows)
        once = filter_quotes(quotes)
        twice = filter_quotes(once.kept)
        assert np.array_equal(twice.kept, once.kept, equal_nan=True)
        assert twice.dropped_count == 0
        assert len(once.kept) + once.dropped_count == len(quotes)
        assert len(once.kept) == sum(code in (0, 4) for code in codes)


# any finite or infinite float, with the edge cases drawn often
cell_floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.0 / 3.0, 1e308]),
)
quote_rows = st.tuples(
    st.sampled_from([0.0, 1.0]),  # option_type flag
    *[cell_floats] * 5,
    st.one_of(st.just(math.nan), cell_floats),  # implied_vol, NaN when unknown
    *[cell_floats] * 21,  # lags and midpoint
)


# the cells between strike and midpoint: the terms a chain's quotes share
TERMS = slice(QUOTE_COLUMNS.index("strike") + 1, QUOTE_COLUMNS.index("midpoint"))


class TestCsvInvariants:
    @given(st.lists(st.tuples(quote_rows, st.booleans()), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_write_read_round_trip_is_bit_exact(self, drawn):
        rows = [row for row, _ in drawn]
        table = np.array(rows, dtype=np.float64).reshape(len(rows), len(QUOTE_COLUMNS))
        # a drawn flag gives the row its predecessor's chain terms, as in a chain
        for i, (_, same_chain) in enumerate(drawn[1:], start=1):
            if same_chain:
                table[i, TERMS] = table[i - 1, TERMS]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(table, Path(tmp) / "q.csv")
            assert path.read_bytes() == per_cell_csv(table)
            back = read_csv(path)
        assert back.shape == table.shape
        assert np.array_equal(back.view(np.uint64), table.view(np.uint64))


# any float64 bit pattern a cell can hold: NaNs of either sign and any
# payload, infinities, signed zeros and the finite floats above
nan_floats = st.builds(
    lambda sign, payload: float(np.uint64((sign << 63) | (0x7FF << 52) | payload).view(np.float64)),
    st.integers(0, 1),
    st.integers(1, 2**52 - 1),
)
any_cell = st.one_of(cell_floats, nan_floats, st.sampled_from([math.inf, -math.inf]))


@st.composite
def shuffled_tables(draw):
    """A table of chains with any cells, flags of 1.0, 0.0 and -0.0, rows shuffled."""
    n = draw(st.integers(0, 12))
    table = np.array(
        draw(st.lists(st.tuples(*[any_cell] * len(QUOTE_COLUMNS)), min_size=n, max_size=n)),
        dtype=np.float64,
    ).reshape(n, len(QUOTE_COLUMNS))
    table[:, 0] = draw(st.lists(st.sampled_from([1.0, 0.0, -0.0]), min_size=n, max_size=n))
    for i in range(1, n):
        if draw(st.booleans()):  # same chain as the row before
            table[i, TERMS] = table[i - 1, TERMS]
    return table[draw(st.permutations(range(n)))]


class TestCsvTwin:
    @given(shuffled_tables())
    @settings(max_examples=100, deadline=None)
    def test_twin_reads_as_the_parse_does(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(table, Path(tmp) / "q.csv")
            assert path.read_bytes() == per_cell_csv(table)
            [twin] = Path(tmp).glob(".q.csv.*.npy")
            through_twin = read_csv(path)
            twin.unlink()
            parsed = read_csv(path)
        assert same_bits(through_twin, parsed)


class TestSplitInvariants:
    @given(
        st.integers(min_value=3, max_value=400),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=100)
    def test_partition_is_exact(self, n, seed):
        spec = SplitSpec(seed=seed)
        train, val, test = split_indices(n, spec)
        combined = np.concatenate([train, val, test])
        assert len(combined) == n
        assert set(combined.tolist()) == set(range(n))

    @given(st.integers(min_value=10, max_value=200))
    @settings(max_examples=50)
    def test_fraction_rounding(self, n):
        spec = SplitSpec(
            train_fraction=0.6, val_fraction=0.25, test_fraction=0.15, seed=1
        )
        train, val, test = split_indices(n, spec)
        assert len(val) == round(n * 0.25)
        assert len(test) == round(n * 0.15)
        assert len(train) == n - len(val) - len(test)


class TestScheduleInvariants:
    @given(st.integers(min_value=0, max_value=10**6))
    def test_eta_in_bounds(self, iteration):
        eta = eta_decay(iteration)
        assert 0.2 <= eta <= 0.5

    @given(st.integers(min_value=0, max_value=10**5))
    def test_eta_nonincreasing(self, iteration):
        assert eta_decay(iteration + 1) <= eta_decay(iteration)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), max_size=60),
    )
    @settings(max_examples=100)
    def test_plateau_lr_bounded(self, history):
        cfg = MlpTrainConfig()
        lr = reduce_lr_on_plateau(history, cfg)
        assert cfg.min_lr <= lr <= cfg.initial_lr

    @given(st.floats(min_value=0.5, max_value=50.0), st.integers(min_value=0, max_value=40))
    @settings(max_examples=50)
    def test_plateau_more_stagnation_never_raises_lr(self, value, extra):
        cfg = MlpTrainConfig()
        base = [value] * 12
        longer = base + [value] * extra
        assert reduce_lr_on_plateau(longer, cfg) <= reduce_lr_on_plateau(base, cfg)


class TestVolInvariants:
    @given(
        st.lists(
            st.floats(min_value=0.5, max_value=2000.0), min_size=20, max_size=20
        )
    )
    @settings(max_examples=100)
    def test_realized_vol_nonnegative_finite(self, lags):
        rv = realized_vol(lags)
        assert rv >= 0.0
        assert math.isfinite(rv)

    @given(
        st.lists(st.floats(min_value=0.5, max_value=2000.0), min_size=20, max_size=20),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=50)
    def test_realized_vol_scale_invariant(self, lags, scale):
        a = realized_vol(lags)
        b = realized_vol([x * scale for x in lags])
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


class TestMetricInvariants:
    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=50)
    )
    @settings(max_examples=100)
    def test_mae_zero_iff_equal(self, targets):
        assert mae(targets, targets) == 0.0
        assert mape(targets, targets) == 0.0

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=50),
        st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=50),
    )
    @settings(max_examples=100)
    def test_mae_nonnegative(self, preds, targets):
        n = min(len(preds), len(targets))
        assert mae(preds[:n], targets[:n]) >= 0.0

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200
        ),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=100)
    def test_histogram_conserves_count(self, values, n_bins):
        bins = histogram(values, n_bins)
        assert sum(b.count for b in bins) == len(values)


class TestQuantizeInvariants:
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60)
    def test_codes_bounded_edges_sorted(self, n, d, n_bins, seed):
        X = np.random.default_rng(seed).normal(size=(n, d))
        binned = quantize_features(X, n_bins)
        assert binned.codes.max() < n_bins
        assert binned.codes.min() >= 0
        for edges in binned.edges:
            assert len(edges) < n_bins
            assert np.all(np.diff(edges) > 0)


    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(-3, 3).map(float),  # ties
                st.sampled_from([-0.0, 0.0]),
            ),
            min_size=1,
            max_size=300,
        ),
        st.integers(min_value=2, max_value=1024),
    )
    @example([5.0], 2)
    @example([5.0], 1024)
    @example([2.0, -1.0], 3)
    @example([0.0, -0.0], 2)
    @example([1.0, 1.0, 2.0], 1024)
    @settings(max_examples=400, deadline=None)
    def test_sorted_quantiles_match_numpy(self, values, n_bins):
        # bit for bit without -0.0; with it, np.quantile's partition order
        # decides the sign of a zero, so values and codes must match
        col = np.array(values)
        points = np.arange(1, n_bins) / n_bins
        with np.errstate(over="ignore", invalid="ignore"):  # spans past the float range
            got = _sorted_quantiles(np.sort(col), points)
            want = np.quantile(col, points)
        if np.signbit(col[col == 0.0]).any():
            assert np.array_equal(got, want, equal_nan=True)
            if np.isfinite(want).all():
                binned = quantize_features(col[:, None], n_bins)
                assert np.array_equal(binned.codes, per_row_quantize(col[:, None], n_bins).codes)
        else:
            assert same_bits(got, want)


class TestLevelSplitInvariants:
    @given(
        st.integers(min_value=1, max_value=_SLOT_CHUNK),  # slots: up to one chunk
        st.integers(min_value=1, max_value=5),  # features
        st.integers(min_value=2, max_value=40),  # bins
        st.sampled_from([0.0, 1.0, 3.0]),  # reg_lambda
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 5.0]),  # min_child_weight
        st.sampled_from([1.0, 1e-3, 1e200]),  # gradient scale; 1e200 overflows
        st.booleans(),  # integer gradients tie gains within a feature
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_picks_match_best_split(
        self, n_slots, n_features, n_bins, lam, mcw, scale, integral, seed
    ):
        rng = np.random.default_rng(seed)
        shape = (n_slots, n_features, n_bins)
        counts = rng.integers(1, 4, size=shape) * (rng.uniform(size=shape) < rng.uniform())
        counts[rng.uniform(size=n_slots) < 0.2] = 0  # slots without rows
        if integral:
            grad = rng.integers(-3, 4, size=shape) * scale
        else:
            grad = rng.normal(size=shape) * scale
        # a duplicated feature ties every split of the last one exactly
        counts[:, -1] = counts[:, 0]
        grad[:, -1] = grad[:, 0]
        clean = np.where(counts > 0, grad, 0.0)
        # the kernel must never read the gradient of a zero-count bin
        garbage = np.where(counts > 0, grad, rng.normal(size=shape) * scale)
        with np.errstate(over="ignore"):
            feature, bin_index = _level_splits(garbage, counts.astype(np.int32), lam, mcw)
            for s in range(n_slots):
                want = best_split(NodeHistogram(clean[s], counts[s].astype(float)), lam, mcw)
                got = None if feature[s] < 0 else (feature[s], bin_index[s])
                assert got == (None if want is None else want[:2])
