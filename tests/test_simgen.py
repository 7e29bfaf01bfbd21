import math

import numpy as np
import pytest

from optbench import (
    OptionType,
    SimConfig,
    ValidationError,
    filter_quotes,
    generate_chain,
    generate_dataset,
    realized_vol,
    simulate_underlying,
)
from optbench.blackscholes import BsInputs, bs_price
from optbench.core import LAG_COLUMNS, QUOTE_COLUMNS, QUOTE_WIDTH, first_violation, seeded_rng
from optbench.simgen import _NOISE_STREAM, MIN_MIDPOINT, TRADING_DAYS_PER_YEAR

from conftest import traced_peak

COL = {name: i for i, name in enumerate(QUOTE_COLUMNS)}


def reprice(row: np.ndarray) -> float:
    """The scalar model price of one quote-table row at its implied vol."""
    return bs_price(BsInputs(
        row[COL["underlying_price"]], row[COL["strike"]], row[COL["maturity_years"]],
        row[COL["rate"]], row[COL["dividend_yield"]], row[COL["implied_vol"]],
        OptionType.CALL if row[COL["option_type"]] == 1.0 else OptionType.PUT,
    ))


def per_contract_chain(path, config) -> np.ndarray:
    """Reference: the chain priced one contract at a time, in loop order."""
    noise = seeded_rng(config.seed, (path.index, _NOISE_STREAM))
    rows = []
    for day in range(20, len(path.closes)):
        spot = float(path.closes[day])
        lags = [float(x) for x in path.closes[day - 20 : day][::-1]]
        for maturity in config.maturities:
            for moneyness in config.moneyness:
                strike = moneyness * spot
                for option_type in (OptionType.CALL, OptionType.PUT):
                    fair = bs_price(BsInputs(
                        spot, strike, maturity, path.rate, path.dividend_yield,
                        path.sigma, option_type,
                    ))
                    if fair < MIN_MIDPOINT:
                        continue
                    bump = noise.uniform(-config.half_spread, config.half_spread)
                    midpoint = max(fair * (1.0 + bump), MIN_MIDPOINT)
                    rows.append([
                        option_type.flag, strike, spot, path.rate, path.dividend_yield,
                        maturity, path.sigma, *lags, midpoint,
                    ])
    return np.array(rows).reshape(len(rows), QUOTE_WIDTH)


class TestSimulateUnderlying:
    def test_deterministic_per_underlying(self):
        cfg = SimConfig(n_underlyings=3, days_per_underlying=60, seed=123)
        a = simulate_underlying(cfg, 1)
        b = simulate_underlying(cfg, 1)
        assert np.array_equal(a.closes, b.closes)
        assert (a.sigma, a.rate, a.dividend_yield) == (b.sigma, b.rate, b.dividend_yield)

    def test_underlyings_differ(self):
        cfg = SimConfig(n_underlyings=3, days_per_underlying=60, seed=123)
        a = simulate_underlying(cfg, 0)
        b = simulate_underlying(cfg, 1)
        assert not np.array_equal(a.closes, b.closes)

    def test_zero_vol_gives_exponential_path(self):
        cfg = SimConfig(
            n_underlyings=1,
            days_per_underlying=50,
            vol_regimes=((0.0, 1.0),),
            drift=0.05,
            seed=4,
        )
        path = simulate_underlying(cfg, 0)
        s0 = path.closes[0]
        dt = 1.0 / TRADING_DAYS_PER_YEAR
        t = np.arange(50)
        expected = s0 * np.exp(0.05 * t * dt)
        assert path.closes == pytest.approx(expected, rel=1e-12)

    def test_path_length_and_positivity(self):
        cfg = SimConfig(n_underlyings=1, days_per_underlying=120, seed=9)
        path = simulate_underlying(cfg, 0)
        assert path.closes.shape == (120,)
        assert np.all(path.closes > 0)

    def test_parameters_within_configured_ranges(self):
        cfg = SimConfig(n_underlyings=10, days_per_underlying=30, seed=77)
        sigmas = {r[0] for r in cfg.vol_regimes}
        for i in range(10):
            path = simulate_underlying(cfg, i)
            assert path.sigma in sigmas
            assert cfg.rate_min <= path.rate <= cfg.rate_max
            assert cfg.yield_min <= path.dividend_yield <= cfg.yield_max
            assert cfg.s0_min <= path.closes[0] <= cfg.s0_max

    def test_gbm_terminal_moment(self):
        # E[S_T] = S_0 exp(mu T); check via many single-underlying sims
        cfg = SimConfig(
            n_underlyings=4000,
            days_per_underlying=22,
            s0_min=100.0,
            s0_max=100.0,
            vol_regimes=((0.4, 1.0),),
            drift=0.08,
            seed=21,
        )
        terminal = np.array(
            [simulate_underlying(cfg, i).closes[-1] for i in range(4000)]
        )
        t = 21.0 / TRADING_DAYS_PER_YEAR
        expected = 100.0 * math.exp(0.08 * t)
        se = terminal.std(ddof=1) / math.sqrt(len(terminal))
        assert abs(terminal.mean() - expected) < 4 * se


class TestGenerateChain:
    def test_quote_count_without_subtick_drops(self):
        # ATM with sigma >= 0.15 never prices below the tick floor
        cfg = SimConfig(
            n_underlyings=1,
            days_per_underlying=30,
            maturities=(1.0,),
            moneyness=(1.0,),
            seed=5,
        )
        path = simulate_underlying(cfg, 0)
        quotes = generate_chain(path, cfg)
        assert quotes.shape == ((30 - 20) * 1 * 1 * 2, QUOTE_WIDTH)

    def test_zero_spread_midpoints_reprice_exactly(self):
        cfg = SimConfig(
            n_underlyings=1, days_per_underlying=40, half_spread=0.0, seed=8
        )
        path = simulate_underlying(cfg, 0)
        for row in generate_chain(path, cfg):
            assert row[COL["midpoint"]] == reprice(row)  # bit-exact round trip

    def test_noisy_midpoints_stay_within_band(self):
        cfg = SimConfig(
            n_underlyings=1, days_per_underlying=40, half_spread=0.02, seed=8
        )
        path = simulate_underlying(cfg, 0)
        for row in generate_chain(path, cfg):
            fair = reprice(row)
            assert abs(row[COL["midpoint"]] - fair) <= 0.02 * fair + 1e-12
            assert row[COL["midpoint"]] >= MIN_MIDPOINT

    def test_lags_are_recent_closes_most_recent_first(self):
        cfg = SimConfig(
            n_underlyings=1, days_per_underlying=25,
            maturities=(0.5,), moneyness=(1.0,), seed=3,
        )
        path = simulate_underlying(cfg, 0)
        quotes = generate_chain(path, cfg)
        first_day = quotes[0]  # day index 20
        assert first_day[COL["underlying_price"]] == path.closes[20]
        assert tuple(first_day[LAG_COLUMNS]) == tuple(path.closes[19::-1])
        last_day = quotes[-1]  # day index 24
        assert tuple(last_day[LAG_COLUMNS]) == tuple(path.closes[23:3:-1])

    def test_strikes_follow_moneyness_grid(self):
        cfg = SimConfig(
            n_underlyings=1, days_per_underlying=22,
            maturities=(1.0,), moneyness=(0.8, 1.2), seed=3,
        )
        path = simulate_underlying(cfg, 0)
        quotes = generate_chain(path, cfg)
        ratios = sorted(set(quotes[:, COL["strike"]] / quotes[:, COL["underlying_price"]]))
        assert ratios == pytest.approx([0.8, 1.2], abs=1e-12)

    def test_generated_quotes_all_pass_filter(self):
        cfg = SimConfig(n_underlyings=3, days_per_underlying=45, seed=17)
        quotes = generate_dataset(cfg)
        kept, dropped, _ = filter_quotes(quotes)
        assert dropped == 0
        assert np.array_equal(kept, quotes)
        assert np.all(first_violation(quotes) == -1)

    def test_both_types_present(self):
        cfg = SimConfig(n_underlyings=1, days_per_underlying=25, seed=1)
        quotes = generate_chain(simulate_underlying(cfg, 0), cfg)
        types = set(quotes[:, COL["option_type"]].tolist())
        assert types == {OptionType.CALL.flag, OptionType.PUT.flag}

    def test_dataset_determinism(self):
        cfg = SimConfig(n_underlyings=2, days_per_underlying=30, seed=99)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"half_spread": 0.0},
            {"maturities": (0.02, 2.0), "moneyness": (0.5, 1.0, 1.7)},
            {"vol_regimes": ((0.05, 1.0),), "moneyness": (0.7, 1.3)},  # sub-tick drops
        ],
    )
    def test_matches_per_contract_loop(self, overrides):
        # one grid priced at once equals the contract-by-contract loop, bit for bit:
        # same rows in the same order, same noise draws
        cfg = SimConfig(n_underlyings=3, days_per_underlying=32, seed=21, **overrides)
        for index in range(cfg.n_underlyings):
            path = simulate_underlying(cfg, index)
            table = generate_chain(path, cfg)
            expected = per_contract_chain(path, cfg)
            assert table.shape == expected.shape
            assert np.array_equal(table.view(np.uint64), expected.view(np.uint64))

    def test_empty_dataset_is_an_empty_table(self):
        assert generate_dataset(SimConfig(n_underlyings=0)).shape == (0, QUOTE_WIDTH)

    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(seed=42),
            SimConfig(n_underlyings=3, days_per_underlying=32, seed=21,
                      vol_regimes=((0.05, 1.0),), moneyness=(0.7, 1.3)),  # sub-tick drops
            SimConfig(n_underlyings=0),
        ],
        ids=["default", "sub_tick", "empty"],
    )
    def test_dataset_is_its_chains_concatenated(self, cfg):
        table = generate_dataset(cfg)
        chains = [generate_chain(simulate_underlying(cfg, i), cfg)
                  for i in range(cfg.n_underlyings)]
        expected = np.concatenate([np.empty((0, QUOTE_WIDTH)), *chains])
        assert table.shape == expected.shape
        assert np.array_equal(table.view(np.uint64), expected.view(np.uint64))
        cells = (cfg.days_per_underlying - 20) * len(cfg.maturities) * len(cfg.moneyness) * 2
        # the default and sub-tick grids both skip cells, so the table has an unused tail
        assert len(table) < cfg.n_underlyings * cells or cfg.n_underlyings == 0

    def test_dataset_holds_one_table(self):
        # the chains are copied into one table as they come, never held together
        table, peak = traced_peak(generate_dataset, SimConfig(seed=42))
        assert peak <= 1.3 * table.nbytes

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="days_per_underlying"):
            SimConfig(days_per_underlying=20)
        with pytest.raises(ValidationError, match="half_spread"):
            SimConfig(half_spread=-0.01)
        with pytest.raises(ValidationError, match="vol_regimes"):
            SimConfig(vol_regimes=())
        with pytest.raises(ValidationError, match="moneyness"):
            SimConfig(moneyness=(0.0, 1.0))

    @pytest.mark.parametrize(
        "name, bound",
        [("rate_min", 2.0), ("rate_max", 1.0), ("yield_min", -1.0)],
    )
    def test_rate_bounds_the_pricer_rejects(self, name, bound):
        with pytest.raises(ValidationError, match=f"^{name}: "):
            SimConfig(**{name: bound})

    def test_rates_just_inside_the_pricer_bound_generate(self):
        cfg = SimConfig(
            n_underlyings=1, days_per_underlying=22,
            rate_min=0.99, rate_max=0.99, yield_min=-0.99, yield_max=-0.99,
        )
        assert len(generate_dataset(cfg)) > 0


class TestRealizedVol:
    def test_constant_lags_give_zero(self):
        assert realized_vol((100.0,) * 20) == 0.0

    def test_alternating_lags_reference_value(self):
        # lags alternate 100, 100*exp(0.01): every log return is +-0.01,
        # sample variance of the 19 returns (divisor 18) annualized
        lags = tuple(100.0 if i % 2 == 0 else 100.0 * math.exp(0.01) for i in range(20))
        returns = [0.01 * (-1) ** i for i in range(19)]
        mean = sum(returns) / 19
        var = sum((r - mean) ** 2 for r in returns) / 18
        expected = math.sqrt(252 * var)
        value = realized_vol(lags)
        # the idealized +-0.01 returns differ from float log(exp(0.01)) at ~1e-17,
        # which sqrt(252 * var) amplifies to ~2e-12
        assert value == pytest.approx(expected, abs=1e-11)
        assert value == pytest.approx(0.16286901420918884, abs=1e-12)

    def test_scale_invariance(self):
        lags = tuple(100.0 + 3.0 * math.sin(i) for i in range(20))
        assert realized_vol(tuple(7.0 * x for x in lags)) == pytest.approx(
            realized_vol(lags), rel=1e-12
        )

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError, match="lags"):
            realized_vol((100.0,) * 19)

    def test_nonpositive_lag_rejected(self):
        with pytest.raises(ValidationError, match="lags"):
            realized_vol((0.0,) + (100.0,) * 19)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            lags = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=20)))
            rets = np.log(lags[:-1] / lags[1:])
            expected = math.sqrt(252 * rets.var(ddof=1))
            assert realized_vol(tuple(lags)) == pytest.approx(expected, rel=1e-12)

    def test_matrix_matches_rows(self):
        # windows along the last axis: one call equals the per-row calls bit for bit
        rng = np.random.default_rng(15)
        lags = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.03, size=(2000, 20)), axis=1))
        vols = realized_vol(lags)
        assert vols.shape == (2000,)
        rows = np.array([realized_vol(row) for row in lags])
        assert np.array_equal(vols, rows)
        # a strided view (lag columns of a wider table) gives the same bits
        wide = np.hstack([np.ones((2000, 3)), lags])
        assert np.array_equal(realized_vol(wide[:, 3:]), rows)

    def test_matrix_rejects_a_bad_row(self):
        lags = np.full((3, 20), 100.0)
        lags[2, 7] = -1.0
        with pytest.raises(ValidationError, match="lags: .* got -1.0$"):
            realized_vol(lags)
        with pytest.raises(ValidationError, match="lags"):
            realized_vol(np.full((3, 19), 100.0))
