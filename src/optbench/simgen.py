"""Synthetic option-quote generator: GBM underlyings, model midpoints.

Each underlying draws its own spot, volatility regime, rate, and
dividend yield, then evolves as geometric Brownian motion on a daily
grid (252 trading days a year). From day 21 on, a chain of quotes is
written around each close: every maturity crossed with every moneyness
level, both calls and puts, priced by the closed-form model with the
drawn volatility. The quote's implied volatility field carries that
exact sigma. A symmetric relative perturbation of up to `half_spread`
turns fair value into a midpoint; contracts whose fair value falls
below half a minimum tick are unquotable and are skipped.

Quotes come out as a quote table (see `core`); each chain is one grid,
priced by one `bs_prices` call, in day, maturity, moneyness, type order.

Determinism: every random draw derives from (seed, underlying index,
stream), so any underlying can be regenerated in isolation and two runs
with equal configs produce identical datasets.

SimConfig's field rules are one table checked by `core.check_fields`.
Its spot, maturity and moneyness terms take the pricing terms' positive
rule and its rate and yield bounds their rate rule, so every quote the
config can draw is one the pricer accepts. Each drawn term has a
`<term>_min` and a `<term>_max` field, and a `_min` above its `_max` is
refused under the `_min` field's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blackscholes import bs_prices
from .core import (
    LAG_COLUMNS,
    N_LAGS,
    POSITIVE,
    QUOTE_COLUMNS,
    QUOTE_WIDTH,
    RATE,
    SEED,
    TERM_RULES,
    check_fields,
    each_rule,
    integer_rule,
    is_positive,
    scalar_rule,
    seeded_rng,
)
from .errors import ValidationError

TRADING_DAYS_PER_YEAR = 252
MIN_MIDPOINT = 0.005  # half of a one-cent minimum tick

# (sigma, weight) pairs: calm to stressed, weighted toward the middle
DEFAULT_VOL_REGIMES: tuple[tuple[float, float], ...] = (
    (0.15, 0.40),
    (0.30, 0.35),
    (0.60, 0.20),
    (1.20, 0.05),
)

_PARAM_STREAM = 0
_PATH_STREAM = 1
_NOISE_STREAM = 2


_SIM_RULES = {
    "n_underlyings": integer_rule(0),
    "days_per_underlying": integer_rule(N_LAGS + 1),  # a lag window, then a quote day
    "s0_min": scalar_rule(POSITIVE),
    "s0_max": scalar_rule(POSITIVE),
    "vol_regimes": (
        lambda regimes: len(regimes) > 0
        and all(0 <= sigma < math.inf and is_positive(weight) for sigma, weight in regimes),
        "need at least one (sigma, weight) pair, each finite with sigma >= 0 and weight > 0",
    ),
    "drift": scalar_rule((math.isfinite, "must be finite")),
    "rate_min": scalar_rule(RATE),
    "rate_max": scalar_rule(RATE),
    "yield_min": scalar_rule(RATE),
    "yield_max": scalar_rule(RATE),
    "maturities": each_rule(POSITIVE),
    "moneyness": each_rule(POSITIVE),
    "half_spread": scalar_rule((lambda v: 0 <= v < 1, "must lie in [0, 1)")),
    "seed": SEED,
}


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one synthetic dataset."""

    n_underlyings: int = 25
    days_per_underlying: int = 120
    s0_min: float = 20.0
    s0_max: float = 2000.0
    vol_regimes: tuple[tuple[float, float], ...] = DEFAULT_VOL_REGIMES
    drift: float = 0.05
    rate_min: float = 0.003
    rate_max: float = 0.07
    yield_min: float = 0.0
    yield_max: float = 0.04
    maturities: tuple[float, ...] = (1.0 / 12.0, 0.25, 0.5, 1.0)
    moneyness: tuple[float, ...] = (0.8, 0.9, 1.0, 1.1, 1.2)
    half_spread: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(_SIM_RULES, **vars(self))
        for term in ("s0", "rate", "yield"):
            low, high = getattr(self, f"{term}_min"), getattr(self, f"{term}_max")
            if low > high:
                raise ValidationError(
                    f"{term}_min: must be <= {term}_max ({high!r}), got {low!r}"
                )


@dataclass(frozen=True)
class UnderlyingPath:
    """A simulated underlying: daily closes plus its drawn parameters."""

    index: int
    closes: np.ndarray
    sigma: float
    rate: float
    dividend_yield: float

    def __post_init__(self) -> None:
        closes = np.asarray(self.closes, dtype=np.float64)
        closes.setflags(write=False)
        object.__setattr__(self, "closes", closes)


def simulate_underlying(config: SimConfig, index: int) -> UnderlyingPath:
    """Draw parameters and the daily GBM path for underlying `index`."""
    check_fields({"index": integer_rule(0)}, index=index)
    params = seeded_rng(config.seed, (index, _PARAM_STREAM))
    s0 = params.uniform(config.s0_min, config.s0_max)
    weights = np.array([w for _, w in config.vol_regimes], dtype=np.float64)
    regime = int(params.choice(len(config.vol_regimes), p=weights / weights.sum()))
    sigma = float(config.vol_regimes[regime][0])
    rate = params.uniform(config.rate_min, config.rate_max)
    dividend_yield = params.uniform(config.yield_min, config.yield_max)

    path_rng = seeded_rng(config.seed, (index, _PATH_STREAM))
    dt = 1.0 / TRADING_DAYS_PER_YEAR
    shocks = path_rng.standard_normal(config.days_per_underlying - 1)
    log_steps = (config.drift - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * shocks
    log_path = np.concatenate(([0.0], np.cumsum(log_steps)))
    closes = s0 * np.exp(log_path)
    return UnderlyingPath(
        index=index,
        closes=closes,
        sigma=sigma,
        rate=float(rate),
        dividend_yield=float(dividend_yield),
    )


def generate_chain(path: UnderlyingPath, config: SimConfig) -> np.ndarray:
    """The quote table written against one underlying's path.

    Quote days start once 20 lags exist. Strikes come from the moneyness
    grid times that day's close. Fair values below the half-tick floor
    are skipped rather than clamped so a zero-spread dataset reprices
    exactly from its implied volatilities.
    """
    closes = path.closes
    # the 20 closes before each quote day, most recent first
    lags = sliding_window_view(closes[:-1], N_LAGS)[:, ::-1]
    maturities = np.asarray(config.maturities, dtype=np.float64)
    moneyness = np.asarray(config.moneyness, dtype=np.float64)
    day, mat, mon, kind = np.indices(
        (len(lags), len(maturities), len(moneyness), 2)
    ).reshape(4, -1)
    spot = closes[N_LAGS:][day]
    strike = moneyness[mon] * spot
    is_call = kind == 0
    fair = bs_prices(
        spot, strike, maturities[mat], path.rate, path.dividend_yield, path.sigma, is_call
    )
    keep = fair >= MIN_MIDPOINT
    noise = seeded_rng(config.seed, (path.index, _NOISE_STREAM))
    bump = noise.uniform(-config.half_spread, config.half_spread, size=int(keep.sum()))

    col = QUOTE_COLUMNS.index
    table = np.empty((len(bump), QUOTE_WIDTH))
    table[:, col("option_type")] = is_call[keep]  # OptionType.flag
    table[:, col("strike")] = strike[keep]
    table[:, col("underlying_price")] = spot[keep]
    table[:, col("rate")] = path.rate
    table[:, col("dividend_yield")] = path.dividend_yield
    table[:, col("maturity_years")] = maturities[mat[keep]]
    table[:, col("implied_vol")] = path.sigma
    table[:, LAG_COLUMNS] = lags[day[keep]]
    table[:, col("midpoint")] = np.maximum(fair[keep] * (1.0 + bump), MIN_MIDPOINT)
    return table


def generate_dataset(config: SimConfig) -> np.ndarray:
    """The quote table of every underlying in the config, in underlying order.

    Each chain is copied into one table sized for every quote the grid
    can hold, so the chains are never held together. The result is a
    view of that table's filled row prefix; the rows past it, one per
    cell priced below the half-tick floor, are never written.
    """
    days = config.days_per_underlying - N_LAGS
    cells = days * len(config.maturities) * len(config.moneyness) * 2
    table = np.empty((config.n_underlyings * cells, QUOTE_WIDTH))
    n = 0
    for index in range(config.n_underlyings):
        chain = generate_chain(simulate_underlying(config, index), config)
        table[n : n + len(chain)] = chain
        n += len(chain)
    return table[:n]


def realized_vol(lags):
    """Annualized close-to-close volatility of 20-lag windows.

    `lags` holds the windows along its last axis; one window gives a
    float, an (n, 20) matrix gives n values. Sample standard deviation
    (divisor n-1) of the 19 daily log returns, scaled by sqrt(252).
    Constant lags give exactly 0.
    """
    arr = np.asarray(lags, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] != N_LAGS:
        raise ValidationError(
            f"lags: expected {N_LAGS} entries, got shape {arr.shape}"
        )
    check_fields(TERM_RULES, lags=arr)
    log_returns = np.log(arr[..., :-1] / arr[..., 1:])
    vol = np.sqrt(TRADING_DAYS_PER_YEAR * log_returns.var(axis=-1, ddof=1))
    return float(vol) if vol.ndim == 0 else vol
