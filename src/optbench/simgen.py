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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blackscholes import bs_prices
from .core import (
    LAG_COLUMNS,
    MAX_ABS_RATE,
    N_LAGS,
    QUOTE_COLUMNS,
    QUOTE_WIDTH,
    check_seed,
    check_terms,
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


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one synthetic dataset."""

    n_underlyings: int = 25
    days_per_underlying: int = 120
    s0_range: tuple[float, float] = (20.0, 2000.0)
    vol_regimes: tuple[tuple[float, float], ...] = DEFAULT_VOL_REGIMES
    drift: float = 0.05
    rate_range: tuple[float, float] = (0.003, 0.07)
    yield_range: tuple[float, float] = (0.0, 0.04)
    maturities: tuple[float, ...] = (1.0 / 12.0, 0.25, 0.5, 1.0)
    moneyness_grid: tuple[float, ...] = (0.8, 0.9, 1.0, 1.1, 1.2)
    half_spread: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_underlyings < 0:
            raise ValidationError(
                f"n_underlyings: must be >= 0, got {self.n_underlyings}"
            )
        if self.days_per_underlying <= N_LAGS:
            raise ValidationError(
                f"days_per_underlying: need more than {N_LAGS} days to form "
                f"a lag window, got {self.days_per_underlying}"
            )
        for name in ("s0_range", "rate_range", "yield_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValidationError(f"{name}: bad range ({lo!r}, {hi!r})")
        for name in ("rate_range", "yield_range"):
            lo, hi = getattr(self, name)
            if not (-MAX_ABS_RATE < lo and hi < MAX_ABS_RATE):
                raise ValidationError(
                    f"{name}: pricing needs |value| < {MAX_ABS_RATE}, got ({lo!r}, {hi!r})"
                )
        if self.s0_range[0] <= 0:
            raise ValidationError(
                f"s0_range: spot must stay positive, got {self.s0_range!r}"
            )
        if not self.vol_regimes:
            raise ValidationError("vol_regimes: need at least one regime")
        for sigma, weight in self.vol_regimes:
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ValidationError(f"vol_regimes: bad sigma {sigma!r}")
            if not (math.isfinite(weight) and weight > 0):
                raise ValidationError(f"vol_regimes: bad weight {weight!r}")
        if not self.maturities or any(t <= 0 for t in self.maturities):
            raise ValidationError(
                f"maturities: need positive year fractions, got {self.maturities!r}"
            )
        if not self.moneyness_grid or any(m <= 0 for m in self.moneyness_grid):
            raise ValidationError(
                f"moneyness_grid: need positive ratios, got {self.moneyness_grid!r}"
            )
        if not (math.isfinite(self.half_spread) and 0 <= self.half_spread < 1):
            raise ValidationError(
                f"half_spread: must lie in [0, 1), got {self.half_spread!r}"
            )
        check_seed(self.seed)


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


def _stream(seed: int, index: int, stream: int) -> np.random.Generator:
    """Independent generator for one (underlying, purpose) pair."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index, stream))
    )


def simulate_underlying(config: SimConfig, index: int) -> UnderlyingPath:
    """Draw parameters and the daily GBM path for underlying `index`."""
    if index < 0:
        raise ValidationError(f"index: must be >= 0, got {index}")
    params = _stream(config.seed, index, _PARAM_STREAM)
    s0 = params.uniform(*config.s0_range)
    weights = np.array([w for _, w in config.vol_regimes], dtype=np.float64)
    regime = int(params.choice(len(config.vol_regimes), p=weights / weights.sum()))
    sigma = float(config.vol_regimes[regime][0])
    rate = params.uniform(*config.rate_range)
    dividend_yield = params.uniform(*config.yield_range)

    path_rng = _stream(config.seed, index, _PATH_STREAM)
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
    moneyness = np.asarray(config.moneyness_grid, dtype=np.float64)
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
    noise = _stream(config.seed, path.index, _NOISE_STREAM)
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
    """The quote table of every underlying in the config, in underlying order."""
    chains = [
        generate_chain(simulate_underlying(config, index), config)
        for index in range(config.n_underlyings)
    ]
    return np.concatenate([np.empty((0, QUOTE_WIDTH)), *chains])


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
    check_terms(lags=arr)
    log_returns = np.log(arr[..., :-1] / arr[..., 1:])
    vol = np.sqrt(TRADING_DAYS_PER_YEAR * log_returns.var(axis=-1, ddof=1))
    return float(vol) if vol.ndim == 0 else vol
