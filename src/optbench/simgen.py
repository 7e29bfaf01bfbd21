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

Determinism: every random draw derives from (seed, underlying index,
stream), so any underlying can be regenerated in isolation and two runs
with equal configs produce identical datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blackscholes import MAX_ABS_RATE, BsInputs, bs_price
from .core import N_LAGS, OptionQuote, OptionType
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
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValidationError(
                f"seed: must be an integer in [0, 2**64), got {self.seed!r}"
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


def _stream(seed: int, index: int, stream: int) -> np.random.Generator:
    """Independent generator for one (underlying, purpose) pair."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index, stream))
    )


def simulate_underlying(config: SimConfig, index: int) -> UnderlyingPath:
    """Draw parameters and the daily GBM path for underlying `index`."""
    if not (0 <= index < max(config.n_underlyings, index + 1)):
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


def generate_chain(path: UnderlyingPath, config: SimConfig) -> list[OptionQuote]:
    """All quotes written against one underlying's path.

    Quote days start once 20 lags exist. Strikes come from the moneyness
    grid times that day's close. Fair values below the half-tick floor
    are skipped rather than clamped so a zero-spread dataset reprices
    exactly from its implied volatilities.
    """
    noise = _stream(config.seed, path.index, _NOISE_STREAM)
    closes = path.closes
    quotes: list[OptionQuote] = []
    for day in range(N_LAGS, len(closes)):
        spot = float(closes[day])
        lags = tuple(float(x) for x in closes[day - N_LAGS : day][::-1])
        for maturity in config.maturities:
            for moneyness in config.moneyness_grid:
                strike = moneyness * spot
                for option_type in (OptionType.CALL, OptionType.PUT):
                    fair = bs_price(
                        BsInputs(
                            underlying_price=spot,
                            strike=strike,
                            maturity_years=maturity,
                            rate=path.rate,
                            dividend_yield=path.dividend_yield,
                            sigma=path.sigma,
                            option_type=option_type,
                        )
                    )
                    if fair < MIN_MIDPOINT:
                        continue
                    bump = noise.uniform(-config.half_spread, config.half_spread)
                    midpoint = max(fair * (1.0 + bump), MIN_MIDPOINT)
                    quotes.append(
                        OptionQuote(
                            underlying_price=spot,
                            strike=strike,
                            maturity_years=maturity,
                            rate=path.rate,
                            dividend_yield=path.dividend_yield,
                            option_type=option_type,
                            lags=lags,
                            midpoint=midpoint,
                            implied_vol=path.sigma,
                        )
                    )
    return quotes


def generate_dataset(config: SimConfig) -> list[OptionQuote]:
    """Quotes for every underlying in the config, in underlying order."""
    quotes: list[OptionQuote] = []
    for index in range(config.n_underlyings):
        quotes.extend(generate_chain(simulate_underlying(config, index), config))
    return quotes


def realized_vol(lags: Sequence[float]) -> float:
    """Annualized close-to-close volatility of a 20-lag window.

    Sample standard deviation (divisor n-1) of the 19 daily log returns,
    scaled by sqrt(252). Constant lags give exactly 0.
    """
    arr = np.asarray(lags, dtype=np.float64)
    if arr.shape != (N_LAGS,):
        raise ValidationError(
            f"lags: expected {N_LAGS} entries, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValidationError("lags: every lag must be a positive finite price")
    log_returns = np.log(arr[:-1] / arr[1:])
    return float(math.sqrt(TRADING_DAYS_PER_YEAR * log_returns.var(ddof=1)))
