"""Closed-form European option pricing with a continuous dividend yield.

Prices follow the standard lognormal model:

    d1 = [ln(S/K) + (r - q + sigma^2/2) T] / (sigma sqrt(T))
    d2 = d1 - sigma sqrt(T)
    call = S e^{-qT} N(d1) - K e^{-rT} N(d2)
    put  = K e^{-rT} N(-d2) - S e^{-qT} N(-d1)

which satisfy put-call parity C - P = S e^{-qT} - K e^{-rT} exactly in
exact arithmetic. `bs_prices` is the one pricing kernel, over whole
arrays: the generator, the repricing baselines and (through the scalar
wrapper `bs_price`) the implied-volatility inverter all call it, so a
quote reprices to the same bits wherever it is priced. The
implied-volatility inverter is a safeguarded Newton iteration
(bisection fallback) on the bracket [1e-6, 3].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import OptionType, check_terms
from .errors import DegenerateVolatilityError, NoSolutionError, ValidationError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# math.erfc per element, so arrays get the same bits as norm_cdf
_erfc = np.frompyfunc(math.erfc, 1, 1)

VOL_FLOOR = 1e-6
VOL_CAP = 3.0
# below this, sigma * sqrt(T) makes d1/d2 numerically meaningless
MIN_VOL_TIME = 1e-12


def norm_cdf(x: float) -> float:
    """Standard normal CDF.

    Computed as 0.5 * erfc(-x / sqrt(2)); erfc stays accurate in the
    lower tail where 1 - erf(x) would cancel catastrophically, keeping
    the absolute error well under 1e-12 over the whole real line.
    """
    if not math.isfinite(x):
        raise ValidationError(f"x: norm_cdf needs a finite input, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    if not math.isfinite(x):
        raise ValidationError(f"x: norm_pdf needs a finite input, got {x!r}")
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


@dataclass(frozen=True)
class BsInputs:
    """Validated argument bundle for one pricing call."""

    underlying_price: float
    strike: float
    maturity_years: float
    rate: float
    dividend_yield: float
    sigma: float
    option_type: OptionType

    def __post_init__(self) -> None:
        check_terms(
            underlying_price=self.underlying_price, strike=self.strike,
            maturity_years=self.maturity_years, rate=self.rate,
            dividend_yield=self.dividend_yield, sigma=self.sigma,
        )
        if not isinstance(self.option_type, OptionType):
            raise ValidationError(
                f"option_type: expected OptionType, got {self.option_type!r}"
            )


class BsIntermediates(NamedTuple):
    d1: float
    d2: float


def _d1_d2(S, K, T, r, q, sigma):
    """d1 and d2 over arrays; DegenerateVolatilityError below MIN_VOL_TIME."""
    vol_time = sigma * np.sqrt(T)
    if (vol_time < MIN_VOL_TIME).any():
        worst = float(np.min(vol_time))
        raise DegenerateVolatilityError(
            f"sigma * sqrt(T) = {worst!r} is below {MIN_VOL_TIME}; "
            "the quote is effectively deterministic"
        )
    d1 = (np.log(S / K) + (r - q + 0.5 * sigma * sigma) * T) / vol_time
    return d1, d1 - vol_time


def bs_intermediates(inputs: BsInputs) -> BsIntermediates:
    """The d1/d2 pair for a pricing call.

    Raises DegenerateVolatilityError when sigma * sqrt(T) < 1e-12, where
    the division would amplify noise instead of pricing anything.
    """
    i = inputs
    d1, d2 = _d1_d2(
        i.underlying_price, i.strike, i.maturity_years, i.rate, i.dividend_yield, i.sigma
    )
    return BsIntermediates(float(d1), float(d2))


def bs_prices(S, K, T, r, q, sigma, is_call) -> np.ndarray:
    """Model prices of European options, elementwise over broadcast arrays.

    Each argument is a float or a numpy array; `is_call` is boolean (or
    the 1.0/0.0 option_type flag). Prices are never negative. Raises
    ValidationError for an input the quote validity rule rejects (sigma:
    positive and finite) and DegenerateVolatilityError where
    sigma * sqrt(T) < 1e-12.
    """
    check_terms(
        underlying_price=S, strike=K, maturity_years=T, rate=r, dividend_yield=q, sigma=sigma
    )
    call = np.asarray(is_call, dtype=bool)
    d1, d2 = _d1_d2(S, K, T, r, q, sigma)
    sign = np.where(call, 1.0, -1.0)
    n1 = 0.5 * np.asarray(_erfc(-(sign * d1) / _SQRT2), dtype=np.float64)
    n2 = 0.5 * np.asarray(_erfc(-(sign * d2) / _SQRT2), dtype=np.float64)
    disc_s = S * np.exp(-q * T)
    disc_k = K * np.exp(-r * T)
    price = np.where(call, disc_s * n1 - disc_k * n2, disc_k * n2 - disc_s * n1)
    # deep out of the money the two tiny terms can cancel below zero
    return np.maximum(price, 0.0)


def bs_price(inputs: BsInputs) -> float:
    """Model price of the option described by `inputs`. Never negative."""
    i = inputs
    call = i.option_type is OptionType.CALL
    return float(bs_prices(
        i.underlying_price, i.strike, i.maturity_years, i.rate, i.dividend_yield, i.sigma, call
    ))


def implied_vol(
    price: float,
    underlying_price: float,
    strike: float,
    maturity_years: float,
    rate: float,
    dividend_yield: float,
    option_type: OptionType,
) -> float:
    """Volatility in [1e-6, 3] whose model price reproduces `price`.

    Converges when |model(sigma) - price| <= 1e-8 * max(1, price).
    Raises NoSolutionError when the price sits outside its no-arbitrage
    bounds or outside what the volatility bracket can attain.
    """
    check_terms(
        price=price, underlying_price=underlying_price, strike=strike,
        maturity_years=maturity_years, rate=rate, dividend_yield=dividend_yield,
    )
    disc_s = underlying_price * math.exp(-dividend_yield * maturity_years)
    disc_k = strike * math.exp(-rate * maturity_years)
    if option_type is OptionType.CALL:
        lower, upper = max(disc_s - disc_k, 0.0), disc_s
    else:
        lower, upper = max(disc_k - disc_s, 0.0), disc_k
    if not (lower < price < upper):
        raise NoSolutionError(
            f"price: {price!r} violates no-arbitrage bounds ({lower!r}, {upper!r})"
        )

    def objective(sigma: float) -> tuple[float, float]:
        inputs = BsInputs(
            underlying_price,
            strike,
            maturity_years,
            rate,
            dividend_yield,
            sigma,
            option_type,
        )
        d1, _ = bs_intermediates(inputs)
        vega = disc_s * norm_pdf(d1) * math.sqrt(maturity_years)
        return bs_price(inputs) - price, vega

    tol = 1e-8 * max(1.0, price)
    lo, hi = VOL_FLOOR, VOL_CAP
    f_lo, _ = objective(lo)
    if abs(f_lo) <= tol:
        return lo
    if f_lo > 0:
        raise NoSolutionError(
            f"price: {price!r} is below the model price at the volatility floor {VOL_FLOOR}"
        )
    f_hi, _ = objective(hi)
    if abs(f_hi) <= tol:
        return hi
    if f_hi < 0:
        raise NoSolutionError(
            f"price: {price!r} needs volatility above the cap {VOL_CAP}"
        )

    sigma = 0.3 if lo < 0.3 < hi else 0.5 * (lo + hi)
    for _ in range(200):
        value, vega = objective(sigma)
        if abs(value) <= tol:
            return sigma
        if value > 0:
            hi = sigma
        else:
            lo = sigma
        if vega > 1e-12:
            candidate = sigma - value / vega
            if lo < candidate < hi:
                sigma = candidate
                continue
        sigma = 0.5 * (lo + hi)  # Newton left the bracket; bisect instead
    raise NoSolutionError(
        "implied volatility search failed to converge in 200 iterations"
    )
