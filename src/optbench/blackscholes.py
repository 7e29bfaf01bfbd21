"""Closed-form European option pricing with a continuous dividend yield.

Prices follow the standard lognormal model:

    d1 = [ln(S/K) + (r - q + sigma^2/2) T] / (sigma sqrt(T))
    d2 = d1 - sigma sqrt(T)
    call = S e^{-qT} N(d1) - K e^{-rT} N(d2)
    put  = K e^{-rT} N(-d2) - S e^{-qT} N(-d1)

which satisfy put-call parity C - P = S e^{-qT} - K e^{-rT} exactly in
exact arithmetic. `bs_prices` is the one pricing kernel, over whole
arrays: the generator, the repricing baselines, the scalar wrapper
`bs_price` and the implied-volatility inverter all price through it, so
a quote reprices to the same bits wherever it is priced. The inverter
runs over arrays too: a safeguarded Newton iteration (bisection
fallback) on the bracket [1e-6, 3], every row in lockstep, with price
and vega from the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IMPLIED_VOL_CAP, TERM_RULES, OptionType, check_fields
from .errors import DegenerateVolatilityError, NoSolutionError, ValidationError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# math.erfc per element, so arrays get the same bits as norm_cdf
_erfc = np.frompyfunc(math.erfc, 1, 1)

VOL_FLOOR = 1e-6
# below this, sigma * sqrt(T) makes d1/d2 numerically meaningless
MIN_VOL_TIME = 1e-12
MAX_STEPS = 200


def norm_cdf(x: float) -> float:
    """Standard normal CDF.

    Computed as 0.5 * erfc(-x / sqrt(2)); erfc stays accurate in the
    lower tail where 1 - erf(x) would cancel catastrophically, keeping
    the absolute error well under 1e-12 over the whole real line.
    """
    if not math.isfinite(x):
        raise ValidationError(f"x: norm_cdf needs a finite input, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


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
        check_fields(
            TERM_RULES, underlying_price=self.underlying_price, strike=self.strike,
            maturity_years=self.maturity_years, rate=self.rate,
            dividend_yield=self.dividend_yield, sigma=self.sigma,
        )
        if not isinstance(self.option_type, OptionType):
            raise ValidationError(
                f"option_type: expected OptionType, got {self.option_type!r}"
            )


def _flags(is_call) -> np.ndarray:
    """`is_call` as an array, refusing anything but booleans and numbers.

    check_fields then holds numbers to TERM_RULES' 1.0/0.0 flag rule.
    """
    flags = np.asarray(is_call)
    if flags.dtype.kind not in "biuf":
        raise ValidationError(
            f"option_type: expected a bool or the 1.0/0.0 flag, got {is_call!r}"
        )
    return flags


def _broadcast_shape(*terms) -> tuple[int, ...]:
    """The shape `terms` broadcast to; ValidationError naming their shapes if none."""
    shapes = [np.shape(t) for t in terms]
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise ValidationError(
            f"terms: shapes {', '.join(map(str, shapes))} do not broadcast together"
        ) from None


def _erfc_once(x: np.ndarray) -> np.ndarray:
    """math.erfc of each element, evaluated once per distinct bit pattern:
    a quote table repeats its chains' terms, so most arguments recur."""
    x = np.asarray(x, dtype=np.float64)
    bits, inverse = np.unique(x.view(np.uint64), return_inverse=True)
    values = np.asarray(_erfc(bits.view(np.float64)), dtype=np.float64)
    return values[inverse].reshape(x.shape)


def _prices(S, K, T, r, q, sigma, call):
    """Model prices and d1 of checked terms; `call` is boolean.

    Raises DegenerateVolatilityError where sigma * sqrt(T) < 1e-12.
    """
    vol_time = sigma * np.sqrt(T)
    if (vol_time < MIN_VOL_TIME).any():
        worst = float(np.min(vol_time))
        raise DegenerateVolatilityError(
            f"sigma * sqrt(T) = {worst!r} is below {MIN_VOL_TIME}; "
            "the quote is effectively deterministic"
        )
    d1 = (np.log(S / K) + (r - q + 0.5 * sigma * sigma) * T) / vol_time
    sign = np.where(call, 1.0, -1.0)
    n1 = 0.5 * _erfc_once(-(sign * d1) / _SQRT2)
    n2 = 0.5 * _erfc_once(-(sign * (d1 - vol_time)) / _SQRT2)
    disc_s = S * np.exp(-q * T)
    disc_k = K * np.exp(-r * T)
    price = np.where(call, disc_s * n1 - disc_k * n2, disc_k * n2 - disc_s * n1)
    # deep out of the money the two tiny terms can cancel below zero
    return np.maximum(price, 0.0), d1


def bs_prices(S, K, T, r, q, sigma, is_call) -> np.ndarray:
    """Model prices of European options, elementwise over broadcast arrays.

    Each argument is a float or a numpy array; `is_call` is boolean (or
    the 1.0/0.0 option_type flag). Prices are never negative. Raises
    ValidationError for an input the quote validity rule rejects (sigma:
    positive and finite; is_call: nothing but a bool or the flag) and
    DegenerateVolatilityError where sigma * sqrt(T) < 1e-12; terms that
    do not broadcast together are a ValidationError too.
    """
    flags = _flags(is_call)
    check_fields(
        TERM_RULES, underlying_price=S, strike=K, maturity_years=T, rate=r, dividend_yield=q,
        sigma=sigma, option_type=flags,
    )
    _broadcast_shape(S, K, T, r, q, sigma, flags)
    return _prices(S, K, T, r, q, sigma, flags.astype(bool))[0]


def bs_price(inputs: BsInputs) -> float:
    """Model price of the option described by `inputs`. Never negative."""
    i = inputs  # BsInputs checked its terms
    call = i.option_type is OptionType.CALL
    return float(_prices(
        i.underlying_price, i.strike, i.maturity_years, i.rate, i.dividend_yield, i.sigma, call
    )[0])


# why a row has no implied volatility, by its failure code (0: solved)
_FAILURES = (
    None,
    "violates no-arbitrage bounds ({lower!r}, {upper!r})",
    f"is below the model price at the volatility floor {VOL_FLOOR}",
    f"needs volatility above the cap {IMPLIED_VOL_CAP}",
    f"did not converge in {MAX_STEPS} steps",
)


def implied_vol(price, S, K, T, r, q, is_call) -> np.ndarray:
    """Volatilities in [1e-6, 3] whose model prices reproduce `price`.

    Elementwise over broadcast arrays, with the conventions of
    `bs_prices`; scalar inputs give a 0-d result. A row converges when
    |model(sigma) - price| <= 1e-8 * max(1, price). Raises on the first
    bad row: ValidationError for a term the validity rule rejects, and
    NoSolutionError, naming the row, when its price sits outside its
    no-arbitrage bounds or outside what the volatility bracket can
    attain, or when the search does not converge.
    """
    flags = _flags(is_call)
    check_fields(
        TERM_RULES, price=price, underlying_price=S, strike=K, maturity_years=T, rate=r,
        dividend_yield=q, option_type=flags,
    )
    shape = _broadcast_shape(price, S, K, T, r, q, flags)
    price, S, K, T, r, q, call = (
        np.broadcast_to(a, shape).ravel() for a in (price, S, K, T, r, q, flags.astype(bool))
    )
    disc_s = S * np.exp(-q * T)
    disc_k = K * np.exp(-r * T)
    lower = np.maximum(np.where(call, disc_s - disc_k, disc_k - disc_s), 0.0)
    upper = np.where(call, disc_s, disc_k)
    tol = 1e-8 * np.maximum(1.0, price)
    f_lo = _prices(S, K, T, r, q, VOL_FLOOR, call)[0] - price
    f_hi = _prices(S, K, T, r, q, IMPLIED_VOL_CAP, call)[0] - price
    at_floor = np.abs(f_lo) <= tol
    failure = np.select(
        [~((lower < price) & (price < upper)), at_floor, f_lo > 0, np.abs(f_hi) <= tol, f_hi < 0],
        [1, 0, 2, 0, 3],
        default=4,
    )
    sigma = np.where(at_floor, VOL_FLOOR, IMPLIED_VOL_CAP)

    # Newton from 0.3 on the rows still open, bisecting when it leaves the bracket
    rows = np.flatnonzero(failure == 4)
    lo, hi, guess = (np.full(rows.size, v) for v in (VOL_FLOOR, IMPLIED_VOL_CAP, 0.3))
    for _ in range(MAX_STEPS):
        model, d1 = _prices(S[rows], K[rows], T[rows], r[rows], q[rows], guess, call[rows])
        value = model - price[rows]
        done = np.abs(value) <= tol[rows]
        sigma[rows[done]] = guess[done]
        failure[rows[done]] = 0
        rows, guess, value, d1, lo, hi = (a[~done] for a in (rows, guess, value, d1, lo, hi))
        if not rows.size:
            break
        above = value > 0
        hi = np.where(above, guess, hi)
        lo = np.where(above, lo, guess)
        vega = disc_s[rows] * (_INV_SQRT_2PI * np.exp(-0.5 * d1 * d1)) * np.sqrt(T[rows])
        newton = vega > 1e-12
        candidate = guess - value / np.where(newton, vega, 1.0)
        newton &= (lo < candidate) & (candidate < hi)
        guess = np.where(newton, candidate, 0.5 * (lo + hi))

    bad = np.flatnonzero(failure)
    if bad.size:
        i = bad[0]
        index = tuple(int(n) for n in np.unravel_index(i, shape))
        at = "" if not index else f" at row {index[0] if len(index) == 1 else index}"
        reason = _FAILURES[failure[i]].format(lower=float(lower[i]), upper=float(upper[i]))
        raise NoSolutionError(f"price{at}: {float(price[i])!r} {reason}")
    return sigma.reshape(shape)
